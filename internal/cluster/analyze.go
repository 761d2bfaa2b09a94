package cluster

import (
	"fmt"

	"cgdqp/internal/expr"
	"cgdqp/internal/schema"
)

// Analyze recomputes a table's optimizer statistics from the rows
// actually stored in the cluster: exact per-column distinct counts and
// min/max for orderable types, plus fragment row counts. It is the
// engine's ANALYZE: run it after loading so cardinality estimates match
// the data.
//
// Indexed columns of single-fragment tables take the fast path: row
// count, min/max and distinct come straight from the B+ tree (exact,
// and identical to what the row scan would compute) — a fully indexed
// table is analyzed without decoding a single page. Fragmented tables
// and unindexed columns fall back to the scanning path. The result is
// published through the catalog in one step, so queries may be planned
// meanwhile.
func (c *Cluster) Analyze(cat *schema.Catalog, t *schema.Table) error {
	type colAcc struct {
		distinct map[uint64]struct{}
		min, max expr.Value
		seen     bool
	}
	fromIndex := make([]bool, len(t.Columns))
	idxStats := make([]schema.ColStats, len(t.Columns))
	fragRows := make([]int64, len(t.Fragments))
	if len(t.Fragments) == 1 {
		if tab, err := c.fragmentTable(t, 0); err == nil {
			fragRows[0] = int64(tab.RowCount())
			for i, col := range t.Columns {
				if min, max, distinct, ok := tab.IndexStats(col.Name); ok {
					idxStats[i] = schema.ColStats{Distinct: int64(distinct), Min: min, Max: max}
					fromIndex[i] = true
				}
			}
		}
	}
	needScan := false
	for i := range t.Columns {
		if !fromIndex[i] {
			needScan = true
		}
	}
	accs := make([]colAcc, len(t.Columns))
	for i := range accs {
		accs[i].distinct = map[uint64]struct{}{}
	}
	if needScan || len(t.Fragments) > 1 {
		for fi := range t.Fragments {
			rows, err := c.FragmentRows(t, fi)
			if err != nil {
				return err
			}
			fragRows[fi] = int64(len(rows))
			for _, row := range rows {
				if len(row) != len(t.Columns) {
					return fmt.Errorf("cluster: analyze %s: row width %d != %d columns", t.Name, len(row), len(t.Columns))
				}
				for i, v := range row {
					if fromIndex[i] || v.IsNull() {
						continue
					}
					a := &accs[i]
					a.distinct[v.Hash()] = struct{}{}
					if !a.seen {
						a.min, a.max, a.seen = v, v, true
						continue
					}
					if cres, err := v.Compare(a.min); err == nil && cres < 0 {
						a.min = v
					}
					if cres, err := v.Compare(a.max); err == nil && cres > 0 {
						a.max = v
					}
				}
			}
		}
	}
	stats := make(map[string]schema.ColStats, len(t.Columns))
	for i, col := range t.Columns {
		if fromIndex[i] {
			stats[col.Name] = idxStats[i]
			continue
		}
		st := schema.ColStats{Distinct: int64(len(accs[i].distinct))}
		if accs[i].seen {
			st.Min, st.Max = accs[i].min, accs[i].max
		}
		stats[col.Name] = st
	}
	return cat.SetTableStats(t.Name, fragRows, stats)
}

// AnalyzeAll runs Analyze over every table of the catalog.
func (c *Cluster) AnalyzeAll(cat *schema.Catalog) error {
	for _, t := range cat.Tables() {
		if err := c.Analyze(cat, t); err != nil {
			return err
		}
	}
	return nil
}
