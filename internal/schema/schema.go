// Package schema implements the geo-distributed catalog: locations,
// databases, tables with per-column statistics, and GAV mappings that
// allow a global table to be horizontally fragmented across locations
// (Section 7.5 of the paper rewrites such tables as unions of per-site
// fragments).
package schema

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"cgdqp/internal/expr"
)

// Column describes one attribute of a table.
type Column struct {
	Name string
	Type expr.Type
	// AvgWidth is the average encoded width in bytes; 0 means "use the
	// type default" (8 for numerics, 16 for strings).
	AvgWidth int
}

// Width returns the effective average width of the column in bytes.
func (c Column) Width() int {
	if c.AvgWidth > 0 {
		return c.AvgWidth
	}
	if c.Type == expr.TString {
		return 16
	}
	if c.Type == expr.TBool {
		return 1
	}
	return 8
}

// ColStats holds per-column statistics used by the cardinality estimator.
type ColStats struct {
	Distinct int64 // number of distinct values; 0 = unknown
	Min, Max expr.Value
}

// Fragment is one physical placement of (a horizontal slice of) a table.
// A conventional table has exactly one fragment. A fragmented table
// (Section 7.5) has several, each holding RowCount rows at Location
// within database DB.
type Fragment struct {
	DB       string
	Location string
	RowCount int64
}

// Table is a global-schema table together with its GAV mapping onto
// physical fragments and its statistics.
//
// Fragments[i].RowCount, ColStats and Indexes are how a table is built:
// fill them in (SetColStats helps) and hand the table to Catalog.AddTable,
// which snapshots them. From then on the catalog's SetColStats,
// SetTableStats and AddIndex are the only writers — each publishes a new
// immutable generation — and RowCount, FragmentRows, Stats, Indexed and
// IndexList read the current one with a single atomic load, so planning
// takes no lock and a planner racing an ANALYZE sees the old statistics
// or the new ones, never a mix. The exported fields keep the values the
// table was registered with.
type Table struct {
	Name      string
	Columns   []Column
	Fragments []Fragment
	ColStats  map[string]ColStats
	// Indexes declares which columns carry B+ tree secondary indexes
	// (int64-class or string key types only; others are ignored). The
	// site stores maintain the declared indexes, and the optimizer
	// considers IndexScan / IndexLookupJoin alternatives for them.
	Indexes []string

	// live is the current statistics generation (nil until AddTable).
	live atomic.Pointer[tableStats]
}

// tableStats is one generation of what can change about a registered
// table: per-fragment row counts, column statistics (keyed by lower-case
// column name) and the index list. A published generation is never
// written again; the catalog replaces it copy-on-write.
type tableStats struct {
	fragRows []int64
	cols     map[string]ColStats
	indexes  []string
}

// stats returns the current generation: the one the catalog published
// last or, for a table still being built, a view of the exported fields.
func (t *Table) stats() *tableStats {
	if s := t.live.Load(); s != nil {
		return s
	}
	s := &tableStats{fragRows: make([]int64, len(t.Fragments)), cols: t.ColStats, indexes: t.Indexes}
	for i, f := range t.Fragments {
		s.fragRows[i] = f.RowCount
	}
	return s
}

// IndexList returns the columns declared indexed. The slice must not be
// mutated.
func (t *Table) IndexList() []string { return t.stats().indexes }

// Indexed reports whether the named column is declared indexed.
func (t *Table) Indexed(col string) bool { return containsFold(t.IndexList(), col) }

func containsFold(list []string, s string) bool {
	for _, l := range list {
		if strings.EqualFold(l, s) {
			return true
		}
	}
	return false
}

// NewTable builds a single-fragment table located in db at location.
func NewTable(name, db, location string, rows int64, cols ...Column) *Table {
	return &Table{
		Name:      name,
		Columns:   cols,
		Fragments: []Fragment{{DB: db, Location: location, RowCount: rows}},
		ColStats:  map[string]ColStats{},
	}
}

// RowCount returns the total number of rows across all fragments.
func (t *Table) RowCount() int64 {
	var n int64
	for _, r := range t.stats().fragRows {
		n += r
	}
	return n
}

// FragmentRows returns the number of rows of one fragment.
func (t *Table) FragmentRows(fragIdx int) int64 { return t.stats().fragRows[fragIdx] }

// Column returns the named column, or false when absent. Lookup is
// case-insensitive, matching the SQL front end.
func (t *Table) Column(name string) (Column, bool) {
	for _, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return c, true
		}
	}
	return Column{}, false
}

// ColumnNames returns the column names in declaration order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

// RowWidth returns the estimated width in bytes of a full row.
func (t *Table) RowWidth() int {
	w := 0
	for _, c := range t.Columns {
		w += c.Width()
	}
	return w
}

// Location returns the location of the table's single fragment. For
// fragmented tables it returns the first fragment's location; callers
// that care about fragmentation must inspect Fragments directly.
func (t *Table) Location() string {
	if len(t.Fragments) == 0 {
		return ""
	}
	return t.Fragments[0].Location
}

// DB returns the database of the table's first fragment.
func (t *Table) DB() string {
	if len(t.Fragments) == 0 {
		return ""
	}
	return t.Fragments[0].DB
}

// Fragmented reports whether the table spans more than one location.
func (t *Table) Fragmented() bool { return len(t.Fragments) > 1 }

// SetColStats records statistics for a column of a table that is still
// being built. Once the table is registered the statistics belong to the
// catalog (Catalog.SetColStats), which concurrent planners read; writing
// here then is a bug and panics.
func (t *Table) SetColStats(col string, s ColStats) {
	if t.live.Load() != nil {
		panic(fmt.Sprintf("schema: Table.SetColStats on registered table %q; use Catalog.SetColStats", t.Name))
	}
	if t.ColStats == nil {
		t.ColStats = map[string]ColStats{}
	}
	t.ColStats[strings.ToLower(col)] = s
}

// Stats returns the recorded statistics for a column (zero value when
// unknown).
func (t *Table) Stats(col string) ColStats { return t.stats().cols[strings.ToLower(col)] }

// Catalog is the global geo-distributed schema: the set of locations and
// the union of all local schemas (Section 3 assumes the geo-distributed
// schema is the union of local schemas). It is safe for concurrent use
// and, like policy.Catalog, versions itself: whatever caches state
// derived from tables, locations, statistics or indexes stamps it with
// Version and treats a stamp from another version as a miss.
type Catalog struct {
	mu        sync.RWMutex
	locations []string // append-only
	tables    map[string]*Table
	// version counts changes. It moves under mu after the contents
	// change, so a reader that loads version v and then reads the
	// contents sees at least v's state: a plan stamped v is never older
	// than v.
	version atomic.Uint64
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: map[string]*Table{}}
}

// Version returns the number of changes made to the catalog so far: one
// per AddTable, per AddLocation of a new location, and per statistics or
// index change. It is an atomic load.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// AddLocation registers a location (idempotent). Locations keep
// registration order, which experiments rely on for determinism.
func (c *Catalog) AddLocation(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.addLocationLocked(name) {
		c.version.Add(1)
	}
}

func (c *Catalog) addLocationLocked(name string) bool {
	for _, l := range c.locations {
		if l == name {
			return false
		}
	}
	c.locations = append(c.locations, name)
	return true
}

// Locations returns the registered locations in registration order.
func (c *Catalog) Locations() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]string(nil), c.locations...)
}

// AddTable registers a table. Each fragment's location is registered as a
// side effect, and the location→database mapping is recorded.
func (c *Catalog) AddTable(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(t.Name)
	if _, dup := c.tables[key]; dup {
		return fmt.Errorf("schema: duplicate table %q", t.Name)
	}
	if len(t.Fragments) == 0 {
		return fmt.Errorf("schema: table %q has no fragments", t.Name)
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("schema: table %q has no columns", t.Name)
	}
	for _, f := range t.Fragments {
		c.addLocationLocked(f.Location)
	}
	// A table another catalog already registered keeps its current
	// generation rather than reverting to what it was built with.
	t.live.Store(t.stats())
	c.tables[key] = t
	c.version.Add(1)
	return nil
}

// publish installs the next statistics generation of a registered table
// — edit receives a shallow copy of the current one and must replace,
// not write into, whatever it changes — and moves the version.
func (c *Catalog) publish(table string, edit func(t *Table, next *tableStats) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[strings.ToLower(table)]
	if !ok {
		return fmt.Errorf("schema: unknown table %q", table)
	}
	next := *t.live.Load()
	if err := edit(t, &next); err != nil {
		return err
	}
	t.live.Store(&next)
	c.version.Add(1)
	return nil
}

// SetColStats records statistics for one column of a registered table.
func (c *Catalog) SetColStats(table, col string, s ColStats) error {
	return c.publish(table, func(_ *Table, next *tableStats) error {
		cols := make(map[string]ColStats, len(next.cols)+1)
		for k, v := range next.cols {
			cols[k] = v
		}
		cols[strings.ToLower(col)] = s
		next.cols = cols
		return nil
	})
}

// SetTableStats replaces a registered table's fragment row counts and
// column statistics (keyed by column name) in one step — ANALYZE's
// publish: a concurrent planner sees both from the same generation.
func (c *Catalog) SetTableStats(table string, fragRows []int64, stats map[string]ColStats) error {
	return c.publish(table, func(t *Table, next *tableStats) error {
		if len(fragRows) != len(t.Fragments) {
			return fmt.Errorf("schema: %d row counts for the %d fragments of %q", len(fragRows), len(t.Fragments), t.Name)
		}
		cols := make(map[string]ColStats, len(stats))
		for k, v := range stats {
			cols[strings.ToLower(k)] = v
		}
		next.fragRows, next.cols = append([]int64(nil), fragRows...), cols
		return nil
	})
}

// AddIndex declares secondary indexes over columns of a registered table
// (already indexed columns are skipped).
func (c *Catalog) AddIndex(table string, cols ...string) error {
	return c.publish(table, func(t *Table, next *tableStats) error {
		indexes := next.indexes[:len(next.indexes):len(next.indexes)]
		for _, col := range cols {
			if _, ok := t.Column(col); !ok {
				return fmt.Errorf("schema: table %q has no column %q", t.Name, col)
			}
			if !containsFold(indexes, col) {
				indexes = append(indexes, col)
			}
		}
		next.indexes = indexes
		return nil
	})
}

// MustAddTable registers a table and panics on error; for static schemas.
func (c *Catalog) MustAddTable(t *Table) {
	if err := c.AddTable(t); err != nil {
		panic(err)
	}
}

// Table resolves a table by name (case-insensitive).
func (c *Catalog) Table(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	return t, ok
}

// Tables returns all tables sorted by name.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
