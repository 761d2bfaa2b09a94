// Package cost implements the phase-1 cost model of the two-phase
// optimizer (Section 6): cardinality estimation from catalog statistics
// and single-site operator cost functions that ignore data location, as
// in centralized query optimization. Shipping costs (phase 2) live in
// package network.
package cost

import (
	"math"
	"strings"

	"cgdqp/internal/expr"
	"cgdqp/internal/plan"
	"cgdqp/internal/schema"
)

// Default selectivities for predicates the estimator cannot analyze
// precisely; values follow the classic System R conventions.
const (
	selEq      = 0.005 // equality fallback when distinct count unknown
	selRange   = 1.0 / 3.0
	selLike    = 0.25
	selIn      = 0.02 // per IN list element
	selDefault = 0.25
	selNotNull = 0.9
)

// Per-row operator cost weights (abstract units ≈ rows touched).
const (
	cpuRow       = 1.0
	hashBuildRow = 2.0
	hashProbeRow = 1.2
	sortRowLog   = 0.5
	aggRow       = 1.5
	outputRow    = 0.1
)

// Index access-path cost weights. These price B+ tree descends and page
// fetches against the plain per-row scan weights above; page fetches are
// discounted by the fraction of the table the buffer pool can hold, so a
// bigger pool makes index paths (which touch scattered pages) cheaper.
// The model is deliberately pager-independent: it depends only on the
// configured pool budget, never on whether pages live in memory or in
// files, so plan choice is identical across the pager axis.
const (
	pageSizeBytes    = 8192.0 // matches store.PageSize
	pageFetchCost    = 4.0    // page read missing the buffer pool
	pageWarmCost     = 0.25   // page read hitting the buffer pool
	btreeLevelCost   = 0.5    // one interior-node descend
	indexProbeRow    = 0.4    // per row fetched through an index posting
	defaultPoolBytes = 64 << 20
	btreeFanout      = 64.0 // matches store.btreeOrder
)

// Estimator estimates operator cardinalities using base-table statistics
// resolved through query aliases.
type Estimator struct {
	tables    map[string]*schema.Table // lowercase alias -> base table
	poolBytes int64                    // buffer-pool budget for page-fetch discounting; 0 = default
}

// NewEstimator builds an estimator for one query: it collects the base
// tables reachable from the logical plan, keyed by alias.
func NewEstimator(root *plan.Node) *Estimator {
	est := &Estimator{tables: map[string]*schema.Table{}}
	if root != nil {
		root.Walk(func(n *plan.Node) bool {
			if n.Kind == plan.Scan || n.Kind == plan.TableScan || n.Kind == plan.IndexScan {
				est.tables[strings.ToLower(n.Alias)] = n.Table
			}
			return true
		})
	}
	return est
}

// Distinct returns the estimated number of distinct values of a column,
// or fallback when statistics are unavailable.
func (e *Estimator) Distinct(c *expr.Col, fallback float64) float64 {
	t, ok := e.tables[strings.ToLower(c.Table)]
	if !ok {
		return fallback
	}
	if s := t.Stats(c.Name); s.Distinct > 0 {
		return float64(s.Distinct)
	}
	return fallback
}

// ScanCard returns the cardinality of a table scan (whole table or one
// fragment).
func ScanCard(t *schema.Table, fragIdx int) float64 {
	if fragIdx >= 0 && fragIdx < len(t.Fragments) {
		return float64(t.FragmentRows(fragIdx))
	}
	return float64(t.RowCount())
}

// FilterSel estimates the selectivity of a predicate.
func (e *Estimator) FilterSel(pred expr.Expr) float64 {
	if pred == nil {
		return 1
	}
	sel := 1.0
	for _, c := range expr.Conjuncts(pred) {
		sel *= e.conjunctSel(c)
	}
	return clampSel(sel)
}

func (e *Estimator) conjunctSel(c expr.Expr) float64 {
	switch n := c.(type) {
	case *expr.Cmp:
		lc, lok := n.L.(*expr.Col)
		rc, rok := n.R.(*expr.Col)
		if lok && rok {
			// Join predicates are handled in JoinSel; as a plain filter
			// (self-correlation) use the equality default.
			_ = rc
			return selEq * 10
		}
		col := lc
		if !lok {
			col, lok = n.R.(*expr.Col)
		}
		if !lok {
			return selDefault
		}
		switch n.Op {
		case expr.EQ:
			d := e.Distinct(col, 0)
			if d > 0 {
				return 1 / d
			}
			return selEq
		case expr.NE:
			d := e.Distinct(col, 0)
			if d > 1 {
				return 1 - 1/d
			}
			return 1 - selEq
		default:
			return selRange
		}
	case *expr.And:
		return e.conjunctSel(n.L) * e.conjunctSel(n.R)
	case *expr.Or:
		a, b := e.conjunctSel(n.L), e.conjunctSel(n.R)
		return clampSel(a + b - a*b)
	case *expr.Not:
		return clampSel(1 - e.conjunctSel(n.E))
	case *expr.Like:
		if n.Negated {
			return 1 - selLike
		}
		return selLike
	case *expr.In:
		sel := float64(len(n.List)) * selIn
		if col, ok := n.E.(*expr.Col); ok {
			if d := e.Distinct(col, 0); d > 0 {
				sel = float64(len(n.List)) / d
			}
		}
		if n.Negated {
			return clampSel(1 - sel)
		}
		return clampSel(sel)
	case *expr.Between:
		return selRange
	case *expr.IsNull:
		if n.Negated {
			return selNotNull
		}
		return 1 - selNotNull
	}
	return selDefault
}

// JoinSel estimates the selectivity of a join condition over the cross
// product of the inputs. Equi-joins use 1/max(distinct(l), distinct(r)).
func (e *Estimator) JoinSel(cond expr.Expr, lcard, rcard float64) float64 {
	if cond == nil {
		return 1
	}
	sel := 1.0
	for _, c := range expr.Conjuncts(cond) {
		cmp, ok := c.(*expr.Cmp)
		if !ok || cmp.Op != expr.EQ {
			sel *= e.conjunctSel(c)
			continue
		}
		lc, lok := cmp.L.(*expr.Col)
		rc, rok := cmp.R.(*expr.Col)
		if !lok || !rok {
			sel *= e.conjunctSel(c)
			continue
		}
		dl := e.Distinct(lc, math.Max(lcard, 1))
		dr := e.Distinct(rc, math.Max(rcard, 1))
		sel *= 1 / math.Max(1, math.Max(dl, dr))
	}
	return clampSel(sel)
}

// GroupCard estimates the number of groups an aggregation produces.
func (e *Estimator) GroupCard(groupBy []*expr.Col, childCard float64) float64 {
	if len(groupBy) == 0 {
		return 1
	}
	groups := 1.0
	for _, g := range groupBy {
		groups *= e.Distinct(g, math.Sqrt(math.Max(childCard, 1)))
	}
	// Cap: there cannot be more groups than input rows.
	return math.Max(1, math.Min(groups, childCard))
}

// clampSel keeps selectivities within (0, 1].
func clampSel(s float64) float64 {
	if s < 1e-9 {
		return 1e-9
	}
	if s > 1 {
		return 1
	}
	return s
}

// OperatorCost returns the phase-1 cost of executing one operator, given
// its output cardinality and its input cardinalities. Costs are abstract
// units proportional to rows processed; they deliberately ignore where
// data lives (Section 6's first phase assumes all tables are local).
func OperatorCost(kind plan.Kind, outCard float64, inCards ...float64) float64 {
	in := func(i int) float64 {
		if i < len(inCards) {
			return inCards[i]
		}
		return 0
	}
	switch kind {
	case plan.Scan, plan.TableScan:
		return outCard * cpuRow
	case plan.Filter, plan.FilterExec:
		return in(0) * cpuRow
	case plan.Project, plan.ProjectExec:
		return in(0) * outputRow
	case plan.Join, plan.HashJoin:
		// Build on the right, probe with the left.
		return in(1)*hashBuildRow + in(0)*hashProbeRow + outCard*outputRow
	case plan.NLJoin:
		return in(0)*in(1)*cpuRow*0.01 + outCard*outputRow
	case plan.Aggregate, plan.HashAgg:
		return in(0)*aggRow + outCard*outputRow
	case plan.Sort, plan.SortExec:
		n := math.Max(in(0), 2)
		return n * math.Log2(n) * sortRowLog
	case plan.Limit, plan.LimitExec:
		return outCard * outputRow
	case plan.Union, plan.UnionAll:
		total := 0.0
		for _, c := range inCards {
			total += c
		}
		return total * outputRow
	case plan.Ship:
		// Phase 1 ignores shipping; phase 2 prices it via the network
		// cost model.
		return 0
	}
	return outCard * cpuRow
}

// SetPoolBytes configures the buffer-pool budget used to discount page
// fetches in index access-path costs; 0 keeps the default (64 MiB). The
// setting is applied identically on either pager, so the chosen plan
// never depends on where the pages live.
func (e *Estimator) SetPoolBytes(b int64) { e.poolBytes = b }

// pagePrice returns the cost of touching one page of a table occupying
// tableBytes: warm (pool hit) for the resident fraction, cold for the
// rest.
func (e *Estimator) pagePrice(tableBytes float64) float64 {
	pool := float64(e.poolBytes)
	if pool <= 0 {
		pool = defaultPoolBytes
	}
	cov := 1.0
	if tableBytes > pool {
		cov = pool / tableBytes
	}
	return pageWarmCost*cov + pageFetchCost*(1-cov)
}

// btreeLevels estimates the descend depth of an index with d distinct
// keys.
func btreeLevels(d float64) float64 {
	if d < btreeFanout {
		return 1
	}
	return math.Ceil(math.Log(d) / math.Log(btreeFanout))
}

// IndexRangeSel estimates the fraction of an IndexScan's table matched
// by the index bounds alone (the residual predicate narrows further).
// Point lookups use 1/distinct; int-class ranges interpolate against the
// column's min/max statistics; everything else falls back to the range
// default.
func (e *Estimator) IndexRangeSel(n *plan.Node) float64 {
	col := expr.NewCol(n.Alias, n.IdxCol)
	if n.IdxLo != nil && n.IdxHi != nil && n.IdxLoInc && n.IdxHiInc && n.IdxLo.Equal(*n.IdxHi) {
		d := e.Distinct(col, 0)
		if d > 0 {
			return clampSel(1 / d)
		}
		return selEq
	}
	if t, ok := e.tables[strings.ToLower(n.Alias)]; ok {
		s := t.Stats(n.IdxCol)
		if !s.Min.IsNull() && !s.Max.IsNull() && intClass(s.Min.T) {
			lo, hi := float64(s.Min.I), float64(s.Max.I)
			if hi > lo {
				a, b := lo, hi
				if n.IdxLo != nil && intClass(n.IdxLo.T) {
					a = math.Max(a, float64(n.IdxLo.I))
				}
				if n.IdxHi != nil && intClass(n.IdxHi.T) {
					b = math.Min(b, float64(n.IdxHi.I))
				}
				if b < a {
					return clampSel(0)
				}
				return clampSel((b - a) / (hi - lo))
			}
		}
	}
	return selRange
}

func intClass(t expr.Type) bool {
	return t == expr.TInt || t == expr.TDate || t == expr.TBool
}

// AccessPathCost prices the index access paths. Unlike OperatorCost's
// pure per-row weights, these depend on table statistics and the
// buffer-pool budget: a descend per probe, a (possibly scattered) page
// fetch per matched row, and the residual predicate over fetched rows.
func (e *Estimator) AccessPathCost(n *plan.Node, outCard float64, inCards ...float64) float64 {
	in := func(i int) float64 {
		if i < len(inCards) {
			return inCards[i]
		}
		return 0
	}
	switch n.Kind {
	case plan.IndexScan:
		tableCard := ScanCard(n.Table, n.FragIdx)
		tableBytes := tableCard * float64(n.Table.RowWidth())
		matched := math.Max(1, tableCard*e.IndexRangeSel(n))
		tablePages := math.Max(1, tableBytes/pageSizeBytes)
		pages := math.Min(matched, tablePages)
		col := expr.NewCol(n.Alias, n.IdxCol)
		levels := btreeLevels(e.Distinct(col, math.Sqrt(math.Max(tableCard, 1))))
		return levels*btreeLevelCost + pages*e.pagePrice(tableBytes) +
			matched*(indexProbeRow+cpuRow) + outCard*outputRow
	case plan.IndexLookupJoin:
		// Children are [outer, inner TableScan]; the inner scan is never
		// executed (callers exclude its subtree cost) — each outer row
		// descends the inner index and fetches its matches.
		outer, inner := in(0), in(1)
		var t *schema.Table
		if len(n.Children) == 2 {
			t = n.Children[1].Table
		}
		rowWidth := 64.0
		if t != nil {
			rowWidth = float64(t.RowWidth())
		}
		tableBytes := inner * rowWidth
		d := math.Max(inner, 1)
		if len(n.Children) == 2 {
			d = e.Distinct(expr.NewCol(n.Children[1].Alias, n.IdxCol), d)
		}
		d = math.Max(1, d)
		perOuter := math.Max(inner/d, 1.0/8) // expected matches per probe
		levels := btreeLevels(d)
		return outer*(levels*btreeLevelCost+perOuter*(e.pagePrice(tableBytes)+indexProbeRow+cpuRow)) +
			outCard*outputRow
	}
	return OperatorCost(n.Kind, outCard, inCards...)
}

// CostFor returns the phase-1 cost of one operator, dispatching index
// access paths to the statistics-aware model and everything else to the
// pure per-row weights.
func (e *Estimator) CostFor(n *plan.Node, outCard float64, inCards ...float64) float64 {
	if n.Kind == plan.IndexScan || n.Kind == plan.IndexLookupJoin {
		return e.AccessPathCost(n, outCard, inCards...)
	}
	return OperatorCost(n.Kind, outCard, inCards...)
}

// NodeCard estimates one operator's output cardinality from its input
// cardinalities.
func (e *Estimator) NodeCard(n *plan.Node, inCards []float64) float64 {
	in := func(i int) float64 {
		if i < len(inCards) {
			return inCards[i]
		}
		return 0
	}
	switch n.Kind {
	case plan.Scan, plan.TableScan:
		return ScanCard(n.Table, n.FragIdx)
	case plan.Filter, plan.FilterExec:
		return math.Max(1, in(0)*e.FilterSel(n.Pred))
	case plan.Project, plan.ProjectExec, plan.Sort, plan.SortExec:
		return in(0)
	case plan.IndexScan:
		// Same estimate as the Filter(Scan) it implements: the index
		// bounds are conjuncts of the residual predicate.
		return math.Max(1, ScanCard(n.Table, n.FragIdx)*e.FilterSel(n.Pred))
	case plan.Join, plan.HashJoin, plan.NLJoin, plan.IndexLookupJoin:
		return math.Max(1, in(0)*in(1)*e.JoinSel(n.Pred, in(0), in(1)))
	case plan.Aggregate, plan.HashAgg:
		return e.GroupCard(n.GroupBy, in(0))
	case plan.Limit, plan.LimitExec:
		return math.Min(in(0), float64(n.LimitN))
	case plan.Union, plan.UnionAll:
		total := 0.0
		for _, c := range inCards {
			total += c
		}
		return total
	case plan.Ship:
		return in(0)
	}
	return in(0)
}
