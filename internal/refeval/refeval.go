// Package refeval is the system's independent reference evaluator. It
// answers a query row at a time from its bound logical plan — the tree
// sqlparse.ParseAndBind returns, before normalization, the memo,
// compliance rewrites and site selection — over the rows
// Cluster.FragmentRows reads, with nested loops, sort-based grouping and
// expr's row interpreter. It shares no code with the executor: no sites,
// batches, kernels or caches. Tests judge the engine by it; it is not
// on any serving path.
//
// Physical plans evaluate too, each operator read as the logical one it
// implements (a Ship as its input, an index scan as the filter it
// serves, every join as a join), so hand-built executor plans have the
// same reference.
package refeval

import (
	"cmp"
	"fmt"
	"math"
	"sort"

	"cgdqp/internal/cluster"
	"cgdqp/internal/expr"
	"cgdqp/internal/plan"
	"cgdqp/internal/schema"
	"cgdqp/internal/sqlparse"
)

// Query parses and binds sql against cat and evaluates the bound plan
// over c's stored rows.
func Query(sql string, cat *schema.Catalog, c *cluster.Cluster) ([]expr.Row, error) {
	p, err := sqlparse.ParseAndBind(sql, cat)
	if err != nil {
		return nil, err
	}
	return Eval(p, c)
}

// Eval evaluates plan n over c's stored rows.
func Eval(n *plan.Node, c *cluster.Cluster) ([]expr.Row, error) {
	switch n.Kind {
	case plan.Scan, plan.TableScan:
		return scan(n, c)
	case plan.IndexScan:
		rows, err := scan(n, c)
		if err != nil {
			return nil, err
		}
		return filter(rows, n.Pred, n)
	case plan.Filter, plan.FilterExec:
		if isJoin(n.Children[0]) {
			return join(n.Children[0], n.Pred, c)
		}
		rows, err := Eval(n.Children[0], c)
		if err != nil {
			return nil, err
		}
		return filter(rows, n.Pred, n.Children[0])
	case plan.Join, plan.HashJoin, plan.NLJoin, plan.IndexLookupJoin:
		return join(n, nil, c)
	case plan.Project, plan.ProjectExec:
		return project(n, c)
	case plan.Aggregate, plan.HashAgg:
		return aggregate(n, c)
	case plan.Sort, plan.SortExec:
		return sortRows(n, c)
	case plan.Limit, plan.LimitExec:
		rows, err := Eval(n.Children[0], c)
		if err != nil || int64(len(rows)) <= n.LimitN {
			return rows, err
		}
		return rows[:n.LimitN], nil
	case plan.Union, plan.UnionAll:
		var out []expr.Row
		for _, ch := range n.Children {
			rows, err := Eval(ch, c)
			if err != nil {
				return nil, err
			}
			out = append(out, rows...)
		}
		return out, nil
	case plan.Ship:
		return Eval(n.Children[0], c)
	}
	return nil, fmt.Errorf("refeval: unsupported operator %s", n.Kind)
}

// scan reads a table's fragment, or every fragment of a whole-table
// scan.
func scan(n *plan.Node, c *cluster.Cluster) ([]expr.Row, error) {
	if n.FragIdx >= 0 || !n.Table.Fragmented() {
		return c.FragmentRows(n.Table, n.FragIdx)
	}
	var out []expr.Row
	for i := range n.Table.Fragments {
		rows, err := c.FragmentRows(n.Table, i)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
}

// bind binds e against the output columns of scope.
func bind(e expr.Expr, scope *plan.Node) (expr.Expr, error) {
	keys := make([]string, len(scope.Cols))
	for i, col := range scope.Cols {
		keys[i] = col.Key()
	}
	b, err := expr.Bind(e, expr.SliceResolver(keys))
	if err != nil {
		return nil, fmt.Errorf("refeval: %w", err)
	}
	return b, nil
}

func filter(rows []expr.Row, pred expr.Expr, scope *plan.Node) ([]expr.Row, error) {
	p, err := bind(pred, scope)
	if err != nil {
		return nil, err
	}
	var out []expr.Row
	for _, r := range rows {
		keep, err := expr.EvalBool(p, r)
		if err != nil {
			return nil, err
		}
		if keep {
			out = append(out, r)
		}
	}
	return out, nil
}

func project(n *plan.Node, c *cluster.Cluster) ([]expr.Row, error) {
	exprs := make([]expr.Expr, len(n.Projs))
	for i, p := range n.Projs {
		exprs[i] = p.E
	}
	ks, err := keyRows(n.Children[0], exprs, c)
	out := make([]expr.Row, len(ks))
	for i, k := range ks {
		out[i] = k.vals
	}
	return out, err
}

// keyed is an input row with the values of some expressions over it.
type keyed struct{ row, vals expr.Row }

// keyRows evaluates in and, over each of its rows, exprs bound against
// its columns.
func keyRows(in *plan.Node, exprs []expr.Expr, c *cluster.Cluster) ([]keyed, error) {
	rows, err := Eval(in, c)
	if err != nil {
		return nil, err
	}
	bound := make([]expr.Expr, len(exprs))
	for i, e := range exprs {
		if bound[i], err = bind(e, in); err != nil {
			return nil, err
		}
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		ks[i] = keyed{row: r, vals: make(expr.Row, len(bound))}
		for j, e := range bound {
			if ks[i].vals[j], err = expr.Eval(e, r); err != nil {
				return nil, err
			}
		}
	}
	return ks, nil
}

func isJoin(n *plan.Node) bool {
	switch n.Kind {
	case plan.Join, plan.HashJoin, plan.NLJoin, plan.IndexLookupJoin:
		return true
	}
	return false
}

// conjunct is one AND-term of a join tree's condition, bound against
// the concatenated row of all the tree's inputs; lo and hi are the
// lowest and highest column it reads (-1: none).
type conjunct struct {
	e      expr.Expr
	lo, hi int
}

// join evaluates the join tree rooted at n, with the extra predicate
// pred over its output, as nested loops over its inputs in order. Each
// conjunct runs as soon as the inputs it reads are joined — on one
// input alone when it reads only that one — and a column = column
// conjunct between the joined prefix and the next input picks that
// input's candidate rows by value instead of by a scan.
func join(n *plan.Node, pred expr.Expr, c *cluster.Cluster) ([]expr.Row, error) {
	var inputs []*plan.Node
	var conds []conjunct
	var walk func(m *plan.Node, off int) error
	walk = func(m *plan.Node, off int) error {
		if !isJoin(m) {
			inputs = append(inputs, m)
			return nil
		}
		cond := m.Pred
		if m.Kind == plan.IndexLookupJoin {
			inner := m.Children[1]
			cond = expr.AndAll(cond, expr.NewCmp(expr.EQ, m.IdxOuter, expr.NewCol(inner.Alias, m.IdxCol)))
		}
		if err := addConjuncts(&conds, cond, m, off); err != nil {
			return err
		}
		if err := walk(m.Children[0], off); err != nil {
			return err
		}
		return walk(m.Children[1], off+len(m.Children[0].Cols))
	}
	if err := walk(n, 0); err != nil {
		return nil, err
	}
	if err := addConjuncts(&conds, pred, n, 0); err != nil {
		return nil, err
	}

	width := len(n.Cols)
	ends := make([]int, len(inputs)) // input k's columns end at ends[k]
	rows := make([][]expr.Row, len(inputs))
	for k, in := range inputs {
		ends[k] = len(in.Cols)
		if k > 0 {
			ends[k] += ends[k-1]
		}
		var err error
		if rows[k], err = Eval(in, c); err != nil {
			return nil, err
		}
	}
	inputOf := func(col int) int { return sort.SearchInts(ends, col+1) }
	local := make([][]expr.Expr, len(inputs))
	steps := make([][]conjunct, len(inputs))
	for _, cj := range conds {
		k := inputOf(max(cj.hi, 0))
		if cj.lo >= 0 && inputOf(cj.lo) == k {
			local[k] = append(local[k], cj.e)
		} else {
			steps[k] = append(steps[k], cj)
		}
	}

	// Local conjuncts filter each input, read through a full-width row.
	scratch := make(expr.Row, width)
	for k := range inputs {
		start := ends[k] - len(inputs[k].Cols)
		var kept []expr.Row
	rowLoop:
		for _, r := range rows[k] {
			copy(scratch[start:], r)
			for _, e := range local[k] {
				keep, err := expr.EvalBool(e, scratch)
				if err != nil {
					return nil, err
				}
				if !keep {
					continue rowLoop
				}
			}
			kept = append(kept, r)
		}
		rows[k] = kept
	}

	// Conjuncts that read no column decide for every row.
	if ok, err := holds(steps[0], nil); err != nil || !ok {
		return nil, err
	}
	acc := rows[0]
	for k := 1; k < len(inputs); k++ {
		start := ends[k-1]
		all := make([]int, len(rows[k]))
		for i := range all {
			all[i] = i
		}
		probe, idx := -1, map[string][]int(nil)
		for _, cj := range steps[k] {
			if l, r, ok := crossEq(cj.e, start, ends[k]); ok {
				probe, idx = l, make(map[string][]int)
				for i, row := range rows[k] {
					if key, ok := eqKey(row[r-start]); ok {
						idx[key] = append(idx[key], i)
					}
				}
				break
			}
		}
		var next []expr.Row
		for _, a := range acc {
			cands := all
			if probe >= 0 {
				key, ok := eqKey(a[probe])
				if !ok {
					continue
				}
				cands = idx[key]
			}
			for _, i := range cands {
				row := append(append(make(expr.Row, 0, ends[k]), a...), rows[k][i]...)
				ok, err := holds(steps[k], row)
				if err != nil {
					return nil, err
				}
				if ok {
					next = append(next, row)
				}
			}
		}
		acc = next
	}
	return acc, nil
}

// addConjuncts binds cond against scope's columns, which start at
// column off of the join tree's concatenated row, and appends its
// AND-terms.
func addConjuncts(conds *[]conjunct, cond expr.Expr, scope *plan.Node, off int) error {
	if cond == nil {
		return nil
	}
	b, err := bind(cond, scope)
	if err != nil {
		return err
	}
	for _, e := range expr.Conjuncts(b) {
		cj := conjunct{lo: -1, hi: -1}
		cj.e = expr.Transform(e, func(x expr.Expr) expr.Expr {
			if col, ok := x.(*expr.Col); ok {
				col.Index += off
				if cj.lo < 0 || col.Index < cj.lo {
					cj.lo = col.Index
				}
				cj.hi = max(cj.hi, col.Index)
			}
			return x
		})
		*conds = append(*conds, cj)
	}
	return nil
}

// holds reports whether every conjunct is TRUE on row.
func holds(conds []conjunct, row expr.Row) (bool, error) {
	for _, cj := range conds {
		ok, err := expr.EvalBool(cj.e, row)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// crossEq reads e as column = column between the prefix (columns
// before start) and the input at [start, end): l is the prefix column,
// r the input's.
func crossEq(e expr.Expr, start, end int) (l, r int, ok bool) {
	cmp, isCmp := e.(*expr.Cmp)
	if !isCmp || cmp.Op != expr.EQ {
		return 0, 0, false
	}
	a, aok := cmp.L.(*expr.Col)
	b, bok := cmp.R.(*expr.Col)
	if !aok || !bok {
		return 0, 0, false
	}
	l, r = a.Index, b.Index
	if l > r {
		l, r = r, l
	}
	return l, r, l < start && r >= start && r < end
}

// eqKey is a lookup key under which equal values coincide: numbers in
// float space (−0 equals 0 there), strings and booleans as themselves.
// NULL, which equals nothing, has none.
func eqKey(v expr.Value) (string, bool) {
	switch {
	case v.IsNull():
		return "", false
	case v.T == expr.TString:
		return "s" + v.S, true
	case v.T == expr.TBool:
		return fmt.Sprintf("b%d", v.I), true
	}
	f := v.Float()
	if f == 0 {
		f = 0 // −0 too
	}
	return fmt.Sprintf("n%x", math.Float64bits(f)), true
}

// aggregate groups by sorting the rows on their group keys under
// compare (a stable sort: each group keeps its rows' input order) and
// folds each run of equal keys.
func aggregate(n *plan.Node, c *cluster.Cluster) ([]expr.Row, error) {
	keys := make([]expr.Expr, len(n.GroupBy))
	for i, g := range n.GroupBy {
		keys[i] = g
	}
	ks, err := keyRows(n.Children[0], keys, c)
	if err != nil {
		return nil, err
	}
	args := make([]expr.Expr, len(n.Aggs))
	for i, a := range n.Aggs {
		if a.Arg != nil {
			if args[i], err = bind(a.Arg, n.Children[0]); err != nil {
				return nil, err
			}
		}
	}
	sort.SliceStable(ks, func(i, j int) bool { return compareRows(ks[i].vals, ks[j].vals, nil, &err) < 0 })
	var out []expr.Row
	// A global aggregation is one group, of no rows perhaps.
	for lo, hi := 0, 0; lo < len(ks) || len(keys) == 0 && out == nil; lo = hi {
		for hi = lo + 1; hi < len(ks) && compareRows(ks[hi].vals, ks[lo].vals, nil, &err) == 0; hi++ {
		}
		hi = min(hi, len(ks))
		var row expr.Row
		if len(keys) > 0 {
			row = append(row, ks[lo].vals...)
		}
		for i, a := range n.Aggs {
			var vals []expr.Value
			for _, k := range ks[lo:hi] {
				v := expr.NewInt(1) // COUNT(*) counts rows
				if args[i] != nil {
					if v, err = expr.Eval(args[i], k.row); err != nil {
						return nil, err
					}
				}
				vals = append(vals, v)
			}
			agg, err := fold(a.Fn, vals)
			if err != nil {
				return nil, err
			}
			row = append(row, agg)
		}
		out = append(out, row)
	}
	return out, err
}

// fold computes one aggregate over a group's argument values. NULLs
// are skipped; SUM stays integral while every value is an integer,
// date or boolean; an empty SUM or AVG is a DOUBLE NULL, an empty MIN
// or MAX an untyped one. A float SUM or AVG over +Inf and −Inf is no
// real and has no DOUBLE: an error, so that no plan can read it as a
// NULL its final SUM skips; a −0 one is 0.
func fold(fn expr.AggFn, vals []expr.Value) (expr.Value, error) {
	var n, sumI int64
	var sumF float64
	integral := true
	var best expr.Value
	for _, v := range vals {
		if v.IsNull() {
			continue
		}
		n++
		switch v.T {
		case expr.TInt, expr.TDate, expr.TBool:
			sumI += v.Int()
			sumF += float64(v.Int())
		default:
			integral = false
			sumF += v.Float()
		}
		if n == 1 {
			best = v
			continue
		}
		c, err := compare(v, best)
		if err != nil {
			return expr.Value{}, err
		}
		if fn == expr.AggMin && c < 0 || fn == expr.AggMax && c > 0 {
			best = v
		}
	}
	switch fn {
	case expr.AggCount:
		return expr.NewInt(n), nil
	case expr.AggSum, expr.AggAvg:
		switch {
		case n == 0:
			return expr.TypedNull(expr.TFloat), nil
		case fn == expr.AggAvg:
			sumF /= float64(n)
		case integral:
			return expr.NewInt(sumI), nil
		}
		if math.IsNaN(sumF) {
			return expr.Value{}, fmt.Errorf("refeval: %v sums +Inf and -Inf, which no DOUBLE holds", fn)
		}
		return expr.NewFloat(sumF + 0), nil // + 0: an AVG of tiny negatives may be −0
	}
	if n == 0 {
		return expr.NullValue(), nil
	}
	return best, nil
}

// sortRows stably sorts on the keys under compare: NULLs first
// ascending, last descending.
func sortRows(n *plan.Node, c *cluster.Cluster) ([]expr.Row, error) {
	keys := make([]expr.Expr, len(n.SortKeys))
	for i, k := range n.SortKeys {
		keys[i] = k.E
	}
	ks, err := keyRows(n.Children[0], keys, c)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(ks, func(i, j int) bool { return compareRows(ks[i].vals, ks[j].vals, n.SortKeys, &err) < 0 })
	out := make([]expr.Row, len(ks))
	for i, k := range ks {
		out[i] = k.row
	}
	return out, err
}

// compareRows orders two rows of keys lexicographically under compare,
// key k descending when keys[k] says so; the first error is kept in
// *err.
func compareRows(a, b expr.Row, keys []plan.SortKey, err *error) int {
	for k := range a {
		c, cerr := compare(a[k], b[k])
		if cerr != nil && *err == nil {
			*err = cerr
		}
		if keys != nil && keys[k].Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// compare orders two values by the definitions the engine must meet,
// written out here rather than taken from expr: NULL before every value
// and equal to NULL; strings bytewise; FALSE before TRUE; INTs and
// DATEs against each other as integers; other numbers as reals, where
// −0 is 0 and a DOUBLE is never NaN — a NaN is an error, as is a pair
// of values that do not order against each other.
func compare(a, b expr.Value) (int, error) {
	switch {
	case a.IsNull() && b.IsNull():
		return 0, nil
	case a.IsNull():
		return -1, nil
	case b.IsNull():
		return 1, nil
	case a.T == expr.TString && b.T == expr.TString:
		return cmp.Compare(a.S, b.S), nil
	case a.T == expr.TBool && b.T == expr.TBool:
		return cmp.Compare(a.I, b.I), nil
	case !a.T.Numeric() || !b.T.Numeric():
		return 0, fmt.Errorf("refeval: %w: %s against %s", expr.ErrIncomparable, a.T, b.T)
	case a.T != expr.TFloat && b.T != expr.TFloat:
		return cmp.Compare(a.I, b.I), nil
	case math.IsNaN(a.Float()) || math.IsNaN(b.Float()):
		return 0, fmt.Errorf("refeval: NaN is no DOUBLE")
	}
	return cmp.Compare(a.Float(), b.Float()), nil
}
