// Package optimizer implements the compliance-based two-phase optimizer
// of Section 6: a normalization pre-pass (filter pushdown, column
// pruning, fragment expansion), the plan annotator (phase 1, Section 6.2)
// built on the memo, the dynamic-programming site selector (phase 2,
// Section 6.3, Algorithm 2), and a compliance checker that validates any
// located plan against Definition 1.
package optimizer

import (
	"slices"
	"strings"

	"cgdqp/internal/expr"
	"cgdqp/internal/plan"
)

// Normalize canonicalizes a bound logical plan before memo insertion:
//
//  1. scans of fragmented tables expand into unions of per-fragment scans
//     (the GAV rewrite t = t1 ∪ ... ∪ tn of Section 7.5);
//  2. filter predicates push down to the deepest operator that covers
//     their columns, turning cross products into joins; on the way, a
//     join's column equalities carry each single-column comparison with
//     a constant across to the columns it equates (predicate transfer);
//  3. column pruning inserts projections above each leaf so that only
//     attributes the query actually uses travel upward — this is the
//     masking-via-projection the compliant plans of Figure 1(b) rely on.
func Normalize(root *plan.Node) *plan.Node {
	root = expandFragments(root)
	root = pushFilters(root, nil)
	root = pruneColumns(root)
	return root
}

// expandFragments rewrites whole-table scans of fragmented tables into
// unions of per-fragment scans.
func expandFragments(n *plan.Node) *plan.Node {
	for i, c := range n.Children {
		n.Children[i] = expandFragments(c)
	}
	if n.Kind == plan.Scan && n.FragIdx < 0 && n.Table.Fragmented() {
		scans := make([]*plan.Node, len(n.Table.Fragments))
		for i := range n.Table.Fragments {
			scans[i] = plan.NewScan(n.Table, n.Alias, i)
		}
		return plan.NewUnion(scans...)
	}
	return n
}

// pushFilters distributes the given conjuncts (plus any Filter operators
// encountered) down the tree.
func pushFilters(n *plan.Node, conjuncts []expr.Expr) *plan.Node {
	switch n.Kind {
	case plan.Filter:
		return pushFilters(n.Children[0], append(append([]expr.Expr{}, conjuncts...), expr.Conjuncts(n.Pred)...))

	case plan.Join:
		pool := append(append([]expr.Expr{}, conjuncts...), expr.Conjuncts(n.Pred)...)
		pool = transfer(n, pool)
		var left, right, here []expr.Expr
		l, r := n.Children[0], n.Children[1]
		for _, c := range pool {
			switch {
			case coveredBy(c, l):
				left = append(left, c)
			case coveredBy(c, r):
				right = append(right, c)
			default:
				here = append(here, c)
			}
		}
		n.Children[0] = pushFilters(l, left)
		n.Children[1] = pushFilters(r, right)
		n.Pred = expr.AndAll(here...)
		return n

	case plan.Union:
		for i, c := range n.Children {
			n.Children[i] = pushFilters(c, cloneConjuncts(conjuncts))
		}
		return n

	case plan.Project:
		// Push through when every conjunct column is a pass-through
		// column of the projection; otherwise filter above.
		var passable, blocked []expr.Expr
		for _, c := range conjuncts {
			if rewritten, ok := throughProject(c, n); ok {
				passable = append(passable, rewritten)
			} else {
				blocked = append(blocked, c)
			}
		}
		n.Children[0] = pushFilters(n.Children[0], passable)
		return wrapFilter(n, blocked)

	case plan.Sort, plan.Limit:
		// LIMIT changes semantics under filters: keep conjuncts above.
		if n.Kind == plan.Limit {
			n.Children[0] = pushFilters(n.Children[0], nil)
			return wrapFilter(n, conjuncts)
		}
		n.Children[0] = pushFilters(n.Children[0], conjuncts)
		return n

	case plan.Aggregate:
		// Conjuncts over grouping columns could push below; conjuncts
		// over aggregates cannot. Keep all above for simplicity (the
		// binder does not produce HAVING yet, so this arises only from
		// derived tables).
		n.Children[0] = pushFilters(n.Children[0], nil)
		return wrapFilter(n, conjuncts)

	default: // Scan and anything else: wrap.
		for i, c := range n.Children {
			n.Children[i] = pushFilters(c, nil)
		}
		return wrapFilter(n, conjuncts)
	}
}

// transfer appends to pool the conjuncts its column equalities imply.
// Every join here is an inner join, so a row that survives c1 = c2 has
// equal, non-NULL values in both columns: a comparison of c1 with a
// constant (=, <, <=, >, >=), a BETWEEN or a non-negated IN holds for c2
// as well, when the two have the same type. Equalities are closed
// transitively over n's columns, and a copy already in the pool is not
// added again, so the joins below, which see the copies, add nothing.
// A pool where no such conjunct's column is equated to another is
// returned untouched, without allocating.
func transfer(n *plan.Node, pool []expr.Expr) []expr.Expr {
	if !equated(pool) {
		return pool
	}
	class := make([]int, len(n.Cols)) // union-find over n's columns
	for i := range class {
		class[i] = i
	}
	find := func(i int) int {
		for class[i] != i {
			class[i] = class[class[i]]
			i = class[i]
		}
		return i
	}
	for _, c := range pool {
		if l, r, ok := colEquality(c); ok {
			if li, ri := n.ColIndex(l), n.ColIndex(r); li >= 0 && ri >= 0 {
				class[find(li)] = find(ri)
			}
		}
	}
	for _, c := range pool { // copies appended below are not revisited
		col := transferCol(c)
		if col == nil {
			continue
		}
		ci := n.ColIndex(col)
		if ci < 0 {
			continue
		}
		for j, cr := range n.Cols {
			if j == ci || cr.Type != n.Cols[ci].Type || find(j) != find(ci) {
				continue
			}
			cp := expr.Transform(c, func(x expr.Expr) expr.Expr {
				if _, ok := x.(*expr.Col); ok {
					return cr.Col()
				}
				return x
			})
			if !slices.ContainsFunc(pool, cp.Equal) {
				pool = append(pool, cp)
			}
		}
	}
	return pool
}

// equated reports whether the column of some conjunct transfer may
// copy is one side of a column equality in the pool.
func equated(pool []expr.Expr) bool {
	for _, c := range pool {
		col := transferCol(c)
		if col == nil {
			continue
		}
		for _, e := range pool {
			if l, r, ok := colEquality(e); ok && (sameCol(l, col) || sameCol(r, col)) {
				return true
			}
		}
	}
	return false
}

// sameCol matches two column references by qualifier and name,
// ignoring case.
func sameCol(a, b *expr.Col) bool {
	return strings.EqualFold(a.Name, b.Name) && strings.EqualFold(a.Table, b.Table)
}

// colEquality matches a conjunct of the form col = col.
func colEquality(c expr.Expr) (l, r *expr.Col, ok bool) {
	cmp, isCmp := c.(*expr.Cmp)
	if !isCmp || cmp.Op != expr.EQ {
		return nil, nil, false
	}
	l, lok := cmp.L.(*expr.Col)
	r, rok := cmp.R.(*expr.Col)
	return l, r, lok && rok
}

// transferCol returns the column of a conjunct predicate transfer may
// copy — col op const (either order, op not <>), col BETWEEN lo AND hi,
// col IN (list) — or nil.
func transferCol(c expr.Expr) *expr.Col {
	switch x := c.(type) {
	case *expr.Cmp:
		if x.Op == expr.NE {
			return nil
		}
		if col, ok := x.L.(*expr.Col); ok {
			if _, k := x.R.(*expr.Const); k {
				return col
			}
		}
		if col, ok := x.R.(*expr.Col); ok {
			if _, k := x.L.(*expr.Const); k {
				return col
			}
		}
	case *expr.Between:
		if col, ok := x.E.(*expr.Col); ok {
			return col
		}
	case *expr.In:
		if col, ok := x.E.(*expr.Col); ok && !x.Negated {
			return col
		}
	}
	return nil
}

func wrapFilter(n *plan.Node, conjuncts []expr.Expr) *plan.Node {
	if pred := expr.AndAll(conjuncts...); pred != nil {
		return plan.NewFilter(n, pred)
	}
	return n
}

func cloneConjuncts(cs []expr.Expr) []expr.Expr {
	out := make([]expr.Expr, len(cs))
	for i, c := range cs {
		out[i] = expr.Clone(c)
	}
	return out
}

// coveredBy reports whether every column of e resolves in n's schema.
func coveredBy(e expr.Expr, n *plan.Node) bool {
	ok := true
	expr.Walk(e, func(x expr.Expr) bool {
		if c, isCol := x.(*expr.Col); isCol {
			if n.ColIndex(c) < 0 {
				ok = false
			}
		}
		return ok
	})
	return ok
}

// throughProject rewrites a conjunct in terms of the projection's input,
// when every referenced column is a pass-through column.
func throughProject(e expr.Expr, proj *plan.Node) (expr.Expr, bool) {
	ok := true
	out := expr.Transform(e, func(x expr.Expr) expr.Expr {
		c, isCol := x.(*expr.Col)
		if !isCol || !ok {
			return x
		}
		for i, cr := range proj.Cols {
			if strings.EqualFold(cr.Name, c.Name) && (c.Table == "" || strings.EqualFold(cr.Table, c.Table)) {
				if src, isSrc := proj.Projs[i].E.(*expr.Col); isSrc {
					return &expr.Col{Table: src.Table, Name: src.Name, Index: -1}
				}
				ok = false
				return x
			}
		}
		ok = false
		return x
	})
	if !ok {
		return nil, false
	}
	return out, true
}

// pruneColumns inserts pruning projections above each leaf's filter stack
// so that only columns referenced anywhere else in the plan survive.
func pruneColumns(root *plan.Node) *plan.Node {
	// Collect used columns per alias from every expression in the tree,
	// except predicates of scan-local filters (they evaluate below the
	// inserted projection).
	used := map[string]map[string]bool{} // alias -> column -> true
	addCol := func(c *expr.Col) {
		if c.Table == "" {
			return
		}
		key := strings.ToLower(c.Table)
		if used[key] == nil {
			used[key] = map[string]bool{}
		}
		used[key][strings.ToLower(c.Name)] = true
	}
	addExpr := func(e expr.Expr) {
		for _, c := range expr.Columns(e) {
			addCol(c)
		}
	}
	// The query's output columns are used: a SELECT list equal to its
	// scope's columns binds without a top Project to count them.
	for _, cr := range root.Cols {
		addCol(cr.Col())
	}
	root.Walk(func(n *plan.Node) bool {
		switch n.Kind {
		case plan.Filter:
			if !isScanLocalFilter(n) {
				addExpr(n.Pred)
			}
		case plan.Join:
			addExpr(n.Pred)
		case plan.Project:
			for _, p := range n.Projs {
				addExpr(p.E)
			}
		case plan.Aggregate:
			for _, g := range n.GroupBy {
				addCol(g)
			}
			for _, a := range n.Aggs {
				if a.Arg != nil {
					addExpr(a.Arg)
				}
			}
		case plan.Sort:
			for _, k := range n.SortKeys {
				addExpr(k.E)
			}
		}
		return true
	})
	return insertPrunes(root, used)
}

// isScanLocalFilter reports whether the filter sits directly above a scan
// (possibly through other scan-local filters) and references only that
// scan's alias.
func isScanLocalFilter(n *plan.Node) bool {
	c := n.Children[0]
	for c.Kind == plan.Filter {
		c = c.Children[0]
	}
	if c.Kind != plan.Scan {
		return false
	}
	return coveredBy(n.Pred, c)
}

// insertPrunes wraps each leaf stack (scan plus local filters) with a
// projection keeping only used columns.
func insertPrunes(n *plan.Node, used map[string]map[string]bool) *plan.Node {
	if n.Kind == plan.Scan || n.Kind == plan.Filter && isScanLocalFilter(n) {
		scan := n
		for scan.Kind == plan.Filter {
			scan = scan.Children[0]
		}
		keep := used[strings.ToLower(scan.Alias)]
		var projs []plan.NamedExpr
		for _, cr := range scan.Cols {
			if keep[strings.ToLower(cr.Name)] {
				projs = append(projs, plan.NamedExpr{E: cr.Col(), Name: cr.Name, Type: cr.Type})
			}
		}
		if len(projs) == 0 {
			// Keep one column so rows retain identity.
			cr := scan.Cols[0]
			projs = []plan.NamedExpr{{E: cr.Col(), Name: cr.Name, Type: cr.Type}}
		}
		if len(projs) == len(scan.Cols) {
			return n // nothing to prune
		}
		return plan.NewProject(n, projs)
	}
	for i, c := range n.Children {
		n.Children[i] = insertPrunes(c, used)
	}
	return n
}
