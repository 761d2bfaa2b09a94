// Package rules implements the algebraic transformation rules the
// compliance-based optimizer feeds to the memo's rule engine (the
// "transformation rules" box of Figure 3): join commutativity, join
// associativity with predicate redistribution, and aggregation pushdown
// past joins — the rule Section 6.4 identifies as necessary for the
// optimizer to find compliant plans like Figure 1(b).
package rules

import (
	"strings"

	"cgdqp/internal/expr"
	"cgdqp/internal/memo"
	"cgdqp/internal/plan"
)

// JoinUnionDistribute implements Join(Union(f1..fk), R) →
// Union(Join(f1,R), ..., Join(fk,R)) (and symmetrically on the right).
// It lets queries over horizontally fragmented tables (Section 7.5's GAV
// rewrite t = t1 ∪ ... ∪ tn) join each fragment at its own site before
// combining results.
type JoinUnionDistribute struct{}

// Name identifies the rule.
func (JoinUnionDistribute) Name() string { return "JoinUnionDistribute" }

// Apply distributes the join over every Union expression newly found in
// either child group.
func (JoinUnionDistribute) Apply(m *memo.Memo, e *memo.MExpr, from [2]int) []*memo.NewExpr {
	if e.Op.Kind != plan.Join {
		return nil
	}
	var out []*memo.NewExpr
	for side := 0; side < 2; side++ {
		other := e.Children[1-side]
		for _, u := range e.Children[side].Exprs[from[side]:] {
			if u.Op.Kind != plan.Union {
				continue
			}
			branches := make([]any, len(u.Children))
			for i, frag := range u.Children {
				kids := make([]any, 2)
				kids[side] = frag
				kids[1-side] = other
				branches[i] = &memo.NewExpr{Op: joinOp(e.Op.Pred), Children: kids}
			}
			out = append(out, &memo.NewExpr{
				Op:       &plan.Node{Kind: plan.Union},
				Children: branches,
			})
		}
	}
	return out
}

// colsCovered reports whether every column referenced by e appears in the
// group's output schema.
func colsCovered(m *memo.Memo, e expr.Expr, g *memo.Group) bool {
	for _, c := range m.ColsOf(e) {
		if !groupHasCol(g, c) {
			return false
		}
	}
	return true
}

func groupHasCol(g *memo.Group, c *expr.Col) bool {
	for _, cr := range g.Cols {
		if strings.EqualFold(cr.Name, c.Name) && (c.Table == "" || strings.EqualFold(cr.Table, c.Table)) {
			return true
		}
	}
	return false
}

func colsCoveredBy2(m *memo.Memo, e expr.Expr, a, b *memo.Group) bool {
	for _, c := range m.ColsOf(e) {
		if !groupHasCol(a, c) && !groupHasCol(b, c) {
			return false
		}
	}
	return true
}

// joinOp builds a logical join operator node (children live in the memo).
func joinOp(cond expr.Expr) *plan.Node {
	return &plan.Node{Kind: plan.Join, Pred: cond}
}

// JoinCommute implements Join(A, B) → Join(B, A).
type JoinCommute struct{}

// Name identifies the rule.
func (JoinCommute) Name() string { return "JoinCommute" }

// Apply produces the commuted join. It binds no child expression, so the
// first application is the only one that yields anything.
func (JoinCommute) Apply(m *memo.Memo, e *memo.MExpr, from [2]int) []*memo.NewExpr {
	if e.Op.Kind != plan.Join || from[0] > 0 {
		return nil
	}
	return []*memo.NewExpr{{
		Op:       joinOp(e.Op.Pred),
		Children: []any{e.Children[1], e.Children[0]},
	}}
}

// JoinAssoc implements (A ⋈ B) ⋈ C → A ⋈ (B ⋈ C), redistributing the
// combined conjuncts: conjuncts covered by B ∪ C move to the inner join,
// the rest stay at the outer join. The rule refuses to create Cartesian
// products it did not start with (no inner conjuncts and a non-empty
// original condition).
type JoinAssoc struct{}

// Name identifies the rule.
func (JoinAssoc) Name() string { return "JoinAssoc" }

// Apply produces the re-associated join for every Join expression new in
// the left child group.
func (JoinAssoc) Apply(m *memo.Memo, e *memo.MExpr, from [2]int) []*memo.NewExpr {
	if e.Op.Kind != plan.Join {
		return nil
	}
	var out []*memo.NewExpr
	left := e.Children[0]
	gC := e.Children[1]
	for _, inner := range left.Exprs[from[0]:] {
		if inner.Op.Kind != plan.Join {
			continue
		}
		gA, gB := inner.Children[0], inner.Children[1]
		ci, ce := m.Conjuncts(inner.Op.Pred), m.Conjuncts(e.Op.Pred)
		all := make([]expr.Expr, 0, len(ci)+len(ce))
		all = append(append(all, ci...), ce...)
		var innerConj, outerConj []expr.Expr
		for _, c := range all {
			if colsCoveredBy2(m, c, gB, gC) {
				innerConj = append(innerConj, c)
			} else {
				outerConj = append(outerConj, c)
			}
		}
		// Avoid introducing a Cartesian product between B and C.
		if len(innerConj) == 0 && len(all) > 0 {
			continue
		}
		out = append(out, &memo.NewExpr{
			Op: joinOp(expr.AndAll(outerConj...)),
			Children: []any{
				gA,
				&memo.NewExpr{Op: joinOp(expr.AndAll(innerConj...)), Children: []any{gB, gC}},
			},
		})
	}
	return out
}

// AggPushdown implements eager aggregation (Yan–Larson style):
//
//	Γ_{G; F}(L ⋈_p R)  →  Γ_{G; F'}(L ⋈_p Γ_{G_R; F_partial}(R))
//
// where G_R = (G ∩ cols(R)) ∪ (cols(p) ∩ cols(R)). The rewrite is valid
// when every pushed aggregate is decomposable (SUM, MIN, MAX, COUNT) and
// either (a) every aggregate argument references only R, or (b) the mixed
// case: the partial group-by equals R's join-key columns, so each L row
// matches at most one partial row and L-side aggregates keep their
// multiplicity. Case (b) is exactly the rewrite that turns Figure 1(a)'s
// rejected shape into the compliant plan of Figure 1(b), where the
// Supply data is aggregated per order before crossing the border.
//
// The symmetric L-side pushdown is reachable through JoinCommute.
type AggPushdown struct{}

// Name identifies the rule.
func (AggPushdown) Name() string { return "AggPushdown" }

// partialPrefix marks generated partial-aggregate column names; the rule
// refuses to push an aggregate of a partial again (which would otherwise
// derive unboundedly deep partial chains).
const partialPrefix = "_p_"

// Apply produces the eager-aggregation rewrite for every Join expression
// new in the child group.
func (AggPushdown) Apply(m *memo.Memo, e *memo.MExpr, from [2]int) []*memo.NewExpr {
	if e.Op.Kind != plan.Aggregate || len(e.Children) != 1 {
		return nil
	}
	for _, a := range e.Op.Aggs {
		if !decomposable(a.Fn) {
			return nil
		}
		if a.Arg != nil && argTouchesPartial(m, a.Arg) {
			return nil
		}
	}
	var out []*memo.NewExpr
	for _, join := range e.Children[0].Exprs[from[0]:] {
		if join.Op.Kind != plan.Join {
			continue
		}
		gL, gR := join.Children[0], join.Children[1]
		if ne := tryPush(m, e, join, gL, gR); ne != nil {
			out = append(out, ne)
		}
	}
	return out
}

func decomposable(fn expr.AggFn) bool {
	switch fn {
	case expr.AggSum, expr.AggMin, expr.AggMax, expr.AggCount:
		return true
	}
	return false
}

func argTouchesPartial(m *memo.Memo, arg expr.Expr) bool {
	for _, c := range m.ColsOf(arg) {
		if strings.HasPrefix(c.Name, partialPrefix) {
			return true
		}
	}
	return false
}

// tryPush builds the rewrite for pushing into gR, or nil when invalid.
// The rewrite handles mixed aggregates Yan–Larson style: the partial
// aggregate additionally computes a row count, L-side SUMs re-scale by
// that count (their join multiplicity changed), R-side SUM/COUNT
// re-aggregate as SUM of partials, and MIN/MAX pass through (duplicate
// insensitive). This preserves exact SQL bag semantics unconditionally.
func tryPush(m *memo.Memo, agg *memo.MExpr, join *memo.MExpr, gL, gR *memo.Group) *memo.NewExpr {
	op := agg.Op
	// Classify aggregates; bail out on shapes the rewrite cannot express.
	needCount := false
	pushable := 0
	for _, a := range op.Aggs {
		switch {
		case a.Arg == nil: // COUNT(*)
			needCount = true
			pushable++
		case colsCovered(m, a.Arg, gR):
			pushable++
		case colsCovered(m, a.Arg, gL):
			switch a.Fn {
			case expr.AggSum:
				needCount = true // SUM(x_l) re-scales by the partial count
			case expr.AggMin, expr.AggMax:
				// duplicate-insensitive: unchanged
			default:
				return nil // L-side COUNT(col) is not handled
			}
		default:
			return nil // argument spans both sides
		}
	}
	if pushable == 0 && !needCount {
		return nil // nothing gained by pushing
	}
	// Join keys on the R side anchor the partial group-by.
	joinKeysR := dedupCols(equiKeysOn(m, join.Op.Pred, gR))
	if len(joinKeysR) == 0 {
		return nil // no equi-join: cannot align partial groups
	}
	gbCols := append(make([]*expr.Col, 0, len(joinKeysR)+len(op.GroupBy)), joinKeysR...)
	addGB := func(c *expr.Col) {
		for _, g := range gbCols {
			if sameColRef(g, c) {
				return
			}
		}
		gbCols = append(gbCols, c)
	}
	// Final grouping columns from R and R-columns used by the join
	// predicate must survive the partial aggregate.
	for _, g := range op.GroupBy {
		if groupHasCol(gR, g) {
			addGB(g)
		} else if !groupHasCol(gL, g) {
			return nil
		}
	}
	for _, c := range m.ColsOf(join.Op.Pred) {
		if groupHasCol(gR, c) {
			addGB(c)
		}
	}

	var partialAggs []plan.NamedAgg
	var finalAggs []plan.NamedAgg
	const countName = partialPrefix + "cnt"
	if needCount {
		partialAggs = append(partialAggs, plan.NamedAgg{Fn: expr.AggCount, Arg: nil, Name: countName})
	}
	for _, a := range op.Aggs {
		switch {
		case a.Arg == nil: // COUNT(*) → SUM of partial counts
			finalAggs = append(finalAggs, plan.NamedAgg{Fn: expr.AggSum, Arg: expr.NewCol("", countName), Name: a.Name})
		case colsCovered(m, a.Arg, gR):
			pname := partialPrefix + a.Name
			ffn := a.Fn
			if a.Fn == expr.AggSum || a.Fn == expr.AggCount {
				ffn = expr.AggSum
			}
			partialAggs = append(partialAggs, plan.NamedAgg{Fn: a.Fn, Arg: a.Arg, Name: pname})
			finalAggs = append(finalAggs, plan.NamedAgg{Fn: ffn, Arg: expr.NewCol("", pname), Name: a.Name})
		default: // L side
			if a.Fn == expr.AggSum {
				scaled := expr.NewArith(expr.Mul, a.Arg, expr.NewCol("", countName))
				finalAggs = append(finalAggs, plan.NamedAgg{Fn: expr.AggSum, Arg: scaled, Name: a.Name})
			} else {
				finalAggs = append(finalAggs, a)
			}
		}
	}

	partialOp := &plan.Node{Kind: plan.Aggregate, GroupBy: gbCols, Aggs: partialAggs}
	partialOp.Cols = aggCols(gR, gbCols, partialAggs)
	finalOp := &plan.Node{Kind: plan.Aggregate, GroupBy: op.GroupBy, Aggs: finalAggs}
	finalOp.Cols = op.Cols

	return &memo.NewExpr{
		Op: finalOp,
		Children: []any{&memo.NewExpr{
			Op: joinOp(join.Op.Pred),
			Children: []any{
				gL,
				&memo.NewExpr{Op: partialOp, Children: []any{gR}},
			},
		}},
	}
}

// dedupCols removes duplicate column references by key.
func dedupCols(cols []*expr.Col) []*expr.Col {
	out := cols[:0]
	for _, c := range cols {
		dup := false
		for _, o := range out {
			if sameColRef(o, c) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}

// sameColRef compares column references field-wise (what Key() would
// concatenate), without allocating.
func sameColRef(a, b *expr.Col) bool {
	return a.Table == b.Table && a.Name == b.Name
}

// equiKeysOn returns the columns of equi-join conjuncts that live in g.
func equiKeysOn(m *memo.Memo, cond expr.Expr, g *memo.Group) []*expr.Col {
	var keys []*expr.Col
	for _, c := range m.Conjuncts(cond) {
		cmp, ok := c.(*expr.Cmp)
		if !ok || cmp.Op != expr.EQ {
			continue
		}
		lc, lok := cmp.L.(*expr.Col)
		rc, rok := cmp.R.(*expr.Col)
		if !lok || !rok {
			continue
		}
		if groupHasCol(g, lc) && !groupHasCol(g, rc) {
			keys = append(keys, lc)
		} else if groupHasCol(g, rc) && !groupHasCol(g, lc) {
			keys = append(keys, rc)
		}
	}
	return keys
}

// aggCols computes the output schema of an aggregate operator given its
// input group.
func aggCols(in *memo.Group, groupBy []*expr.Col, aggs []plan.NamedAgg) []plan.ColRef {
	out := make([]plan.ColRef, 0, len(groupBy)+len(aggs))
	for _, g := range groupBy {
		t := expr.TNull
		for _, cr := range in.Cols {
			if strings.EqualFold(cr.Name, g.Name) && (g.Table == "" || strings.EqualFold(cr.Table, g.Table)) {
				t = cr.Type
				break
			}
		}
		out = append(out, plan.ColRef{Table: g.Table, Name: g.Name, Type: t})
	}
	for _, a := range aggs {
		out = append(out, plan.ColRef{Name: a.Name, Type: plan.InferType(&expr.Agg{Fn: a.Fn, Arg: a.Arg}, in.Cols)})
	}
	return out
}
