package cost

import (
	"testing"
	"testing/quick"

	"cgdqp/internal/expr"
	"cgdqp/internal/plan"
	"cgdqp/internal/schema"
)

func statsTable() *schema.Table {
	t := schema.NewTable("Orders", "db-1", "L1", 10000,
		schema.Column{Name: "orderkey", Type: expr.TInt},
		schema.Column{Name: "custkey", Type: expr.TInt},
		schema.Column{Name: "price", Type: expr.TFloat},
		schema.Column{Name: "status", Type: expr.TString},
	)
	t.SetColStats("orderkey", schema.ColStats{Distinct: 10000})
	t.SetColStats("custkey", schema.ColStats{Distinct: 1000})
	t.SetColStats("status", schema.ColStats{Distinct: 3})
	return t
}

func custStatsTable() *schema.Table {
	t := schema.NewTable("Customer", "db-2", "L2", 1000,
		schema.Column{Name: "custkey", Type: expr.TInt},
		schema.Column{Name: "name", Type: expr.TString},
	)
	t.SetColStats("custkey", schema.ColStats{Distinct: 1000})
	return t
}

func TestScanCard(t *testing.T) {
	tab := statsTable()
	if ScanCard(tab, -1) != 10000 {
		t.Error("whole-table card")
	}
	frag := &schema.Table{
		Name:    "F",
		Columns: []schema.Column{{Name: "a", Type: expr.TInt}},
		Fragments: []schema.Fragment{
			{Location: "L1", RowCount: 30},
			{Location: "L2", RowCount: 70},
		},
	}
	if ScanCard(frag, 0) != 30 || ScanCard(frag, 1) != 70 || ScanCard(frag, -1) != 100 {
		t.Error("fragment cards")
	}
}

func TestFilterSelectivity(t *testing.T) {
	scan := plan.NewScan(statsTable(), "O", -1)
	est := NewEstimator(scan)
	col := func(n string) *expr.Col { return expr.NewCol("O", n) }

	// Equality on a column with 3 distinct values: 1/3.
	sel := est.FilterSel(expr.NewCmp(expr.EQ, col("status"), expr.NewConst(expr.NewString("F"))))
	if sel < 0.33 || sel > 0.34 {
		t.Errorf("eq sel = %v", sel)
	}
	// Range predicate: 1/3 default.
	sel = est.FilterSel(expr.NewCmp(expr.GT, col("price"), expr.NewConst(expr.NewFloat(10))))
	if sel != selRange {
		t.Errorf("range sel = %v", sel)
	}
	// Conjunction multiplies.
	both := expr.NewAnd(
		expr.NewCmp(expr.EQ, col("status"), expr.NewConst(expr.NewString("F"))),
		expr.NewCmp(expr.GT, col("price"), expr.NewConst(expr.NewFloat(10))))
	if got := est.FilterSel(both); got >= selRange {
		t.Errorf("conjunction should be more selective: %v", got)
	}
	// IN with stats: 2/3.
	sel = est.FilterSel(expr.NewIn(col("status"), []expr.Value{expr.NewString("F"), expr.NewString("O")}))
	if sel < 0.66 || sel > 0.67 {
		t.Errorf("in sel = %v", sel)
	}
	// Nil predicate has selectivity 1.
	if est.FilterSel(nil) != 1 {
		t.Error("nil pred")
	}
	// OR is additive-ish and clamped to <= 1.
	or := expr.NewOr(
		expr.NewCmp(expr.LT, col("price"), expr.NewConst(expr.NewFloat(10))),
		expr.NewCmp(expr.GT, col("price"), expr.NewConst(expr.NewFloat(5))))
	if got := est.FilterSel(or); got <= 0 || got > 1 {
		t.Errorf("or sel = %v", got)
	}
}

func TestJoinSelAndCard(t *testing.T) {
	o := plan.NewScan(statsTable(), "O", -1)
	c := plan.NewScan(custStatsTable(), "C", -1)
	j := plan.NewJoin(c, o, expr.NewCmp(expr.EQ, expr.NewCol("C", "custkey"), expr.NewCol("O", "custkey")))
	est := NewEstimator(j)
	in := []float64{est.NodeCard(c, nil), est.NodeCard(o, nil)}
	// FK join: |C ⋈ O| = 1000 * 10000 / max(1000,1000) = 10000.
	card := est.NodeCard(j, in)
	if card != 10000 {
		t.Errorf("join card = %v, want 10000", card)
	}
	if est.CostFor(j, card, in...) <= 0 {
		t.Error("join must cost something on top of its inputs")
	}
}

func TestGroupCard(t *testing.T) {
	scan := plan.NewScan(statsTable(), "O", -1)
	est := NewEstimator(scan)
	// Group by custkey: 1000 groups.
	if got := est.GroupCard([]*expr.Col{expr.NewCol("O", "custkey")}, 10000); got != 1000 {
		t.Errorf("group card = %v", got)
	}
	// Global aggregate: 1 group.
	if got := est.GroupCard(nil, 10000); got != 1 {
		t.Errorf("global agg card = %v", got)
	}
	// Capped by input cardinality.
	if got := est.GroupCard([]*expr.Col{expr.NewCol("O", "orderkey")}, 50); got != 50 {
		t.Errorf("capped group card = %v", got)
	}
}

// TestEstimateTreeFull estimates a Scan → Filter → Aggregate chain bottom-up
// with NodeCard, the way the memo does per group.
func TestEstimateTreeFull(t *testing.T) {
	o := plan.NewScan(statsTable(), "O", -1)
	f := plan.NewFilter(o, expr.NewCmp(expr.EQ, expr.NewCol("O", "status"), expr.NewConst(expr.NewString("F"))))
	g := plan.NewAggregate(f, []*expr.Col{expr.NewCol("O", "custkey")},
		[]plan.NamedAgg{{Fn: expr.AggSum, Arg: expr.NewCol("O", "price"), Name: "total"}})
	est := NewEstimator(g)
	oCard := est.NodeCard(o, nil)
	fCard := est.NodeCard(f, []float64{oCard})
	gCard := est.NodeCard(g, []float64{fCard})
	if oCard != 10000 {
		t.Errorf("scan card: %v", oCard)
	}
	if fCard < 3300 || fCard > 3400 {
		t.Errorf("filter card: %v", fCard)
	}
	if gCard > fCard || gCard < 1 {
		t.Errorf("agg card: %v", gCard)
	}
	for _, c := range []float64{est.CostFor(o, oCard), est.CostFor(f, fCard, oCard), est.CostFor(g, gCard, fCard)} {
		if c <= 0 {
			t.Errorf("every operator of the chain must add cost, got %v", c)
		}
	}
}

func TestOperatorCostShapes(t *testing.T) {
	// Hash join beats nested loops on large equal inputs.
	hj := OperatorCost(plan.HashJoin, 1000, 10000, 10000)
	nl := OperatorCost(plan.NLJoin, 1000, 10000, 10000)
	if hj >= nl {
		t.Errorf("hash join (%v) should beat NL join (%v) at 10k x 10k", hj, nl)
	}
	// NL join can win on tiny inputs.
	hj = OperatorCost(plan.HashJoin, 4, 2, 2)
	nl = OperatorCost(plan.NLJoin, 4, 2, 2)
	if nl >= hj {
		t.Errorf("NL join (%v) should beat hash join (%v) at 2 x 2", nl, hj)
	}
	// Ship is free in phase 1.
	if OperatorCost(plan.Ship, 100, 100) != 0 {
		t.Error("ship phase-1 cost")
	}
	if OperatorCost(plan.Sort, 0, 0) <= 0 {
		t.Error("sort cost must be positive")
	}
}

// Property: selectivities always land in (0, 1].
func TestSelectivityRangeProperty(t *testing.T) {
	scan := plan.NewScan(statsTable(), "O", -1)
	est := NewEstimator(scan)
	f := func(v int32, op uint8) bool {
		ops := []expr.CmpOp{expr.EQ, expr.NE, expr.LT, expr.LE, expr.GT, expr.GE}
		pred := expr.NewCmp(ops[int(op)%len(ops)], expr.NewCol("O", "custkey"), expr.NewConst(expr.NewInt(int64(v))))
		s := est.FilterSel(pred)
		return s > 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: join cardinality never exceeds the cross product.
func TestJoinCardBoundProperty(t *testing.T) {
	o := plan.NewScan(statsTable(), "O", -1)
	c := plan.NewScan(custStatsTable(), "C", -1)
	j := plan.NewJoin(c, o, expr.NewCmp(expr.EQ, expr.NewCol("C", "custkey"), expr.NewCol("O", "custkey")))
	est := NewEstimator(j)
	f := func(l, r uint16) bool {
		lc, rc := float64(l)+1, float64(r)+1
		card := lc * rc * est.JoinSel(j.Pred, lc, rc)
		return card <= lc*rc+1e-9 && card >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMoreSelectivities(t *testing.T) {
	scan := plan.NewScan(statsTable(), "O", -1)
	est := NewEstimator(scan)
	col := func(n string) *expr.Col { return expr.NewCol("O", n) }

	// NE with stats: 1 - 1/3.
	ne := est.FilterSel(expr.NewCmp(expr.NE, col("status"), expr.NewConst(expr.NewString("F"))))
	if ne < 0.66 || ne > 0.67 {
		t.Errorf("ne sel: %v", ne)
	}
	// NE without stats.
	ne2 := est.FilterSel(expr.NewCmp(expr.NE, col("price"), expr.NewConst(expr.NewFloat(5))))
	if ne2 <= 0.9 {
		t.Errorf("ne default sel: %v", ne2)
	}
	// NOT inverts.
	not := est.FilterSel(expr.NewNot(expr.NewCmp(expr.GT, col("price"), expr.NewConst(expr.NewFloat(1)))))
	if d := not - (1 - selRange); d > 1e-12 || d < -1e-12 {
		t.Errorf("not sel: %v", not)
	}
	// BETWEEN uses the range default.
	if got := est.FilterSel(expr.NewBetween(col("price"), expr.NewFloat(1), expr.NewFloat(2))); got != selRange {
		t.Errorf("between sel: %v", got)
	}
	// IS NULL / IS NOT NULL.
	if got := est.FilterSel(expr.NewIsNull(col("price"))); got >= 0.2 {
		t.Errorf("is null sel: %v", got)
	}
	if got := est.FilterSel(&expr.IsNull{E: col("price"), Negated: true}); got != selNotNull {
		t.Errorf("is not null sel: %v", got)
	}
	// NOT LIKE.
	if got := est.FilterSel(&expr.Like{E: col("status"), Pattern: "F%", Negated: true}); got < 0.74 || got > 0.76 {
		t.Errorf("not like sel: %v", got)
	}
	// NOT IN with stats: 1 - 1/3.
	nin := est.FilterSel(&expr.In{E: col("status"), List: []expr.Value{expr.NewString("F")}, Negated: true})
	if nin < 0.66 || nin > 0.67 {
		t.Errorf("not in sel: %v", nin)
	}
	// Column-vs-column filter falls back.
	if got := est.FilterSel(expr.NewCmp(expr.EQ, col("price"), col("custkey"))); got <= 0 || got > 1 {
		t.Errorf("col=col sel: %v", got)
	}
	// Case (unknown conjunct shape) falls back to the default.
	c := expr.NewCase([]expr.When{{Cond: expr.NewCmp(expr.GT, col("price"), expr.NewConst(expr.NewFloat(1))), Result: expr.NewConst(expr.NewBool(true))}}, nil)
	if got := est.FilterSel(c); got != selDefault {
		t.Errorf("case sel: %v", got)
	}
}

func TestSortCostAndMoreOperatorCosts(t *testing.T) {
	if OperatorCost(plan.SortExec, 0, 0) <= 0 || OperatorCost(plan.SortExec, 1000, 1000) <= OperatorCost(plan.SortExec, 10, 10) {
		t.Error("sort cost monotone and positive")
	}
	if OperatorCost(plan.LimitExec, 10, 1000) <= 0 {
		t.Error("limit cost")
	}
	if OperatorCost(plan.UnionAll, 30, 10, 20) <= 0 {
		t.Error("union cost")
	}
	// Unknown kind falls back to per-row.
	if OperatorCost(plan.Kind(99), 10) != 10 {
		t.Error("fallback cost")
	}
}

func TestNodeCardMoreKinds(t *testing.T) {
	o := plan.NewScan(statsTable(), "O", -1)
	est := NewEstimator(o)
	lim := plan.NewLimit(o, 5)
	if got := est.NodeCard(lim, []float64{100}); got != 5 {
		t.Errorf("limit card: %v", got)
	}
	u := plan.NewUnion(o, o)
	if got := est.NodeCard(u, []float64{10, 20}); got != 30 {
		t.Errorf("union card: %v", got)
	}
	ship := plan.NewShip(o, "A", "B")
	if got := est.NodeCard(ship, []float64{42}); got != 42 {
		t.Errorf("ship card: %v", got)
	}
	srt := plan.NewSort(o, nil)
	if got := est.NodeCard(srt, []float64{7}); got != 7 {
		t.Errorf("sort card: %v", got)
	}
}
