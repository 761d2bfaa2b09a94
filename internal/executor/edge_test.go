package executor

import (
	"testing"

	"cgdqp/internal/cluster"
	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/plan"
	"cgdqp/internal/policy"
	"cgdqp/internal/schema"
)

// TestHashJoinNullKeys verifies SQL semantics: NULL join keys never
// match (on either side).
func TestHashJoinNullKeys(t *testing.T) {
	cat := schema.NewCatalog()
	l := schema.NewTable("l", "d1", "L1", 3, schema.Column{Name: "k", Type: expr.TInt})
	r := schema.NewTable("r", "d2", "L2", 3, schema.Column{Name: "k", Type: expr.TInt})
	cat.MustAddTable(l)
	cat.MustAddTable(r)
	cl := cluster.New(cat, network.NewCostModel(1, 1e-6))
	if err := cl.LoadFragment(l, 0, []expr.Row{{expr.NewInt(1)}, {expr.TypedNull(expr.TInt)}, {expr.NewInt(2)}}); err != nil {
		t.Fatal(err)
	}
	if err := cl.LoadFragment(r, 0, []expr.Row{{expr.NewInt(2)}, {expr.TypedNull(expr.TInt)}, {expr.NewInt(3)}}); err != nil {
		t.Fatal(err)
	}
	cond := expr.NewCmp(expr.EQ, expr.NewCol("a", "k"), expr.NewCol("b", "k"))
	join := plan.NewJoin(plan.NewScan(l, "a", -1), plan.NewScan(r, "b", -1), cond)
	join.Kind = plan.HashJoin
	rows, _, err := Run(join, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 2 {
		t.Errorf("null keys must not match: %v", rows)
	}
	// Nested loops agree.
	nl := plan.NewJoin(plan.NewScan(l, "a", -1), plan.NewScan(r, "b", -1), cond)
	nl.Kind = plan.NLJoin
	nlRows, _, err := Run(nl, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(nlRows) != 1 {
		t.Errorf("nl join null keys: %v", nlRows)
	}
}

// TestEmptyInputsThroughOperators runs every operator over empty tables.
func TestEmptyInputsThroughOperators(t *testing.T) {
	cat := schema.NewCatalog()
	tab := schema.NewTable("t", "d1", "L1", 0,
		schema.Column{Name: "a", Type: expr.TInt},
		schema.Column{Name: "b", Type: expr.TString})
	cat.MustAddTable(tab)
	cl := cluster.New(cat, network.NewCostModel(1, 1e-6))

	scan := plan.NewScan(tab, "t", -1)
	f := plan.NewFilter(scan, expr.NewCmp(expr.GT, expr.NewCol("t", "a"), expr.NewConst(expr.NewInt(0))))
	p := plan.NewProject(f, []plan.NamedExpr{{E: expr.NewCol("t", "b")}})
	agg := plan.NewAggregate(p, []*expr.Col{expr.NewCol("t", "b")}, []plan.NamedAgg{{Fn: expr.AggCount, Name: "n"}})
	srt := plan.NewSort(agg, []plan.SortKey{{E: expr.NewCol("t", "b")}})
	lim := plan.NewLimit(srt, 5)
	rows, _, err := Run(lim, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("grouped agg over empty input: %v", rows)
	}
	// Joins over empty sides.
	j := plan.NewJoin(scan, scan.Clone(), expr.NewCmp(expr.EQ, expr.NewCol("t", "a"), expr.NewCol("t", "a")))
	j.Kind = plan.NLJoin
	if rows, _, err := Run(j, cl); err != nil || len(rows) != 0 {
		t.Errorf("empty join: %v %v", rows, err)
	}
}

// TestFragmentedExecutionEndToEnd optimizes and executes a query over a
// fragmented table: the plan distributes the join across fragments (via
// the union rewrite) and the result matches a single-site computation.
func TestFragmentedExecutionEndToEnd(t *testing.T) {
	cat := schema.NewCatalog()
	sales := &schema.Table{
		Name: "sales",
		Columns: []schema.Column{
			{Name: "region_id", Type: expr.TInt},
			{Name: "amt", Type: expr.TFloat},
		},
		Fragments: []schema.Fragment{
			{DB: "db-w", Location: "West", RowCount: 40},
			{DB: "db-e", Location: "East", RowCount: 60},
		},
	}
	regions := schema.NewTable("regions", "db-c", "Central", 4,
		schema.Column{Name: "id", Type: expr.TInt},
		schema.Column{Name: "name", Type: expr.TString})
	cat.MustAddTable(sales)
	cat.MustAddTable(regions)

	net := network.FiveRegionWAN(cat.Locations())
	cl := cluster.New(cat, net)
	var west, east []expr.Row
	for i := 0; i < 40; i++ {
		west = append(west, expr.Row{expr.NewInt(int64(i % 4)), expr.NewFloat(float64(i))})
	}
	for i := 0; i < 60; i++ {
		east = append(east, expr.Row{expr.NewInt(int64(i % 4)), expr.NewFloat(float64(100 + i))})
	}
	if err := cl.LoadFragment(sales, 0, west); err != nil {
		t.Fatal(err)
	}
	if err := cl.LoadFragment(sales, 1, east); err != nil {
		t.Fatal(err)
	}
	if err := cl.LoadFragment(regions, 0, []expr.Row{
		{expr.NewInt(0), expr.NewString("r0")},
		{expr.NewInt(1), expr.NewString("r1")},
		{expr.NewInt(2), expr.NewString("r2")},
		{expr.NewInt(3), expr.NewString("r3")},
	}); err != nil {
		t.Fatal(err)
	}

	pc := policy.NewCatalog()
	pc.AddAll(
		policy.MustParse("ship region_id, amt from db-w.sales to *", "w", ""),
		policy.MustParse("ship region_id, amt from db-e.sales to *", "e", ""),
		policy.MustParse("ship id, name from db-c.regions to *", "c", ""),
	)
	opt := optimizer.New(cat, pc, net, optimizer.Options{Compliant: true})
	res, err := opt.OptimizeSQL(`
		SELECT r.name, SUM(s.amt) AS total
		FROM sales s, regions r
		WHERE s.region_id = r.id
		GROUP BY r.name
		ORDER BY r.name`)
	if err != nil {
		t.Fatal(err)
	}
	if v := opt.Check(res.Plan); len(v) != 0 {
		t.Fatalf("violations: %v\n%s", v, res.Plan.Format(true))
	}
	rows, _, err := Run(res.Plan, cl)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, res.Plan.Format(true))
	}
	if len(rows) != 4 {
		t.Fatalf("groups: %d", len(rows))
	}
	// Reference totals.
	want := map[string]float64{}
	for i := 0; i < 40; i++ {
		want["r"+string(rune('0'+i%4))] += float64(i)
	}
	for i := 0; i < 60; i++ {
		want["r"+string(rune('0'+i%4))] += float64(100 + i)
	}
	for _, r := range rows {
		if got := r[1].Float(); got != want[r[0].Str()] {
			t.Errorf("%s: %v want %v", r[0].Str(), got, want[r[0].Str()])
		}
	}
}
