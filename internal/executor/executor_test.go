package executor

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"cgdqp/internal/cluster"
	"cgdqp/internal/expr"
	"cgdqp/internal/leakcheck"
	"cgdqp/internal/network"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/plan"
	"cgdqp/internal/policy"
	"cgdqp/internal/schema"
)

// TestMain fails the package when goroutines outlive its tests: every
// exchange producer a parallel run starts must have finished.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// --- fixtures ------------------------------------------------------------

// carco builds the Section 2 scenario with deterministic data.
func carco(t *testing.T) (*schema.Catalog, *cluster.Cluster) {
	t.Helper()
	cat := schema.NewCatalog()
	cTab := schema.NewTable("Customer", "db-n", "N", 50,
		schema.Column{Name: "custkey", Type: expr.TInt},
		schema.Column{Name: "name", Type: expr.TString},
		schema.Column{Name: "acctbal", Type: expr.TFloat},
	)
	cTab.SetColStats("custkey", schema.ColStats{Distinct: 50})
	oTab := schema.NewTable("Orders", "db-e", "E", 200,
		schema.Column{Name: "custkey", Type: expr.TInt},
		schema.Column{Name: "ordkey", Type: expr.TInt},
		schema.Column{Name: "totprice", Type: expr.TFloat},
	)
	oTab.SetColStats("custkey", schema.ColStats{Distinct: 50})
	oTab.SetColStats("ordkey", schema.ColStats{Distinct: 200})
	sTab := schema.NewTable("Supply", "db-a", "A", 600,
		schema.Column{Name: "ordkey", Type: expr.TInt},
		schema.Column{Name: "quantity", Type: expr.TInt},
	)
	sTab.SetColStats("ordkey", schema.ColStats{Distinct: 200})
	cat.MustAddTable(cTab)
	cat.MustAddTable(oTab)
	cat.MustAddTable(sTab)

	cl := cluster.New(cat, network.FiveRegionWAN(cat.Locations()))
	var cRows, oRows, sRows []expr.Row
	for i := 0; i < 50; i++ {
		cRows = append(cRows, expr.Row{
			expr.NewInt(int64(i)),
			expr.NewString(fmt.Sprintf("cust-%02d", i)),
			expr.NewFloat(float64(i * 10)),
		})
	}
	for i := 0; i < 200; i++ {
		oRows = append(oRows, expr.Row{
			expr.NewInt(int64(i % 50)), // custkey
			expr.NewInt(int64(i)),      // ordkey
			expr.NewFloat(float64(100 + i)),
		})
	}
	for i := 0; i < 600; i++ {
		sRows = append(sRows, expr.Row{
			expr.NewInt(int64(i % 200)), // ordkey
			expr.NewInt(int64(1 + i%7)),
		})
	}
	if err := cl.LoadFragment(cTab, 0, cRows); err != nil {
		t.Fatal(err)
	}
	if err := cl.LoadFragment(oTab, 0, oRows); err != nil {
		t.Fatal(err)
	}
	if err := cl.LoadFragment(sTab, 0, sRows); err != nil {
		t.Fatal(err)
	}
	return cat, cl
}

func carcoPolicyCatalog() *policy.Catalog {
	pc := policy.NewCatalog()
	pc.AddAll(
		policy.MustParse("ship custkey, name from Customer to *", "pn", "db-n"),
		policy.MustParse("ship custkey, ordkey from Orders to *", "pe1", "db-e"),
		policy.MustParse("ship totprice as aggregates sum from Orders to A group by custkey, ordkey", "pe2", "db-e"),
		policy.MustParse("ship quantity as aggregates sum from Supply to E group by ordkey", "pa", "db-a"),
	)
	return pc
}

// canon renders rows order-independently for comparison.
func canon(rows []expr.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			if !v.IsNull() && (v.T == expr.TFloat || v.T == expr.TInt) {
				parts[j] = fmt.Sprintf("%.4f", v.Float())
			} else {
				parts[j] = v.String()
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

func equalRows(t *testing.T, got, want []expr.Row, label string) {
	t.Helper()
	g, w := canon(got), canon(want)
	if len(g) != len(w) {
		t.Fatalf("%s: got %d rows, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: row %d differs:\n got %s\nwant %s", label, i, g[i], w[i])
		}
	}
}

// --- operator unit tests -------------------------------------------------

func scanNode(t *testing.T, cat *schema.Catalog, table, alias string) *plan.Node {
	t.Helper()
	tab, ok := cat.Table(table)
	if !ok {
		t.Fatalf("missing table %s", table)
	}
	return plan.NewScan(tab, alias, -1)
}

func TestScanAndFilter(t *testing.T) {
	cat, cl := carco(t)
	scan := scanNode(t, cat, "Customer", "C")
	rows, stats, err := Run(scan, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 || stats.RowsOut != 50 {
		t.Errorf("scan rows: %d", len(rows))
	}
	f := plan.NewFilter(scan, expr.NewCmp(expr.GE, expr.NewCol("C", "acctbal"), expr.NewConst(expr.NewFloat(400))))
	rows, _, err = Run(f, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Errorf("filter rows: %d, want 10", len(rows))
	}
}

func TestProjectEval(t *testing.T) {
	cat, cl := carco(t)
	scan := scanNode(t, cat, "Customer", "C")
	p := plan.NewProject(scan, []plan.NamedExpr{
		{E: expr.NewCol("C", "name")},
		{E: expr.NewArith(expr.Mul, expr.NewCol("C", "acctbal"), expr.NewConst(expr.NewInt(2))), Name: "dbl"},
	})
	rows, _, err := Run(p, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 || len(rows[0]) != 2 {
		t.Fatalf("project shape: %d x %d", len(rows), len(rows[0]))
	}
	if rows[1][1].Float() != 20 {
		t.Errorf("computed column: %v", rows[1][1])
	}
}

func TestHashJoinMatchesNLJoin(t *testing.T) {
	cat, cl := carco(t)
	c := scanNode(t, cat, "Customer", "C")
	o := scanNode(t, cat, "Orders", "O")
	cond := expr.NewCmp(expr.EQ, expr.NewCol("C", "custkey"), expr.NewCol("O", "custkey"))

	hj := plan.NewJoin(c, o, cond)
	hj.Kind = plan.HashJoin
	hjRows, _, err := Run(hj, cl)
	if err != nil {
		t.Fatal(err)
	}
	nl := plan.NewJoin(c, o, cond)
	nl.Kind = plan.NLJoin
	nlRows, _, err := Run(nl, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(hjRows) != 200 {
		t.Errorf("join cardinality: %d, want 200", len(hjRows))
	}
	equalRows(t, hjRows, nlRows, "hash vs nested-loop")

	// The retired kind is rejected, not run as some other join.
	mj := plan.NewJoin(c, o, cond)
	mj.Kind = plan.MergeJoin
	if rows, _, err := Run(mj, cl); err == nil || !strings.Contains(err.Error(), "unsupported operator MergeJoin") || rows != nil {
		t.Errorf("MergeJoin node: rows=%d err=%v, want the unsupported-operator error", len(rows), err)
	}
}

func TestHashJoinResidualPredicate(t *testing.T) {
	cat, cl := carco(t)
	c := scanNode(t, cat, "Customer", "C")
	o := scanNode(t, cat, "Orders", "O")
	cond := expr.NewAnd(
		expr.NewCmp(expr.EQ, expr.NewCol("C", "custkey"), expr.NewCol("O", "custkey")),
		expr.NewCmp(expr.GT, expr.NewCol("O", "totprice"), expr.NewConst(expr.NewFloat(250))))
	hj := plan.NewJoin(c, o, cond)
	hj.Kind = plan.HashJoin
	rows, _, err := Run(hj, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 49 { // totprice = 100+i > 250 → i in 151..199
		t.Errorf("residual join rows: %d, want 49", len(rows))
	}
}

func TestHashAggregate(t *testing.T) {
	cat, cl := carco(t)
	o := scanNode(t, cat, "Orders", "O")
	agg := plan.NewAggregate(o,
		[]*expr.Col{expr.NewCol("O", "custkey")},
		[]plan.NamedAgg{
			{Fn: expr.AggSum, Arg: expr.NewCol("O", "totprice"), Name: "total"},
			{Fn: expr.AggCount, Arg: nil, Name: "cnt"},
			{Fn: expr.AggMin, Arg: expr.NewCol("O", "ordkey"), Name: "mn"},
			{Fn: expr.AggMax, Arg: expr.NewCol("O", "ordkey"), Name: "mx"},
			{Fn: expr.AggAvg, Arg: expr.NewCol("O", "totprice"), Name: "av"},
		})
	agg.Kind = plan.HashAgg
	rows, _, err := Run(agg, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 {
		t.Fatalf("groups: %d", len(rows))
	}
	// custkey k owns orders k, k+50, k+100, k+150.
	for _, r := range rows {
		k := r[0].Int()
		wantSum := float64(4*100 + k + (k + 50) + (k + 100) + (k + 150))
		if r[1].Float() != wantSum {
			t.Errorf("sum for %d: %v want %v", k, r[1], wantSum)
		}
		if r[2].Int() != 4 {
			t.Errorf("count for %d: %v", k, r[2])
		}
		if r[3].Int() != k || r[4].Int() != k+150 {
			t.Errorf("min/max for %d: %v %v", k, r[3], r[4])
		}
		if r[5].Float() != wantSum/4 {
			t.Errorf("avg for %d: %v", k, r[5])
		}
	}
}

func TestGlobalAggregateOnEmptyInput(t *testing.T) {
	cat, cl := carco(t)
	c := scanNode(t, cat, "Customer", "C")
	f := plan.NewFilter(c, expr.NewCmp(expr.LT, expr.NewCol("C", "acctbal"), expr.NewConst(expr.NewFloat(-1))))
	agg := plan.NewAggregate(f, nil, []plan.NamedAgg{
		{Fn: expr.AggCount, Arg: nil, Name: "cnt"},
		{Fn: expr.AggSum, Arg: expr.NewCol("C", "acctbal"), Name: "s"},
	})
	rows, _, err := Run(agg, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("global agg over empty input must yield one row, got %d", len(rows))
	}
	if rows[0][0].Int() != 0 || !rows[0][1].IsNull() {
		t.Errorf("COUNT=0, SUM=NULL expected: %v", rows[0])
	}
}

func TestSortLimitUnion(t *testing.T) {
	cat, cl := carco(t)
	c := scanNode(t, cat, "Customer", "C")
	s := plan.NewSort(c, []plan.SortKey{{E: expr.NewCol("C", "acctbal"), Desc: true}})
	l := plan.NewLimit(s, 3)
	rows, _, err := Run(l, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("limit rows: %d", len(rows))
	}
	if rows[0][2].Float() != 490 || rows[1][2].Float() != 480 {
		t.Errorf("descending sort: %v %v", rows[0][2], rows[1][2])
	}
	u := plan.NewUnion(c, c)
	rows, _, err = Run(u, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Errorf("union rows: %d", len(rows))
	}
}

func TestShipAccounting(t *testing.T) {
	cat, cl := carco(t)
	c := scanNode(t, cat, "Customer", "C")
	ship := plan.NewShip(c, "N", "E")
	rows, stats, err := Run(ship, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 {
		t.Errorf("shipped rows: %d", len(rows))
	}
	if stats.ShippedRows != 50 || stats.ShippedBytes <= 0 || stats.ShipCost <= 0 {
		t.Errorf("ship accounting: %+v", stats)
	}
	// Intra-site ship is free.
	ship2 := plan.NewShip(c, "N", "N")
	_, stats2, err := Run(ship2, cl)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.ShipCost != 0 {
		t.Errorf("intra-site ship must be free: %+v", stats2)
	}
}

// --- end-to-end: optimized plans return identical results -----------------

func TestCompliantAndTraditionalPlansAgree(t *testing.T) {
	cat, cl := carco(t)
	net := cl.Net
	query := `
		SELECT C.name, SUM(O.totprice) AS total, SUM(S.quantity) AS qty
		FROM Customer C, Orders O, Supply S
		WHERE C.custkey = O.custkey AND O.ordkey = S.ordkey
		GROUP BY C.name`

	copt := optimizer.New(cat, carcoPolicyCatalog(), net, optimizer.Options{Compliant: true})
	cres, err := copt.OptimizeSQL(query)
	if err != nil {
		t.Fatalf("compliant optimize: %v", err)
	}
	topt := optimizer.New(cat, carcoPolicyCatalog(), net, optimizer.Options{Compliant: false})
	tres, err := topt.OptimizeSQL(query)
	if err != nil {
		t.Fatalf("traditional optimize: %v", err)
	}

	cRows, cStats, err := Run(cres.Plan, cl)
	if err != nil {
		t.Fatalf("compliant run: %v\n%s", err, cres.Plan.Format(true))
	}
	tRows, _, err := Run(tres.Plan, cl)
	if err != nil {
		t.Fatalf("traditional run: %v\n%s", err, tres.Plan.Format(true))
	}
	if len(cRows) != 50 {
		t.Errorf("result rows: %d, want 50", len(cRows))
	}
	equalRows(t, cRows, tRows, "compliant vs traditional results")
	if cStats.ShipCost <= 0 {
		t.Error("compliant plan shipped nothing?")
	}
	// And the compliant plan passes the checker while the traditional
	// plan does not.
	if v := copt.Check(cres.Plan); len(v) != 0 {
		t.Errorf("compliant plan violations: %v", v)
	}
	if v := copt.Check(tres.Plan); len(v) == 0 {
		t.Error("traditional plan should violate policies")
	}
}

// TestAggPushdownSemantics verifies the eager-aggregation rewrite
// preserves exact SQL bag semantics: the pushed-down plan's results must
// match a plan produced without the rule.
func TestAggPushdownSemantics(t *testing.T) {
	cat, cl := carco(t)
	queries := []string{
		`SELECT C.name, SUM(O.totprice) AS total, SUM(S.quantity) AS qty
		 FROM Customer C, Orders O, Supply S
		 WHERE C.custkey = O.custkey AND O.ordkey = S.ordkey GROUP BY C.name`,
		`SELECT C.name, COUNT(*) AS cnt
		 FROM Customer C, Orders O WHERE C.custkey = O.custkey GROUP BY C.name`,
		`SELECT C.name, MIN(O.totprice) AS mn, MAX(O.totprice) AS mx
		 FROM Customer C, Orders O WHERE C.custkey = O.custkey GROUP BY C.name`,
		`SELECT SUM(S.quantity) AS q FROM Orders O, Supply S WHERE O.ordkey = S.ordkey`,
	}
	// Permissive policies: everything may ship (so both optimizers find
	// plans freely and only the rewrite differs).
	pc := policy.NewCatalog()
	pc.AddAll(
		policy.MustParse("ship * from Customer to *", "p1", "db-n"),
		policy.MustParse("ship * from Orders to *", "p2", "db-e"),
		policy.MustParse("ship * from Supply to *", "p3", "db-a"),
	)
	for i, q := range queries {
		with := optimizer.New(cat, pc, cl.Net, optimizer.Options{Compliant: true})
		without := optimizer.New(cat, pc, cl.Net, optimizer.Options{Compliant: true, DisableAggPushdown: true})
		rw, err := with.OptimizeSQL(q)
		if err != nil {
			t.Fatalf("q%d with pushdown: %v", i, err)
		}
		ro, err := without.OptimizeSQL(q)
		if err != nil {
			t.Fatalf("q%d without pushdown: %v", i, err)
		}
		rowsW, _, err := Run(rw.Plan, cl)
		if err != nil {
			t.Fatalf("q%d run with: %v\n%s", i, err, rw.Plan.Format(true))
		}
		rowsO, _, err := Run(ro.Plan, cl)
		if err != nil {
			t.Fatalf("q%d run without: %v", i, err)
		}
		equalRows(t, rowsW, rowsO, fmt.Sprintf("query %d pushdown semantics", i))
	}
}
