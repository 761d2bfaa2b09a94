package tpch

import (
	"testing"

	"cgdqp/internal/cluster"
	"cgdqp/internal/executor"
	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/plan"
	"cgdqp/internal/policy"
	"cgdqp/internal/schema"
	"cgdqp/internal/sqlparse"
)

func TestCatalogShape(t *testing.T) {
	cat := NewCatalog(0.01)
	if got := cat.Locations(); len(got) != 5 || got[0] != "L1" {
		t.Fatalf("locations: %v", got)
	}
	if len(cat.Tables()) != 8 {
		t.Fatalf("tables: %d", len(cat.Tables()))
	}
	// Table 2 placement.
	for name, want := range map[string][2]string{
		"customer": {"db-1", "L1"}, "orders": {"db-1", "L1"},
		"supplier": {"db-2", "L2"}, "partsupp": {"db-2", "L2"},
		"part": {"db-3", "L3"}, "lineitem": {"db-4", "L4"},
		"nation": {"db-5", "L5"}, "region": {"db-5", "L5"},
	} {
		tab, ok := cat.Table(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if tab.DB() != want[0] || tab.Location() != want[1] {
			t.Errorf("%s placed at %s/%s, want %s/%s", name, tab.DB(), tab.Location(), want[0], want[1])
		}
	}
	// Sizes scale.
	li, _ := cat.Table("lineitem")
	if li.RowCount() != 60000 {
		t.Errorf("lineitem rows at SF 0.01: %d", li.RowCount())
	}
	reg, _ := cat.Table("region")
	if reg.RowCount() != 5 {
		t.Errorf("region rows: %d", reg.RowCount())
	}
	if db, loc := DefaultPlacement("lineitem"); db != "db-4" || loc != "L4" {
		t.Errorf("DefaultPlacement: %s %s", db, loc)
	}
}

func TestFragmentedCatalog(t *testing.T) {
	cat := NewCatalogFragmented(0.01, 3)
	c, _ := cat.Table("customer")
	if len(c.Fragments) != 3 {
		t.Fatalf("customer fragments: %d", len(c.Fragments))
	}
	if c.RowCount() != 1500 {
		t.Errorf("fragment row sum: %d", c.RowCount())
	}
	o, _ := cat.Table("orders")
	if len(o.Fragments) != 3 {
		t.Errorf("orders fragments: %d", len(o.Fragments))
	}
	li, _ := cat.Table("lineitem")
	if li.Fragmented() {
		t.Error("lineitem must stay unfragmented")
	}
	// nLocs <= 1 returns the plain catalog.
	if c2, _ := NewCatalogFragmented(0.01, 1).Table("customer"); c2.Fragmented() {
		t.Error("nLocs=1 should not fragment")
	}
}

func TestGenerateDeterministicAndConsistent(t *testing.T) {
	cat := NewCatalog(0.001)
	cl := cluster.New(cat, network.NewCostModel(10, 1e-6))
	if err := Generate(cat, cl); err != nil {
		t.Fatal(err)
	}
	// Row counts match the catalog.
	for _, name := range []string{"region", "nation", "supplier", "part", "partsupp", "customer", "orders", "lineitem"} {
		tab, _ := cat.Table(name)
		rows, err := cl.AllRows(tab)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(rows)) != tab.RowCount() {
			t.Errorf("%s: %d rows, catalog says %d", name, len(rows), tab.RowCount())
		}
	}
	// FK consistency: every lineitem orderkey exists in orders.
	ordersTab, _ := cat.Table("orders")
	orderRows, _ := cl.AllRows(ordersTab)
	orderKeys := map[int64]int64{} // orderkey -> orderdate
	for _, r := range orderRows {
		orderKeys[r[0].Int()] = r[4].Int()
	}
	liTab, _ := cat.Table("lineitem")
	liRows, _ := cl.AllRows(liTab)
	for _, r := range liRows {
		od, ok := orderKeys[r[0].Int()]
		if !ok {
			t.Fatalf("lineitem references missing order %d", r[0].Int())
		}
		if ship := r[10].Int(); ship <= od {
			t.Fatalf("shipdate %d not after orderdate %d", ship, od)
		}
	}
	// Determinism: regenerate and compare a sample row.
	cl2 := cluster.New(cat, network.NewCostModel(10, 1e-6))
	if err := Generate(cat, cl2); err != nil {
		t.Fatal(err)
	}
	li2, _ := cl2.AllRows(liTab)
	for i := 0; i < len(liRows); i += 17 {
		for j := range liRows[i] {
			if !liRows[i][j].Equal(li2[i][j]) {
				t.Fatalf("generation not deterministic at row %d col %d", i, j)
			}
		}
	}
}

func TestQueriesBindAndOptimize(t *testing.T) {
	cat := NewCatalog(0.01)
	net := network.FiveRegionWAN(cat.Locations())
	pc := policy.NewCatalog()
	// Unrestricted policies: ship * from t to * for every table.
	for _, tab := range cat.Tables() {
		pc.Add(policy.MustParse("ship * from "+tab.Name+" to *", tab.Name, tab.DB()))
	}
	for _, name := range QueryNames() {
		sql := Queries[name]
		logical, err := sqlparse.ParseAndBind(sql, cat)
		if err != nil {
			t.Fatalf("%s bind: %v", name, err)
		}
		opt := optimizer.New(cat, pc, net, optimizer.Options{Compliant: true})
		res, err := opt.Optimize(logical)
		if err != nil {
			t.Fatalf("%s optimize: %v", name, err)
		}
		if v := opt.Check(res.Plan); len(v) != 0 {
			t.Errorf("%s: violations under unrestricted policies: %v", name, v)
		}
	}
}

func TestQueryNamesOrder(t *testing.T) {
	names := QueryNames()
	want := []string{"Q2", "Q3", "Q5", "Q8", "Q9", "Q10"}
	if len(names) != len(want) {
		t.Fatalf("names: %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("order: %v", names)
			break
		}
	}
}

// TestQ3ExecutesCorrectly cross-checks the optimized distributed
// execution of Q3 against a single-site reference computation.
func TestQ3ExecutesCorrectly(t *testing.T) {
	cat := NewCatalog(0.001)
	cl := cluster.New(cat, network.FiveRegionWAN(cat.Locations()))
	if err := Generate(cat, cl); err != nil {
		t.Fatal(err)
	}
	pc := policy.NewCatalog()
	for _, tab := range cat.Tables() {
		pc.Add(policy.MustParse("ship * from "+tab.Name+" to *", tab.Name, tab.DB()))
	}
	opt := optimizer.New(cat, pc, cl.Net, optimizer.Options{Compliant: true})
	res, err := opt.OptimizeSQL(Queries["Q3"])
	if err != nil {
		t.Fatal(err)
	}
	rows, stats, err := executor.Run(res.Plan, cl)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, res.Plan.Format(true))
	}
	if len(rows) == 0 {
		t.Fatal("Q3 returned no rows; generator selectivities too harsh?")
	}
	if len(rows) > 10 {
		t.Errorf("LIMIT 10 violated: %d rows", len(rows))
	}
	// Revenue must be descending.
	for i := 1; i < len(rows); i++ {
		if rows[i][1].Float() > rows[i-1][1].Float() {
			t.Errorf("revenue not descending at %d", i)
		}
	}
	if stats.ShipCost <= 0 {
		t.Error("geo-distributed Q3 must ship data")
	}
	// Reference: run the same logical plan with every operator placed via
	// the traditional path, results must agree.
	topt := optimizer.New(cat, pc, cl.Net, optimizer.Options{Compliant: false})
	tres, err := topt.OptimizeSQL(Queries["Q3"])
	if err != nil {
		t.Fatal(err)
	}
	trows, _, err := executor.Run(tres.Plan, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(trows) != len(rows) {
		t.Fatalf("row count mismatch: %d vs %d", len(rows), len(trows))
	}
	for i := range rows {
		// Compare the sort key column (revenue) — full row ordering may
		// differ among ties.
		if d := rows[i][1].Float() - trows[i][1].Float(); d > 1e-6 || d < -1e-6 {
			t.Errorf("row %d revenue: %v vs %v", i, rows[i][1], trows[i][1])
		}
	}
	_ = plan.Ship
	_ = expr.TInt
}

// generated captures what Generate loads, fragments of a table
// concatenated in fragment order (the order AllRows reads them back).
type generated map[string][]expr.Row

func (g generated) LoadFragment(t *schema.Table, _ int, rows []expr.Row) error {
	g[t.Name] = append(g[t.Name], rows...)
	return nil
}

// TestGeneratedRowsRoundTrip: every TPC-H row a cluster stores reads
// back exactly as generated — type tag, null flag and payload of every
// value — so the pages lose nothing the engine above them could see.
func TestGeneratedRowsRoundTrip(t *testing.T) {
	cat := NewCatalogFragmented(0.001, 3)
	want := generated{}
	if err := Generate(cat, want); err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(cat, network.NewCostModel(10, 1e-6))
	if err := Generate(cat, cl); err != nil {
		t.Fatal(err)
	}
	for _, tab := range cat.Tables() {
		got, err := cl.AllRows(tab)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want[tab.Name]) || len(got) == 0 {
			t.Fatalf("%s: %d rows read back, %d generated", tab.Name, len(got), len(want[tab.Name]))
		}
		for i, row := range want[tab.Name] {
			for j, v := range row {
				if got[i][j] != v {
					t.Fatalf("%s row %d col %d: read back %#v, generated %#v", tab.Name, i, j, got[i][j], v)
				}
			}
		}
	}
}

// TestIntKeyStatsHaveBounds: every int column with a distinct count
// also carries its min and max (the index range estimate reads them),
// and every generated value lies within them.
func TestIntKeyStatsHaveBounds(t *testing.T) {
	cat := NewCatalog(0.002)
	rows := generated{}
	if err := Generate(cat, rows); err != nil {
		t.Fatal(err)
	}
	for _, tab := range cat.Tables() {
		for i, col := range tab.Columns {
			st := tab.Stats(col.Name)
			if col.Type != expr.TInt || st.Distinct == 0 {
				continue
			}
			if st.Min.IsNull() || st.Max.IsNull() {
				t.Errorf("%s.%s: distinct %d without min/max", tab.Name, col.Name, st.Distinct)
				continue
			}
			for _, r := range rows[tab.Name] {
				if v := r[i].Int(); v < st.Min.Int() || v > st.Max.Int() {
					t.Fatalf("%s.%s: generated %d outside [%v, %v]", tab.Name, col.Name, v, st.Min, st.Max)
				}
			}
		}
	}
}
