package cgdqp

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"cgdqp/internal/leakcheck"
	"cgdqp/internal/tpch"
)

// Every SHIP runs its producer on a goroutine: no test may leave one
// (or a server's workers) running.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// demoSystem builds the CarCo scenario of the paper's Section 2 through
// the public API.
func demoSystem(t *testing.T) *System { return demoSystemWith(t, Options{}) }

func demoSystemWith(t *testing.T, opts Options) *System {
	t.Helper()
	sys := NewSystemWith(opts)
	sys.MustDefineTable("Customer", "db-n", "NorthAmerica", 40,
		Col("custkey", TInt), Col("name", TString), Col("acctbal", TFloat))
	sys.MustDefineTable("Orders", "db-e", "Europe", 120,
		Col("custkey", TInt), Col("ordkey", TInt), Col("totprice", TFloat))
	sys.MustDefineTable("Supply", "db-a", "Asia", 360,
		Col("ordkey", TInt), Col("quantity", TInt))
	sys.MustAddPolicy("ship custkey, name from Customer to *")
	sys.MustAddPolicy("ship custkey, ordkey from Orders to *")
	sys.MustAddPolicy("ship totprice as aggregates sum from Orders to Asia group by custkey, ordkey")
	sys.MustAddPolicy("ship quantity as aggregates sum from Supply to Europe group by ordkey")

	var cRows, oRows, sRows []Row
	for i := 0; i < 40; i++ {
		cRows = append(cRows, Row{Int(int64(i)), String(fmt.Sprintf("cust-%02d", i)), Float(float64(i))})
	}
	for i := 0; i < 120; i++ {
		oRows = append(oRows, Row{Int(int64(i % 40)), Int(int64(i)), Float(float64(10 + i))})
	}
	for i := 0; i < 360; i++ {
		sRows = append(sRows, Row{Int(int64(i % 120)), Int(int64(1 + i%5))})
	}
	sys.MustLoad("Customer", cRows)
	sys.MustLoad("Orders", oRows)
	sys.MustLoad("Supply", sRows)
	return sys
}

const demoQuery = `
	SELECT C.name, SUM(O.totprice) AS total, SUM(S.quantity) AS qty
	FROM Customer C, Orders O, Supply S
	WHERE C.custkey = O.custkey AND O.ordkey = S.ordkey
	GROUP BY C.name`

func TestSystemEndToEnd(t *testing.T) {
	sys := demoSystem(t)
	res, err := sys.Query(demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 40 {
		t.Errorf("rows: %d", len(res.Rows))
	}
	if len(res.Columns) != 3 || res.Columns[0] != "name" || res.Columns[1] != "total" {
		t.Errorf("columns: %v", res.Columns)
	}
	if res.ShipCost <= 0 || res.ShippedBytes <= 0 {
		t.Errorf("shipping accounting: %+v", res)
	}
	// The produced plan is compliant.
	if v := sys.CheckCompliance(res.Plan); len(v) != 0 {
		t.Errorf("violations: %v", v)
	}
	// Verify one aggregate value: customer i owns orders i, i+40, i+80;
	// each order o has supplies o and o+120... quantity dependent; just
	// verify total for customer 0: orders 0, 40, 80 → 10+0, 10+40, 10+80;
	// each order matches 3 supply rows.
	for _, r := range res.Rows {
		if r[0].Str() == "cust-00" {
			want := float64((10 + 50 + 90) * 3)
			if r[1].Float() != want {
				t.Errorf("total for cust-00: %v, want %v", r[1], want)
			}
		}
	}
}

func TestSystemExplainAndLegality(t *testing.T) {
	sys := demoSystem(t)
	p, err := sys.Explain(demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.String(), "Ship[") {
		t.Errorf("plan should ship data:\n%s", p)
	}
	ok, err := sys.Legal(demoQuery)
	if err != nil || !ok {
		t.Errorf("legal: %v %v", ok, err)
	}
	// Raw acctbal cannot leave North America and Orders cannot reach it.
	ok, err = sys.Legal("SELECT C.acctbal, O.totprice FROM Customer C, Orders O WHERE C.custkey = O.custkey")
	if err != nil || ok {
		t.Errorf("illegal query: ok=%v err=%v", ok, err)
	}
	if _, err := sys.Query("SELECT C.acctbal, O.totprice FROM Customer C, Orders O WHERE C.custkey = O.custkey"); !errors.Is(err, ErrNoCompliantPlan) {
		t.Errorf("query should be rejected, got %v", err)
	}
	// Syntax errors surface as real errors, not legality verdicts.
	if _, err := sys.Legal("SELECT FROM"); err == nil {
		t.Error("syntax error should propagate")
	}
}

func TestSystemEvaluatePolicies(t *testing.T) {
	sys := demoSystem(t)
	locs, err := sys.EvaluatePolicies("SELECT C.custkey, C.name FROM Customer C")
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 3 { // home + everywhere via the policy
		t.Errorf("𝒜 = %v", locs)
	}
	locs, err = sys.EvaluatePolicies("SELECT C.acctbal FROM Customer C")
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 1 || locs[0] != "NorthAmerica" {
		t.Errorf("acctbal 𝒜 = %v", locs)
	}
	// Cross-database queries are not local.
	if _, err := sys.EvaluatePolicies("SELECT C.name FROM Customer C, Orders O WHERE C.custkey = O.custkey"); err == nil {
		t.Error("cross-database query should not evaluate")
	}
}

func TestSystemResultLocationOption(t *testing.T) {
	sys := demoSystem(t)
	// Rebuild with a pinned result location.
	sys2 := NewSystemWith(Options{ResultLocation: "Europe"})
	sys2.Schema = sys.Schema
	sys2.Policies = sys.Policies
	p, err := sys2.Explain(demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	if p.Root.Loc != "Europe" {
		t.Errorf("result location: %s", p.Root.Loc)
	}

	// A location the schema does not have is a configuration error, not
	// a policy verdict: it must not read as "no compliant plan".
	mars := NewSystemWith(Options{ResultLocation: "Mars"})
	mars.Schema = sys.Schema
	mars.Policies = sys.Policies
	if _, err := mars.Explain(demoQuery); err == nil || errors.Is(err, ErrNoCompliantPlan) || !strings.Contains(err.Error(), `"Mars"`) {
		t.Errorf("unknown result location: err = %v, want an error naming it, not ErrNoCompliantPlan", err)
	}
	if legal, err := mars.Legal(demoQuery); err == nil {
		t.Errorf("Legal under an unknown result location = (%v, nil), want an error", legal)
	}
}

func TestSystemErrors(t *testing.T) {
	sys := NewSystem()
	if err := sys.AddPolicy("ship a from ghost to *"); err == nil {
		t.Error("policy over unknown table must fail")
	}
	if err := sys.AddPolicy("not a policy"); err == nil {
		t.Error("unparsable policy must fail")
	}
	if err := sys.Load("ghost", nil); err == nil {
		t.Error("loading unknown table must fail")
	}
	if err := sys.SetColumnStats("ghost", "x", 1, Null(), Null()); err == nil {
		t.Error("stats on unknown table must fail")
	}
	sys.MustDefineTable("t", "db", "L", 1, Col("a", TInt))
	if err := sys.DefineTable("t", "db", "L", 1, Col("a", TInt)); err == nil {
		t.Error("duplicate table must fail")
	}
	if err := sys.SetColumnStats("t", "a", 5, Int(0), Int(4)); err != nil {
		t.Errorf("stats: %v", err)
	}
}

func TestFragmentedSystem(t *testing.T) {
	sys := NewSystem()
	if err := sys.DefineFragmentedTable("Sales",
		[]Column{Col("region", TString), Col("amt", TFloat)},
		[]Fragment{
			{DB: "db-w", Location: "West", RowCount: 2},
			{DB: "db-e", Location: "East", RowCount: 2},
		}); err != nil {
		t.Fatal(err)
	}
	sys.MustAddPolicy("ship region, amt from db-w.Sales to East")
	sys.MustAddPolicy("ship region, amt from db-e.Sales to East")
	if err := sys.LoadFragment("Sales", 0, []Row{{String("w"), Float(1)}, {String("w"), Float(2)}}); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadFragment("Sales", 1, []Row{{String("e"), Float(3)}, {String("e"), Float(4)}}); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadFragment("Sales", -1, []Row{{String("w"), Float(100)}}); err == nil {
		t.Error("LoadFragment(-1) on a fragmented table must fail")
	}
	res, err := sys.Query("SELECT SUM(amt) AS total FROM Sales")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 10 {
		t.Errorf("fragmented sum: %v", res.Rows)
	}
}

// TestOrderByAfterSecondLoad: result order comes from a SortExec and
// from nothing else. Each orders batch is in primary-key order, as the
// generator would emit it, but the second sorts before the first, so the
// stored table is not; ORDER BY must sort it all the same — alone, over
// a join and under a LIMIT, in memory and on the persistent store.
func TestOrderByAfterSecondLoad(t *testing.T) {
	order := func(key int64) Row {
		return Row{Int(key), Int(1 + key%2), String("O"), Float(float64(key)), Date("1995-01-01"),
			String("1-URGENT"), String("Clerk#1"), Int(0), String("")}
	}
	customer := func(key int64) Row {
		return Row{Int(key), String(fmt.Sprintf("Customer#%d", key)), String(""), Int(0), String(""),
			Float(0), String("BUILDING"), String("")}
	}
	for _, mode := range []string{"memory", "datadir"} {
		t.Run(mode, func(t *testing.T) {
			var opts Options
			if mode == "datadir" {
				opts.DataDir = t.TempDir()
			}
			sys := NewSystemWith(opts)
			defer sys.Close()
			sys.Schema = tpch.NewCatalog(0.001)
			for _, tab := range sys.Schema.Tables() {
				sys.MustAddPolicy("ship * from " + tab.Name + " to *")
			}
			sys.MustLoad("customer", []Row{customer(1), customer(2)})
			sys.MustLoad("orders", []Row{order(10), order(20)})
			sys.MustLoad("orders", []Row{order(1), order(2)})

			for _, tc := range []struct {
				sql  string
				want []int64
			}{
				{`SELECT o.orderkey FROM orders o ORDER BY o.orderkey`, []int64{1, 2, 10, 20}},
				{`SELECT o.orderkey, c.name FROM customer c, orders o WHERE c.custkey = o.custkey ORDER BY o.orderkey`,
					[]int64{1, 2, 10, 20}},
				{`SELECT o.orderkey, c.name FROM customer c, orders o WHERE c.custkey = o.custkey ORDER BY o.orderkey LIMIT 3`,
					[]int64{1, 2, 10}},
			} {
				res, err := sys.Query(tc.sql)
				if err != nil {
					t.Fatalf("%s: %v", tc.sql, err)
				}
				wantSortsSurface(t, tc.sql, tc.sql, res.Plan.Root)
				var got []int64
				for _, r := range res.Rows {
					got = append(got, r[0].Int())
				}
				if fmt.Sprint(got) != fmt.Sprint(tc.want) {
					t.Errorf("%s: order keys %v, want %v", tc.sql, got, tc.want)
				}
			}
		})
	}
}

// TestIdentitySelectKeepsEveryColumn pins that a SELECT list equal to
// its scope's columns — a bare * or the same columns written out, over
// one table or a join — returns every column with its values, not just
// the columns the predicates read.
func TestIdentitySelectKeepsEveryColumn(t *testing.T) {
	sys := NewSystem()
	sys.MustDefineTable("a", "db-1", "L1", 3, Col("k", TInt), Col("x", TString))
	sys.MustDefineTable("b", "db-2", "L2", 3, Col("k", TInt), Col("y", TFloat))
	sys.MustAddPolicy("ship * from a to *")
	sys.MustAddPolicy("ship * from b to *")
	sys.MustLoad("a", []Row{{Int(1), String("one")}, {Int(2), String("two")}, {Int(3), String("three")}})
	sys.MustLoad("b", []Row{{Int(1), Float(1.5)}, {Int(3), Float(3.5)}})
	for _, c := range []struct {
		sql  string
		cols []string
		rows []string
	}{
		{"SELECT * FROM a", []string{"k", "x"}, []string{"1|'one'", "2|'two'", "3|'three'"}},
		{"SELECT a.k, a.x FROM a WHERE a.k > 1", []string{"k", "x"}, []string{"2|'two'", "3|'three'"}},
		{"SELECT * FROM a, b WHERE a.k = b.k", []string{"k", "x", "k", "y"}, []string{"1|'one'|1|1.5", "3|'three'|3|3.5"}},
		{"SELECT a.k, a.x, b.k, b.y FROM a, b WHERE a.k = b.k", []string{"k", "x", "k", "y"}, []string{"1|'one'|1|1.5", "3|'three'|3|3.5"}},
	} {
		res, err := sys.Query(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if fmt.Sprint(res.Columns) != fmt.Sprint(c.cols) {
			t.Errorf("%s: columns %v, want %v", c.sql, res.Columns, c.cols)
		}
		got := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			parts := make([]string, len(r))
			for j, v := range r {
				parts[j] = v.String()
			}
			got[i] = strings.Join(parts, "|")
		}
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(c.rows) {
			t.Errorf("%s: rows %q, want %q", c.sql, got, c.rows)
		}
	}
}

// TestAddPolicyRejectsIllTypedPredicates: a policy predicate that
// compares values Value.Compare cannot order is refused when the policy
// is added, naming the column and both types, and the policy catalog
// does not move. The same predicate in a query fails only at run time.
func TestAddPolicyRejectsIllTypedPredicates(t *testing.T) {
	sys := NewSystem()
	sys.MustDefineTable("Orders", "db-1", "L1", 3,
		Col("custkey", TInt), Col("status", TString), Col("odate", TDate), Col("price", TFloat))
	sys.MustLoad("Orders", []Row{{Int(1), String("O"), Date("1995-01-01"), Float(1.5)}})
	for _, c := range []struct{ pred, col, types string }{
		{"status = 2.5", "status", "(VARCHAR) with 2.5 (DOUBLE)"},
		{"custkey > 'abc'", "custkey", "(INTEGER) with 'abc' (VARCHAR)"},
		{"'abc' <= custkey", "custkey", "'abc' (VARCHAR) with orders.custkey (INTEGER)"},
		{"price BETWEEN 1 AND 'z'", "price", "(DOUBLE) with 'z' (VARCHAR)"},
		{"odate > '1995-01-01'", "odate", "(DATE) with '1995-01-01' (VARCHAR)"},
		{"custkey = 1 AND (status = 'F' OR status < 3)", "status", "(VARCHAR) with 3 (INTEGER)"},
	} {
		v := sys.Policies.Version()
		err := sys.AddPolicy("ship * from Orders to * where " + c.pred)
		if err == nil || !strings.Contains(err.Error(), c.col) || !strings.Contains(err.Error(), c.types) {
			t.Errorf("%s: err = %v, want one naming %s and %s", c.pred, err, c.col, c.types)
		}
		if sys.Policies.Version() != v || sys.Policies.Len() != 0 {
			t.Errorf("%s: a refused policy moved the catalog", c.pred)
		}
		if _, err := sys.Query("SELECT custkey FROM Orders WHERE " + c.pred); err == nil {
			t.Errorf("%s: the query accepted a predicate the policy refused", c.pred)
		}
	}
	for _, pred := range []string{
		"status = 'F'", "custkey > 2.5", "odate > DATE '1994-12-31'",
		"price BETWEEN 1 AND 2", "custkey IN (1, 2)", "status IS NULL",
	} {
		if err := sys.AddPolicy("ship * from Orders to * where " + pred); err != nil {
			t.Errorf("%s: %v", pred, err)
		}
	}
}
