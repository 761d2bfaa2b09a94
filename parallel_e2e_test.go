package cgdqp

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"cgdqp/internal/cluster"
	"cgdqp/internal/executor"
	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/policy"
	"cgdqp/internal/refeval"
	"cgdqp/internal/tpch"
)

// renderRows canonicalizes a result for multiset comparison: floats are
// rounded to tolerate summation-order differences, then rows are sorted.
func renderRows(rows []expr.Row) []string {
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

// TestParallelEngineTPCHAgreement executes every evaluation query under
// both optimizers and requires the result multiset the reference
// evaluator finds from the bound query.
func TestParallelEngineTPCHAgreement(t *testing.T) {
	cat := tpch.NewCatalog(0.002)
	net := network.FiveRegionWAN(cat.Locations())
	cl := cluster.New(cat, net)
	if err := tpch.Generate(cat, cl); err != nil {
		t.Fatal(err)
	}
	pc := policy.NewCatalog()
	for _, tab := range cat.Tables() {
		pc.Add(policy.MustParse("ship * from "+tab.Name+" to *", tab.Name, tab.DB()))
	}
	for _, compliant := range []bool{true, false} {
		opt := optimizer.New(cat, pc, net, optimizer.Options{Compliant: compliant})
		for _, name := range tpch.QueryNames() {
			label := fmt.Sprintf("%s compliant=%v", name, compliant)
			res, err := opt.OptimizeSQL(tpch.Queries[name])
			if err != nil {
				t.Fatalf("%s: optimize: %v", label, err)
			}
			rows, _, err := executor.Run(res.Plan, cl)
			if err != nil {
				t.Fatalf("%s: run: %v", label, err)
			}
			want, err := refeval.Query(tpch.Queries[name], cat, cl)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			if got, want := renderRows(rows), renderRows(want); !slices.Equal(got, want) {
				t.Fatalf("%s: %d rows differ from the reference's %d:\n%v\n%v", label, len(got), len(want), got, want)
			}
		}
	}
}

// TestParallelOptionEndToEnd pins that Options.Parallel, kept only so
// that callers which set it still compile, is ignored: two systems over
// identical data, one with it set, must agree on results and on the
// accounted communication.
func TestParallelOptionEndToEnd(t *testing.T) {
	build := func(opts Options) *System {
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
	plain := build(Options{})
	set := build(Options{Parallel: true})

	queries := []string{
		demoQuery,
		`SELECT C.name, SUM(O.totprice) AS total
		 FROM Customer C, Orders O
		 WHERE C.custkey = O.custkey
		 GROUP BY C.name HAVING SUM(O.totprice) > 300`,
		`SELECT DISTINCT C.name FROM Customer C, Orders O WHERE C.custkey = O.custkey`,
	}
	for i, q := range queries {
		sres, err := plain.Query(q)
		if err != nil {
			t.Fatalf("q%d: %v", i, err)
		}
		pres, err := set.Query(q)
		if err != nil {
			t.Fatalf("q%d with Parallel set: %v", i, err)
		}
		sr, pr := renderRows(sres.Rows), renderRows(pres.Rows)
		if len(sr) != len(pr) {
			t.Fatalf("q%d: row counts differ: %d vs %d", i, len(sr), len(pr))
		}
		for j := range sr {
			if sr[j] != pr[j] {
				t.Fatalf("q%d row %d differs:\nplain    %s\nParallel %s", i, j, sr[j], pr[j])
			}
		}
		if sres.ShippedBytes != pres.ShippedBytes || sres.ShipCost != pres.ShipCost {
			t.Errorf("q%d: shipping stats differ: plain %d/%v, Parallel set %d/%v",
				i, sres.ShippedBytes, sres.ShipCost, pres.ShippedBytes, pres.ShipCost)
		}
	}
}
