package executor

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"cgdqp/internal/cluster"
	"cgdqp/internal/expr"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/plan"
	"cgdqp/internal/policy"
	"cgdqp/internal/refeval"
)

// runChecked executes the plan and checks its rows are the multiset
// the reference evaluator finds. Hand-built plans are compared run by
// run, order included, in TestExchangeModeParity; this helper serves the
// optimizer-built ones.
func runChecked(t *testing.T, p *plan.Node, cl *cluster.Cluster, label string) ([]expr.Row, *RunStats) {
	t.Helper()
	rows, stats, err := Run(p, cl)
	if err != nil {
		t.Fatalf("%s: run: %v\n%s", label, err, p.Format(true))
	}
	want, err := refeval.Eval(p, cl)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	if got, want := canon(rows), canon(want); !slices.Equal(got, want) {
		t.Fatalf("%s: %d rows differ from the reference's %d:\n%v\n%v", label, len(got), len(want), got, want)
	}
	return rows, stats
}

// TestParallelOptimizedPlansAgree runs the optimizer end-to-end (the
// executor package's e2e queries) against the reference evaluator.
func TestParallelOptimizedPlansAgree(t *testing.T) {
	cat, cl := carco(t)
	queries := []string{
		`SELECT C.name, SUM(O.totprice) AS total, SUM(S.quantity) AS qty
		 FROM Customer C, Orders O, Supply S
		 WHERE C.custkey = O.custkey AND O.ordkey = S.ordkey GROUP BY C.name`,
		`SELECT C.name, COUNT(*) AS cnt
		 FROM Customer C, Orders O WHERE C.custkey = O.custkey GROUP BY C.name`,
		`SELECT SUM(S.quantity) AS q FROM Orders O, Supply S WHERE O.ordkey = S.ordkey`,
	}
	for _, compliant := range []bool{true, false} {
		opt := optimizer.New(cat, carcoPolicyCatalog(), cl.Net, optimizer.Options{Compliant: compliant})
		for i, q := range queries {
			res, err := opt.OptimizeSQL(q)
			if err != nil {
				t.Fatalf("optimize q%d (compliant=%v): %v", i, compliant, err)
			}
			runChecked(t, res.Plan, cl, fmt.Sprintf("optimized q%d compliant=%v", i, compliant))
		}
	}
}

// TestParallelPermissivePlansAgree covers plans optimized under
// permissive policies (wider operator variety: hash joins, sorts).
func TestParallelPermissivePlansAgree(t *testing.T) {
	cat, cl := carco(t)
	pc := policy.NewCatalog()
	pc.AddAll(
		policy.MustParse("ship * from Customer to *", "p1", "db-n"),
		policy.MustParse("ship * from Orders to *", "p2", "db-e"),
		policy.MustParse("ship * from Supply to *", "p3", "db-a"),
	)
	queries := []string{
		`SELECT C.name, O.totprice FROM Customer C, Orders O
		 WHERE C.custkey = O.custkey AND O.totprice > 220
		 ORDER BY O.totprice DESC LIMIT 10`,
		`SELECT O.custkey, COUNT(*) AS cnt FROM Orders O, Supply S
		 WHERE O.ordkey = S.ordkey GROUP BY O.custkey`,
	}
	opt := optimizer.New(cat, pc, cl.Net, optimizer.Options{Compliant: true})
	for i, q := range queries {
		res, err := opt.OptimizeSQL(q)
		if err != nil {
			t.Fatalf("optimize q%d: %v", i, err)
		}
		runChecked(t, res.Plan, cl, fmt.Sprintf("permissive q%d", i))
	}
}

// TestParallelConcurrentExecutions is the race regression test: several
// goroutines execute multi-SHIP plans against one shared cluster (one
// storage layer, one run ledger each) concurrently. Run with -race.
func TestParallelConcurrentExecutions(t *testing.T) {
	cat, cl := carco(t)
	query := `SELECT C.name, SUM(O.totprice) AS total, SUM(S.quantity) AS qty
	          FROM Customer C, Orders O, Supply S
	          WHERE C.custkey = O.custkey AND O.ordkey = S.ordkey GROUP BY C.name`
	opt := optimizer.New(cat, carcoPolicyCatalog(), cl.Net, optimizer.Options{Compliant: true})
	res, err := opt.OptimizeSQL(query)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows, _, err := Run(res.Plan, cl)
			if err != nil {
				errs <- err
				return
			}
			if len(rows) != 50 {
				errs <- fmt.Errorf("concurrent run returned %d rows, want 50", len(rows))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestHashJoinEmptyProbeShortCircuit: an empty probe side skips the
// hash-table build but keeps results and ship accounting intact.
func TestHashJoinEmptyProbeShortCircuit(t *testing.T) {
	cat, cl := carco(t)
	c := scanNode(t, cat, "Customer", "C")
	o := scanNode(t, cat, "Orders", "O")
	noC := plan.NewFilter(c, expr.NewCmp(expr.LT, expr.NewCol("C", "acctbal"), expr.NewConst(expr.NewFloat(-10))))
	buildShip := plan.NewShip(o, "E", "N")
	join := plan.NewJoin(noC, buildShip, expr.NewCmp(expr.EQ, expr.NewCol("C", "custkey"), expr.NewCol("O", "custkey")))
	join.Kind = plan.HashJoin
	rows, stats := runChecked(t, join, cl, "empty probe")
	if len(rows) != 0 {
		t.Errorf("rows: %d, want 0", len(rows))
	}
	// The build side is a Ship: it must still account its transfer even
	// though the build was skipped.
	if stats.ShippedRows != 200 {
		t.Errorf("build-side ship rows: %d, want 200", stats.ShippedRows)
	}
}
