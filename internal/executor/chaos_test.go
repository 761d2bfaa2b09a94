package executor

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"cgdqp/internal/cluster"
	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/plan"
)

// chaosPlan builds the four-fragment, three-SHIP plan of the parallel
// tests: Customer ships N→E, the Supply aggregate ships A→E, the join
// result ships E→N.
func chaosPlan(t *testing.T) (*plan.Node, *cluster.Cluster) {
	t.Helper()
	cat, cl := carco(t)
	c := scanNode(t, cat, "Customer", "C")
	o := scanNode(t, cat, "Orders", "O")
	s := scanNode(t, cat, "Supply", "S")
	shipC := plan.NewShip(c, "N", "E")
	sAgg := plan.NewAggregate(s,
		[]*expr.Col{expr.NewCol("S", "ordkey")},
		[]plan.NamedAgg{{Fn: expr.AggSum, Arg: expr.NewCol("S", "quantity"), Name: "qty"}})
	sAgg.Kind = plan.HashAgg
	shipS := plan.NewShip(sAgg, "A", "E")
	join1 := plan.NewJoin(shipC, o, expr.NewCmp(expr.EQ, expr.NewCol("C", "custkey"), expr.NewCol("O", "custkey")))
	join1.Kind = plan.HashJoin
	join2 := plan.NewJoin(join1, shipS, expr.NewCmp(expr.EQ, expr.NewCol("O", "ordkey"), expr.NewCol("S", "ordkey")))
	join2.Kind = plan.HashJoin
	return plan.NewShip(join2, "E", "N"), cl
}

func chaosRetry() network.RetryPolicy {
	return network.RetryPolicy{
		MaxAttempts: 6,
		BaseBackoff: 20 * time.Microsecond,
		MaxBackoff:  160 * time.Microsecond,
		Multiplier:  2,
		JitterFrac:  0.2,
	}
}

// sameShipping fails unless a recovered run's statistics equal the
// fault-free ones bit for bit, Retries aside.
func sameShipping(t *testing.T, seed int64, got, want *RunStats) {
	t.Helper()
	g := *got
	g.Retries = want.Retries
	if g != *want {
		t.Fatalf("seed %d: stats differ after retries:\ngot  %+v\nwant %+v", seed, *got, *want)
	}
}

// TestChaosParallelLedgerParity sweeps seeds over the multi-ship plan:
// every run must either reproduce the fault-free rows, per-shipment audit
// records and RunStats bit-for-bit (retries re-account cleanly), or fail
// with a typed *network.ShipError. Runs under -race in tier-1.
func TestChaosParallelLedgerParity(t *testing.T) {
	root, cl := chaosPlan(t)
	clean, err := observedRun(root, cl, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := canon(clean.rows)

	okRuns, failRuns := 0, 0
	for seed := int64(1); seed <= 25; seed++ {
		cl.SetFaults(network.NewFaultPlan(seed).SetDefault(network.EdgeFaults{
			DropProb: 0.15, TransientProb: 0.1, DelayProb: 0.2, DelayMS: 10,
		}))
		cl.SetRetry(chaosRetry())
		run, err := observedRun(root, cl, ExecOptions{})
		if err != nil {
			var se *network.ShipError
			if !errors.As(err, &se) {
				t.Fatalf("seed %d: untyped chaos error: %v", seed, err)
			}
			failRuns++
			continue
		}
		okRuns++
		got := canon(run.rows)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d rows, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: row %d differs: %s vs %s", seed, i, got[i], want[i])
			}
		}
		if run.audit != clean.audit {
			t.Fatalf("seed %d: shipments differ after retries:\ngot\n%swant\n%s", seed, run.audit, clean.audit)
		}
		sameShipping(t, seed, &run.stats, &clean.stats)
		if run.stats.Retries == 0 && seed == 1 {
			// Not fatal for other seeds, but the sweep as a whole must
			// exercise the retry path; checked below.
			t.Log("seed 1 had no retries")
		}
	}
	cl.SetFaults(nil)
	if okRuns == 0 {
		t.Error("no chaos run succeeded; fault rates too high to exercise the parity path")
	}
	t.Logf("chaos sweep: %d recovered runs, %d typed failures", okRuns, failRuns)
}

// TestChaosRepeatDeterminism sweeps seeds over the multi-ship plan and
// runs every seed parityRepeats times: fault verdicts are a pure
// function of (seed, edge, frame, attempt), so the repeats recover or
// fail alike whatever the goroutine interleaving, and a recovered seed
// gives the same rows in the same order, the same RunStats (Retries
// included), audit log and per-node profile counts every time, with
// the fault-free run's rows, audit log and shipping statistics.
func TestChaosRepeatDeterminism(t *testing.T) {
	root, cl := chaosPlan(t)
	clean, err := observedRun(root, cl, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	okRuns, retried := 0, false
	for seed := int64(1); seed <= 10; seed++ {
		cl.SetFaults(network.NewFaultPlan(seed).SetDefault(network.EdgeFaults{
			DropProb: 0.2, TransientProb: 0.1,
		}))
		cl.SetRetry(chaosRetry())
		var first cellResult
		var firstErr error
		for rep := 0; rep < parityRepeats; rep++ {
			got, err := observedRun(root, cl, ExecOptions{})
			if err != nil {
				var se *network.ShipError
				if !errors.As(err, &se) {
					t.Fatalf("seed %d: untyped chaos error: %v", seed, err)
				}
			}
			if rep == 0 {
				first, firstErr = got, err
				continue
			}
			if (err == nil) != (firstErr == nil) {
				t.Fatalf("seed %d run %d: error %v, first run's %v", seed, rep, err, firstErr)
			}
			if err == nil {
				sameCell(t, fmt.Sprintf("seed %d run %d", seed, rep), got, first)
			}
		}
		if firstErr != nil {
			continue
		}
		okRuns++
		retried = retried || first.stats.Retries > 0
		if first.ordered != clean.ordered {
			t.Fatalf("seed %d: rows or their order differ from the fault-free run", seed)
		}
		if first.audit != clean.audit {
			t.Fatalf("seed %d: shipments differ after retries:\ngot\n%swant\n%s", seed, first.audit, clean.audit)
		}
		sameShipping(t, seed, &first.stats, &clean.stats)
	}
	cl.SetFaults(nil)
	if okRuns == 0 {
		t.Error("no chaos run succeeded")
	}
	if !retried {
		t.Error("no recovered run retried a send; the Retries check is vacuous")
	}
}

// TestChaosPartitionTearsDownCleanly: with a partitioned edge on the
// plan's path, the run fails fast with ErrPartitioned — no hang, no
// goroutine leak (Run returns only after all producers exit).
func TestChaosPartitionTearsDownCleanly(t *testing.T) {
	root, cl := chaosPlan(t)
	cl.SetFaults(network.NewFaultPlan(3).SetEdge("A", "E", network.EdgeFaults{Partitioned: true}))
	cl.SetRetry(chaosRetry())
	defer cl.SetFaults(nil)
	done := make(chan error, 1)
	go func() {
		_, _, err := Run(root, cl)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, network.ErrPartitioned) {
			t.Fatalf("error %v, want ErrPartitioned", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("partitioned run hung")
	}
}

// slowShipment is the wall-clock delay a DelayProb-1 fault adds to
// every send over its edge at wire delay 1: far longer than anything
// else the failure tests below do.
const slowShipment = time.Second

// delayedEdge slows every send from→to by slowShipment under wire
// delay 1.
func delayedEdge(fp *network.FaultPlan, from, to string) *network.FaultPlan {
	return fp.SetEdge(from, to, network.EdgeFaults{DelayProb: 1, DelayMS: float64(slowShipment / time.Millisecond)})
}

// TestFailedRunCancelsSiblingShipments: when one part of a run fails,
// the run fails at once instead of waiting out the wire time of the
// shipments still in flight. Each plan fails early while another
// shipment is delayed by a second: the first error must cancel the run
// before any exchange is drained, and the delayed producer's wire sleep
// must honour the cancellation.
func TestFailedRunCancelsSiblingShipments(t *testing.T) {
	cat, cl := carco(t)
	cl.SetFaults(delayedEdge(network.NewFaultPlan(1).SetEdge("E", "N", network.EdgeFaults{Partitioned: true}), "A", "E"))
	cl.SetRetry(chaosRetry())
	cl.SetWireDelay(1)
	defer func() { cl.SetFaults(nil); cl.SetWireDelay(0) }()
	orders := func() *plan.Node { return scanNode(t, cat, "Orders", "O") }
	slow := func() *plan.Node { return plan.NewShip(scanNode(t, cat, "Supply", "S"), "A", "E") }
	// A fragment at E that ships a full frame over the partitioned edge
	// before it reads its slow input.
	bulk := orders()
	for i := 1; i*200 < BatchSize; i++ {
		bulk = plan.NewUnion(bulk, orders())
	}
	badProject := plan.NewProject(orders(), []plan.NamedExpr{
		{E: expr.NewArith(expr.Mul, expr.NewCol("O", "custkey"), expr.NewConst(expr.NewString("x"))), Name: "bad"}})
	partitioned := network.ErrPartitioned.Error()
	for _, tc := range []struct {
		name string
		root *plan.Node
		want string // in the error
	}{
		// The union reads the partitioned edge first.
		{"partitioned union branch", plan.NewUnion(plan.NewShip(orders(), "E", "N"), slow()), partitioned},
		// The consumer tree fails under a sort, which must not drain
		// its input on the way out.
		{"consumer error under a sort", plan.NewSort(plan.NewUnion(badProject, plan.NewProject(slow(),
			[]plan.NamedExpr{{E: expr.NewCol("S", "ordkey"), Name: "bad"}})), []plan.SortKey{{E: expr.NewCol("", "bad")}}), "arithmetic on non-numeric"},
		// ... or under a nested-loop join reading its inner side.
		{"consumer error under a nested-loop join", func() *plan.Node {
			j := plan.NewJoin(scanNode(t, cat, "Customer", "C"), plan.NewUnion(badProject, plan.NewProject(slow(),
				[]plan.NamedExpr{{E: expr.NewCol("S", "ordkey"), Name: "bad"}})),
				expr.NewCmp(expr.EQ, expr.NewCol("C", "custkey"), expr.NewCol("", "bad")))
			j.Kind = plan.NLJoin
			return j
		}(), "arithmetic on non-numeric"},
		// A producer fails with its own slow input still open.
		{"fragment over a slow input", plan.NewShip(plan.NewUnion(bulk, plan.NewProject(slow(), []plan.NamedExpr{
			{E: expr.NewCol("S", "ordkey")}, {E: expr.NewCol("S", "ordkey")}, {E: expr.NewConst(expr.NewFloat(0))}})), "E", "N"),
			partitioned},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			_, _, err := RunParallelOpts(context.Background(), tc.root, cl, nil, ExecOptions{})
			took := time.Since(start)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one with %q", err, tc.want)
			}
			if took > slowShipment/2 {
				t.Fatalf("failed run took %v: it waited for the delayed shipment (%v)", took, slowShipment)
			}
		})
	}
}

// TestCancelDuringWireSleep: a caller cancel while a producer sleeps
// out a long simulated transfer returns promptly.
func TestCancelDuringWireSleep(t *testing.T) {
	cat, cl := carco(t)
	// No start-up or bandwidth cost: the one wire sleep is the injected
	// delay, so the cancel lands inside it.
	cl.Net = network.NewCostModel(0, 0)
	cl.SetFaults(delayedEdge(network.NewFaultPlan(1), "E", "N"))
	cl.SetRetry(chaosRetry())
	cl.SetWireDelay(1)
	defer func() { cl.SetFaults(nil); cl.SetWireDelay(0) }()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	_, _, err := RunParallelOpts(ctx, plan.NewShip(scanNode(t, cat, "Orders", "O"), "E", "N"), cl, nil, ExecOptions{})
	took := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if took > slowShipment/2 {
		t.Fatalf("cancelled run took %v: the wire sleep ignored the cancellation", took)
	}
}

// TestChaosContextCancellation: cancelling the caller's context tears
// down every fragment goroutine and the run reports the cancellation
// instead of a partial result.
func TestChaosContextCancellation(t *testing.T) {
	root, cl := chaosPlan(t)
	// Make transfers slow enough that cancellation lands mid-flight.
	cl.SetWireDelay(0.02)
	defer cl.SetWireDelay(0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := RunParallelOpts(ctx, root, cl, nil, ExecOptions{})
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			// With the wire delay the serial α sleeps alone exceed the
			// 2ms cancellation point, so a success means the cancelled
			// context was ignored.
			t.Fatal("cancelled run reported success")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run hung")
	}
}
