package executor

import (
	"context"
	"errors"
	"testing"
	"time"

	"cgdqp/internal/cluster"
	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/obs"
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

// auditedRun executes root in one exchange mode and returns its rows,
// statistics and rendered audit log: one record per shipment (edge,
// relations, columns, rows, bytes, batches), canonically sorted.
func auditedRun(root *plan.Node, cl *cluster.Cluster, inline bool) ([]expr.Row, *RunStats, string, error) {
	o := &obs.Observer{Audit: obs.NewAuditLog()}
	rows, stats, err := run(context.Background(), root, cl, o, ExecOptions{}, inline)
	return rows, stats, o.Audit.String(), err
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
	wantRows, wantStats, wantAudit, err := auditedRun(root, cl, true)
	if err != nil {
		t.Fatal(err)
	}
	want := canon(wantRows)

	okRuns, failRuns := 0, 0
	for seed := int64(1); seed <= 25; seed++ {
		cl.SetFaults(network.NewFaultPlan(seed).SetDefault(network.EdgeFaults{
			DropProb: 0.15, TransientProb: 0.1, DelayProb: 0.2, DelayMS: 10,
		}))
		cl.SetRetry(chaosRetry())
		rows, stats, audit, err := auditedRun(root, cl, false)
		if err != nil {
			var se *network.ShipError
			if !errors.As(err, &se) {
				t.Fatalf("seed %d: untyped chaos error: %v", seed, err)
			}
			failRuns++
			continue
		}
		okRuns++
		got := canon(rows)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d rows, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: row %d differs: %s vs %s", seed, i, got[i], want[i])
			}
		}
		if audit != wantAudit {
			t.Fatalf("seed %d: shipments differ after retries:\ngot\n%swant\n%s", seed, audit, wantAudit)
		}
		sameShipping(t, seed, stats, wantStats)
		if stats.Retries == 0 && seed == 1 {
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

// TestChaosSequentialEngine drives the same sweep through inline
// exchanges, then repeats every seed in goroutine mode: fault verdicts
// are a pure function of (seed, edge, frame, attempt) and both modes
// send the same frames, so they recover or fail alike and report the
// same RunStats, Retries included.
func TestChaosSequentialEngine(t *testing.T) {
	root, cl := chaosPlan(t)
	wantRows, wantStats, wantAudit, err := auditedRun(root, cl, true)
	if err != nil {
		t.Fatal(err)
	}
	want := canon(wantRows)
	okRuns, retried := 0, false
	for seed := int64(1); seed <= 10; seed++ {
		cl.SetFaults(network.NewFaultPlan(seed).SetDefault(network.EdgeFaults{
			DropProb: 0.2, TransientProb: 0.1,
		}))
		cl.SetRetry(chaosRetry())
		rows, stats, audit, err := auditedRun(root, cl, true)
		_, parStats, parErr := RunParallel(root, cl)
		if (err == nil) != (parErr == nil) {
			t.Fatalf("seed %d: inline error %v, goroutine-mode error %v", seed, err, parErr)
		}
		if err != nil {
			var se *network.ShipError
			if !errors.As(err, &se) {
				t.Fatalf("seed %d: untyped chaos error: %v", seed, err)
			}
			continue
		}
		okRuns++
		if *stats != *parStats {
			t.Fatalf("seed %d: stats differ across exchange modes:\ninline    %+v\ngoroutine %+v", seed, stats, parStats)
		}
		retried = retried || stats.Retries > 0
		got := canon(rows)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: row %d differs", seed, i)
			}
		}
		if audit != wantAudit {
			t.Fatalf("seed %d: shipments differ after retries:\ngot\n%swant\n%s", seed, audit, wantAudit)
		}
		sameShipping(t, seed, stats, wantStats)
		if stats.ShippedBytes == 0 {
			t.Fatalf("seed %d: no bytes accounted", seed)
		}
	}
	cl.SetFaults(nil)
	if okRuns == 0 {
		t.Error("no sequential chaos run succeeded")
	}
	if !retried {
		t.Error("no recovered run retried a send; the Retries parity check is vacuous")
	}
}

// TestChaosPartitionTearsDownCleanly: with a partitioned edge on the
// plan's path, both exchange modes fail fast with ErrPartitioned — no
// hang, no goroutine leak (RunParallel returns only after all producers
// exit).
func TestChaosPartitionTearsDownCleanly(t *testing.T) {
	root, cl := chaosPlan(t)
	cl.SetFaults(network.NewFaultPlan(3).SetEdge("A", "E", network.EdgeFaults{Partitioned: true}))
	cl.SetRetry(chaosRetry())
	for _, eng := range []struct {
		name string
		run  func(*plan.Node, *cluster.Cluster) ([]expr.Row, *RunStats, error)
	}{{"sequential", Run}, {"parallel", RunParallel}} {
		done := make(chan error, 1)
		go func() {
			_, _, err := eng.run(root, cl)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, network.ErrPartitioned) {
				t.Fatalf("%s: error %v, want ErrPartitioned", eng.name, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: partitioned run hung", eng.name)
		}
	}
	cl.SetFaults(nil)
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
