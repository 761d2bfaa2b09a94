package executor

import (
	"context"
	"errors"
	"testing"

	"cgdqp/internal/cluster"
	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/obs"
	"cgdqp/internal/plan"
)

// encodedStreamBytes recomputes, independently of the executors, the
// wire bytes of shipping rows: the stream framed into BatchSize-row
// batches, each serialized with the wire encoder.
func encodedStreamBytes(rows []expr.Row) int64 {
	var total int64
	for start := 0; start < len(rows); start += BatchSize {
		end := start + BatchSize
		if end > len(rows) {
			end = len(rows)
		}
		total += int64(len(network.EncodeBatch(rows[start:end], network.WireOptions{})))
	}
	return total
}

// TestShipAccountsEncodedBytes is the Width()-drift regression test:
// the ledger must charge exactly the serialized frame bytes of the
// shipped stream — recomputed here from the result rows — and that
// figure must NOT be the old Σ-Width() estimate, or the wire format
// has silently regressed to per-row width accounting.
func TestShipAccountsEncodedBytes(t *testing.T) {
	cat, cl := carco(t)
	c := scanNode(t, cat, "Customer", "C")
	root := plan.NewShip(c, "N", "E")

	cl.Ledger.Reset()
	rows, stats, err := Run(root, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 {
		t.Fatalf("rows: got %d, want 50", len(rows))
	}
	// The root SHIP moves exactly the result stream, so the expected
	// wire bytes are recomputable from the rows alone.
	want := encodedStreamBytes(rows)
	if stats.ShippedBytes != want {
		t.Errorf("ShippedBytes = %d, want %d (encoded frame bytes)", stats.ShippedBytes, want)
	}
	if old := widthSum(rows); stats.ShippedBytes == old {
		t.Errorf("ShippedBytes = %d equals the old Σ-Width() accounting; wire encoding is not being priced", old)
	}
	snap := cl.Ledger.Snapshot()
	if snap.Bytes != stats.ShippedBytes {
		t.Errorf("cumulative ledger bytes %d != run stats bytes %d", snap.Bytes, stats.ShippedBytes)
	}

	// The parallel engine must account the identical figure (identical
	// framing is what keeps seq/par stats parity with a real encoder).
	cl.Ledger.Reset()
	prows, pstats, err := RunParallel(root, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(prows) != len(rows) {
		t.Fatalf("parallel rows: got %d, want %d", len(prows), len(rows))
	}
	if pstats.ShippedBytes != want {
		t.Errorf("parallel ShippedBytes = %d, want %d", pstats.ShippedBytes, want)
	}
}

// TestShipAccountsEncodedBytesMultiFrame covers the >BatchSize path:
// a shipped stream longer than one batch is framed into multiple
// serialized batches, and both engines charge the same total.
func TestShipAccountsEncodedBytesMultiFrame(t *testing.T) {
	cat, cl := carco(t)
	o := scanNode(t, cat, "Orders", "O")
	s := scanNode(t, cat, "Supply", "S")
	join := plan.NewJoin(o, s, expr.NewCmp(expr.EQ, expr.NewCol("O", "ordkey"), expr.NewCol("S", "ordkey")))
	join.Kind = plan.HashJoin
	root := plan.NewShip(plan.NewUnion(join, join), "E", "N")

	cl.Ledger.Reset()
	rows, stats, err := Run(root, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) <= BatchSize {
		t.Fatalf("fixture too small: %d rows, need > %d for multi-frame", len(rows), BatchSize)
	}
	want := encodedStreamBytes(rows)
	if stats.ShippedBytes != want {
		t.Errorf("ShippedBytes = %d, want %d over %d rows", stats.ShippedBytes, want, len(rows))
	}

	cl.Ledger.Reset()
	_, pstats, err := RunParallel(root, cl)
	if err != nil {
		t.Fatal(err)
	}
	if pstats.ShippedBytes != want {
		t.Errorf("parallel ShippedBytes = %d, want %d", pstats.ShippedBytes, want)
	}
}

// runFourWays executes the plan under every engine × kernel-gate
// combination and requires byte-identical rows, stats, and audit text.
func runFourWays(t *testing.T, root *plan.Node, cl *cluster.Cluster, label string) {
	t.Helper()
	type mode struct {
		name     string
		parallel bool
		opt      ExecOptions
	}
	modes := []mode{
		{"seq/kernels", false, ExecOptions{}},
		{"seq/interp", false, ExecOptions{NoKernels: true}},
		{"par/kernels", true, ExecOptions{}},
		{"par/interp", true, ExecOptions{NoKernels: true}},
	}
	var wantRows []string
	var wantStats RunStats
	var wantAudit string
	for i, m := range modes {
		audit := obs.NewAuditLog()
		o := &obs.Observer{Audit: audit}
		cl.Ledger.Reset()
		var rows []expr.Row
		var stats *RunStats
		var err error
		if m.parallel {
			rows, stats, err = RunParallelOpts(context.Background(), root, cl, o, m.opt)
		} else {
			rows, stats, err = RunObservedOpts(context.Background(), root, cl, o, m.opt)
		}
		if err != nil {
			t.Fatalf("%s %s: %v", label, m.name, err)
		}
		got := canon(rows)
		if i == 0 {
			wantRows, wantStats, wantAudit = got, *stats, audit.String()
			if wantAudit == "" {
				t.Fatalf("%s: no audit records from a shipping plan", label)
			}
			continue
		}
		if len(got) != len(wantRows) {
			t.Fatalf("%s %s: %d rows, want %d", label, m.name, len(got), len(wantRows))
		}
		for j := range wantRows {
			if got[j] != wantRows[j] {
				t.Fatalf("%s %s: row %d differs:\ngot  %s\nwant %s", label, m.name, j, got[j], wantRows[j])
			}
		}
		if *stats != wantStats {
			t.Fatalf("%s %s: stats differ:\ngot  %+v\nwant %+v", label, m.name, *stats, wantStats)
		}
		if a := audit.String(); a != wantAudit {
			t.Fatalf("%s %s: audit log differs:\ngot:\n%s\nwant:\n%s", label, m.name, a, wantAudit)
		}
	}
}

// TestKernelInterpreterEngineParity: the golden cross-check of the
// vectorized path — every engine × kernel-gate combination produces
// byte-identical rows, shipping statistics, and audit logs.
func TestKernelInterpreterEngineParity(t *testing.T) {
	root, cl := chaosPlan(t)
	runFourWays(t, root, cl, "multi-ship join")

	cat, cl2 := carco(t)
	c := scanNode(t, cat, "Customer", "C")
	filter := plan.NewFilter(c, expr.NewCmp(expr.GE, expr.NewCol("C", "acctbal"), expr.NewConst(expr.NewFloat(200))))
	project := plan.NewProject(filter, []plan.NamedExpr{
		{E: expr.NewCol("C", "name")},
		{E: expr.NewArith(expr.Mul, expr.NewCol("C", "acctbal"), expr.NewConst(expr.NewInt(3))), Name: "tri"},
	})
	runFourWays(t, plan.NewShip(project, "N", "E"), cl2, "filter+project")
}

// TestKernelInterpreterChaosParity: under injected faults the kernel
// and interpreter paths must still agree run for run — same seed, same
// rows, same ledger, same audit text (or the same typed failure).
func TestKernelInterpreterChaosParity(t *testing.T) {
	root, cl := chaosPlan(t)
	cl.SetRetry(chaosRetry())
	for seed := int64(1); seed <= 8; seed++ {
		cl.SetFaults(network.NewFaultPlan(seed).SetDefault(network.EdgeFaults{
			DropProb: 0.15, TransientProb: 0.1, DelayProb: 0.2, DelayMS: 10,
		}))
		type outcome struct {
			rows   []string
			stats  RunStats
			audit  string
			failed bool
		}
		run := func(opt ExecOptions) outcome {
			audit := obs.NewAuditLog()
			cl.Ledger.Reset()
			rows, stats, err := RunParallelOpts(context.Background(), root, cl, &obs.Observer{Audit: audit}, opt)
			if err != nil {
				var se *network.ShipError
				if !errors.As(err, &se) {
					t.Fatalf("seed %d: untyped chaos error: %v", seed, err)
				}
				return outcome{failed: true}
			}
			return outcome{rows: canon(rows), stats: *stats, audit: audit.String()}
		}
		kern := run(ExecOptions{})
		interp := run(ExecOptions{NoKernels: true})
		if kern.failed != interp.failed {
			t.Fatalf("seed %d: kernel failed=%v but interpreter failed=%v", seed, kern.failed, interp.failed)
		}
		if kern.failed {
			continue
		}
		if len(kern.rows) != len(interp.rows) {
			t.Fatalf("seed %d: %d kernel rows vs %d interpreter rows", seed, len(kern.rows), len(interp.rows))
		}
		for i := range kern.rows {
			if kern.rows[i] != interp.rows[i] {
				t.Fatalf("seed %d: row %d differs:\nkernel      %s\ninterpreter %s", seed, i, kern.rows[i], interp.rows[i])
			}
		}
		if kern.stats.ShippedBytes != interp.stats.ShippedBytes || kern.stats.ShippedRows != interp.stats.ShippedRows || kern.stats.ShipCost != interp.stats.ShipCost {
			t.Fatalf("seed %d: shipping stats differ:\nkernel      %+v\ninterpreter %+v", seed, kern.stats, interp.stats)
		}
		if kern.audit != interp.audit {
			t.Fatalf("seed %d: audit logs differ:\nkernel:\n%s\ninterpreter:\n%s", seed, kern.audit, interp.audit)
		}
	}
	cl.SetFaults(nil)
}

// TestFusedFilterRejectsAllRows: a kernel filter that keeps zero rows
// must yield an empty result. Regression for the nil-vs-empty selection
// contract — an empty selection vector must not alias to the nil "all
// rows" form inside Select or on its way into the fused projection.
func TestFusedFilterRejectsAllRows(t *testing.T) {
	cat, cl := carco(t)
	c := scanNode(t, cat, "Customer", "C")
	// First conjunct rejects every row; the second must not re-expand
	// the empty selection back to the full batch.
	pred := expr.NewAnd(
		expr.NewCmp(expr.LT, expr.NewCol("C", "acctbal"), expr.NewConst(expr.NewFloat(-1))),
		expr.NewCmp(expr.GE, expr.NewCol("C", "custkey"), expr.NewConst(expr.NewInt(0))),
	)
	project := plan.NewProject(plan.NewFilter(c, pred), []plan.NamedExpr{
		{E: expr.NewArith(expr.Mul, expr.NewCol("C", "acctbal"), expr.NewConst(expr.NewInt(2))), Name: "x"},
	})
	rows, _, err := Run(project, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("sequential: %d rows from an all-rejecting filter, want 0", len(rows))
	}
	prows, _, err := RunParallel(project, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(prows) != 0 {
		t.Errorf("parallel: %d rows from an all-rejecting filter, want 0", len(prows))
	}
}

// TestCalibratorObservesRealBytes: the calibration hook sees the actual
// encoded frames and per-shipment costs, and its encoding ratio maps
// width estimates to wire bytes.
func TestCalibratorObservesRealBytes(t *testing.T) {
	cat, cl := carco(t)
	c := scanNode(t, cat, "Customer", "C")
	root := plan.NewShip(c, "N", "E")

	cal := network.NewCalibrator()
	cl.SetCalibrator(cal)
	defer cl.SetCalibrator(nil)

	cl.Ledger.Reset()
	rows, stats, err := Run(root, cl)
	if err != nil {
		t.Fatal(err)
	}
	ratio := cal.EncodingRatio()
	if ratio == 1 {
		t.Fatal("calibrator saw no encoding samples")
	}
	if got, want := int64(float64(widthSum(rows))*ratio+0.5), stats.ShippedBytes; got != want {
		t.Errorf("ratio %.4f maps width %d to %d wire bytes, ledger says %d", ratio, widthSum(rows), got, want)
	}
	if edges := cal.Edges(); len(edges) != 1 {
		t.Fatalf("ship edges observed: %v, want exactly N->E", edges)
	}

	// The parallel engine feeds the same hook.
	cal2 := network.NewCalibrator()
	cl.SetCalibrator(cal2)
	cl.Ledger.Reset()
	if _, _, err := RunParallel(root, cl); err != nil {
		t.Fatal(err)
	}
	if r2 := cal2.EncodingRatio(); r2 != ratio {
		t.Errorf("parallel encoding ratio %.6f != sequential %.6f", r2, ratio)
	}
}
