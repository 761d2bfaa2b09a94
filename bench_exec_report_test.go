package cgdqp

// A committable execution-engine report: `make bench` runs this harness
// with -bench-report, which measures the seqVsParFixture plan in both
// exchange modes ("sequential" = inline, "parallel" = goroutine) with
// observability off and on, and rewrites BENCH_exec.json.
// It also enforces the zero-cost-when-off contract: the extrapolated
// cost of the disabled observability hooks must stay under 2% of one
// execution.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"cgdqp/internal/cluster"
	"cgdqp/internal/executor"
	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/obs"
	"cgdqp/internal/plan"
	"cgdqp/internal/schema"
)

// benchReport gates every bench_*_report_test.go harness: they are
// measurement passes, not correctness tests.
var benchReport = flag.Bool("bench-report", false, "run the measurement harnesses and rewrite their BENCH_*.json reports")

func medianNS(samples []time.Duration) int64 {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2].Nanoseconds()
}

type execBenchRow struct {
	Engine string `json:"engine"`
	// ObsOffNS runs through the instrumented entry points with a nil
	// observer — the default production path (kernels on).
	ObsOffNS int64 `json:"obs_off_ns"`
	// ObsOnNS runs with tracing, metrics and audit all enabled.
	ObsOnNS int64 `json:"obs_on_ns"`
	// ObsOnOverheadPct = (ObsOnNS - ObsOffNS) / ObsOffNS × 100.
	ObsOnOverheadPct float64 `json:"obs_on_overhead_pct"`
	// InterpNS runs obs-off with the compiled kernels disabled (the
	// row-interpreter path); on this ship-heavy fixture the simulated
	// wire time dominates, so the gap is small by design.
	InterpNS int64 `json:"interp_ns"`
	// ShippedBytes is the serialized wire volume of one execution —
	// identical across engines and kernel gates by construction.
	ShippedBytes int64 `json:"shipped_bytes"`
}

type kernelBenchRow struct {
	// Shape names the compute-bound plan measured (no SHIP operators,
	// so expression evaluation dominates).
	Shape string `json:"shape"`
	Rows  int    `json:"rows"`
	// KernelNS / InterpNS are median ns per execution with compiled
	// kernels on vs the row interpreter.
	KernelNS int64 `json:"kernel_ns"`
	InterpNS int64 `json:"interp_ns"`
	// Speedup = InterpNS / KernelNS; acceptance floors are 3× on
	// filter+project and 1.5× on hash-join and agg (join-probe is
	// tracked without a floor).
	Speedup float64 `json:"speedup"`
}

type execBenchReport struct {
	Tool      string `json:"tool"`
	GoVersion string `json:"go_version"`
	// DisabledHookNS is the measured cost of one disabled hook bundle
	// (span start/tag/end, registry check, audit record) on a nil
	// observer; DisabledHookAllocs must be 0.
	DisabledHookNS     float64 `json:"disabled_hook_ns"`
	DisabledHookAllocs float64 `json:"disabled_hook_allocs"`
	// HooksPerRun upper-bounds how many hook bundles one execution of
	// the fixture reaches (counted from an observed run, doubled).
	HooksPerRun int64 `json:"hooks_per_run"`
	// DisabledOverheadPct = HooksPerRun × DisabledHookNS relative to the
	// fastest obs-off run — the <2% acceptance bound.
	DisabledOverheadPct float64          `json:"disabled_overhead_pct"`
	Engines             []execBenchRow   `json:"engines"`
	Kernels             []kernelBenchRow `json:"kernels"`
}

// TestExecBenchReport is skipped unless -bench-report is given (it is a
// measurement pass, not a correctness test).
func TestExecBenchReport(t *testing.T) {
	if !*benchReport {
		t.Skip("run with -bench-report to rewrite BENCH_exec.json")
	}
	cl, root := seqVsParFixture(t)
	engines := []struct {
		name string
		run  func(*cluster.Cluster, *plan.Node, *obs.Observer, executor.ExecOptions) ([]expr.Row, *executor.RunStats, error)
	}{
		{"sequential", func(cl *cluster.Cluster, p *plan.Node, o *obs.Observer, eo executor.ExecOptions) ([]expr.Row, *executor.RunStats, error) {
			return executor.RunObservedOpts(context.Background(), p, cl, o, eo)
		}},
		{"parallel", func(cl *cluster.Cluster, p *plan.Node, o *obs.Observer, eo executor.ExecOptions) ([]expr.Row, *executor.RunStats, error) {
			return executor.RunParallelOpts(context.Background(), p, cl, o, eo)
		}},
	}

	report := execBenchReport{
		Tool:      "go test -run TestExecBenchReport -bench-report .",
		GoVersion: runtime.Version(),
	}

	// Disabled-hook unit cost on a nil observer.
	var off *obs.Observer
	report.DisabledHookAllocs = testing.AllocsPerRun(1000, func() { execHookBundle(off, 1) })
	const hookIters = 1 << 20
	start := time.Now()
	execHookBundle(off, hookIters)
	report.DisabledHookNS = float64(time.Since(start).Nanoseconds()) / hookIters

	// Hook volume of one run, counted with everything enabled.
	on := &obs.Observer{Tracer: obs.NewTracer(), Metrics: obs.NewRegistry(), Audit: obs.NewAuditLog()}
	cl.SetObserver(on)
	if _, _, err := engines[1].run(cl, root, on, executor.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	report.HooksPerRun = 2 * int64(on.Tracer.Len()+on.Audit.Len()+4)

	const reps = 5
	var fastestOff int64
	for _, eng := range engines {
		offS := make([]time.Duration, 0, reps)
		onS := make([]time.Duration, 0, reps)
		interpS := make([]time.Duration, 0, reps)
		var shipped int64
		for r := 0; r < reps; r++ { // interleave A/B/C so drift hits all
			for _, mode := range []string{"off", "on", "interp"} {
				o := (*obs.Observer)(nil)
				eo := executor.ExecOptions{NoKernels: mode == "interp"}
				if mode == "on" {
					on.Tracer.Reset()
					on.Audit.Reset()
					o = on
				}
				cl.SetObserver(o)
				t0 := time.Now()
				rows, stats, err := eng.run(cl, root, o, eo)
				d := time.Since(t0)
				if err != nil {
					t.Fatalf("%s: %v", eng.name, err)
				}
				if len(rows) != 1000 {
					t.Fatalf("%s: result rows %d, want 1000", eng.name, len(rows))
				}
				if shipped == 0 {
					shipped = stats.ShippedBytes
				} else if stats.ShippedBytes != shipped {
					t.Fatalf("%s/%s: shipped %d bytes, other modes shipped %d",
						eng.name, mode, stats.ShippedBytes, shipped)
				}
				switch mode {
				case "on":
					onS = append(onS, d)
				case "interp":
					interpS = append(interpS, d)
				default:
					offS = append(offS, d)
				}
			}
		}
		row := execBenchRow{Engine: eng.name, ObsOffNS: medianNS(offS), ObsOnNS: medianNS(onS),
			InterpNS: medianNS(interpS), ShippedBytes: shipped}
		row.ObsOnOverheadPct = 100 * float64(row.ObsOnNS-row.ObsOffNS) / float64(row.ObsOffNS)
		report.Engines = append(report.Engines, row)
		if fastestOff == 0 || row.ObsOffNS < fastestOff {
			fastestOff = row.ObsOffNS
		}
		t.Logf("%s: off %.2fms, on %.2fms (%+.2f%%), interp %.2fms, %d wire bytes", eng.name,
			float64(row.ObsOffNS)/1e6, float64(row.ObsOnNS)/1e6, row.ObsOnOverheadPct,
			float64(row.InterpNS)/1e6, row.ShippedBytes)
	}
	cl.SetObserver(nil)

	report.Kernels = kernelSpeedupRows(t)

	report.DisabledOverheadPct = 100 * float64(report.HooksPerRun) * report.DisabledHookNS /
		float64(fastestOff)
	t.Logf("disabled hooks: %.1fns each, %d/run → %.4f%% of one execution",
		report.DisabledHookNS, report.HooksPerRun, report.DisabledOverheadPct)
	if report.DisabledHookAllocs != 0 {
		t.Errorf("disabled hooks allocate %.1f per bundle, want 0", report.DisabledHookAllocs)
	}
	if report.DisabledOverheadPct >= 2.0 {
		t.Errorf("disabled observability overhead %.3f%% ≥ 2%%", report.DisabledOverheadPct)
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_exec.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// kernelSpeedupRows measures the vectorized execution paths against
// the row interpreter on compute-bound, single-site plans (no SHIP
// operators, so expression evaluation dominates the run) and enforces
// the acceptance floors: 3× on filter+project, 1.5× on hash-join and
// on aggregation.
func kernelSpeedupRows(t *testing.T) []kernelBenchRow {
	const n = 200_000
	const dimN = 4096
	cat := schema.NewCatalog()
	wTab := schema.NewTable("Wide", "db-e", "E", n,
		schema.Column{Name: "custkey", Type: expr.TInt},
		schema.Column{Name: "acctbal", Type: expr.TFloat},
		schema.Column{Name: "name", Type: expr.TString})
	cat.MustAddTable(wTab)
	dTab := schema.NewTable("Dim", "db-e", "E", dimN,
		schema.Column{Name: "name", Type: expr.TString},
		schema.Column{Name: "factor", Type: expr.TFloat})
	cat.MustAddTable(dTab)
	cl := cluster.New(cat, network.NewCostModel(100, 0.00001))
	rows := make([]expr.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, expr.Row{
			expr.NewInt(int64(i)),
			expr.NewFloat(float64(i%9973) / 3),
			expr.NewString(fmt.Sprintf("acct-%06d", i%4096)),
		})
	}
	if err := cl.LoadFragment(wTab, 0, rows); err != nil {
		t.Fatal(err)
	}
	dRows := make([]expr.Row, 0, dimN)
	for i := 0; i < dimN; i++ {
		dRows = append(dRows, expr.Row{
			expr.NewString(fmt.Sprintf("acct-%06d", i)),
			expr.NewFloat(float64(i) / 16),
		})
	}
	if err := cl.LoadFragment(dTab, 0, dRows); err != nil {
		t.Fatal(err)
	}

	// Planner-produced plans carry cardinality estimates (the cost layer
	// sets Card on every node); hand-built shapes get the same on their
	// scans so operators presize exactly as they would in production.
	wScan := func(alias string) *plan.Node {
		s := plan.NewScan(wTab, alias, -1)
		s.Card = float64(n)
		return s
	}
	dScan := func(alias string) *plan.Node {
		s := plan.NewScan(dTab, alias, -1)
		s.Card = float64(dimN)
		return s
	}

	bal := func() expr.Expr { return expr.NewCol("W", "acctbal") }
	key := func() expr.Expr { return expr.NewCol("W", "custkey") }
	pred := expr.NewAnd(
		expr.NewAnd(
			expr.NewCmp(expr.LT, expr.NewArith(expr.Mul, bal(), expr.NewConst(expr.NewFloat(2))), expr.NewConst(expr.NewFloat(700))),
			expr.NewCmp(expr.GE, expr.NewArith(expr.Add, expr.NewArith(expr.Mul, bal(), expr.NewConst(expr.NewFloat(3))), key()), expr.NewConst(expr.NewFloat(1000))),
		),
		expr.NewCmp(expr.NE, expr.NewArith(expr.Sub, key(), expr.NewArith(expr.Mul, bal(), expr.NewConst(expr.NewFloat(0.25)))), expr.NewConst(expr.NewFloat(-1))),
	)
	score := func(scale float64) expr.Expr {
		return expr.NewArith(expr.Add, expr.NewArith(expr.Mul, bal(), expr.NewConst(expr.NewFloat(scale))), key())
	}
	filProj := plan.NewProject(plan.NewFilter(wScan("W"), pred),
		[]plan.NamedExpr{
			{E: expr.NewCol("W", "name")},
			{E: score(1.1), Name: "s1"},
			{E: score(2.3), Name: "s2"},
			{E: expr.NewArith(expr.Sub, bal(), expr.NewArith(expr.Mul, key(), expr.NewConst(expr.NewFloat(0.5)))), Name: "delta"},
			{E: expr.NewArith(expr.Mul, expr.NewArith(expr.Add, bal(), key()), expr.NewConst(expr.NewFloat(0.125))), Name: "blend"},
		})
	join := plan.NewJoin(wScan("W"), wScan("W2"),
		expr.NewCmp(expr.EQ, expr.NewCol("W", "custkey"), expr.NewCol("W2", "custkey")))
	join.Kind = plan.HashJoin
	// join-probe isolates the probe loop: a small build side (the Dim
	// scan on the right) probed by the 200k-row fact table on string
	// keys, every probe row matching exactly one build row.
	joinProbe := plan.NewJoin(wScan("W"), dScan("D"),
		expr.NewCmp(expr.EQ, expr.NewCol("W", "name"), expr.NewCol("D", "name")))
	joinProbe.Kind = plan.HashJoin
	agg := plan.NewAggregate(wScan("W"),
		[]*expr.Col{expr.NewCol("W", "name")},
		[]plan.NamedAgg{
			{Fn: expr.AggSum, Arg: expr.NewCol("W", "acctbal"), Name: "total"},
			{Fn: expr.AggCount, Arg: nil, Name: "cnt"},
			{Fn: expr.AggMin, Arg: expr.NewCol("W", "custkey"), Name: "mn"},
			{Fn: expr.AggMax, Arg: expr.NewCol("W", "custkey"), Name: "mx"},
			{Fn: expr.AggAvg, Arg: expr.NewCol("W", "acctbal"), Name: "av"},
		})
	agg.Kind = plan.HashAgg

	// join-probe is reported without a floor: it isolates the probe
	// loop for trend tracking, while hash-join (build+probe) carries
	// the acceptance bound.
	floors := map[string]float64{"filter+project": 3, "hash-join": 1.5, "agg": 1.5}
	var out []kernelBenchRow
	for _, shape := range []struct {
		name string
		root *plan.Node
	}{{"filter+project", filProj}, {"hash-join", join}, {"join-probe", joinProbe}, {"agg", agg}} {
		const reps = 7
		kernS := make([]time.Duration, 0, reps)
		interpS := make([]time.Duration, 0, reps)
		wantRows := -1
		for r := 0; r < reps; r++ {
			for _, interp := range []bool{false, true} {
				// Collect the previous configuration's garbage outside the
				// timing window: each run pays for its own allocations, not
				// for whatever the interleaved counterpart left behind.
				runtime.GC()
				t0 := time.Now()
				got, _, err := executor.RunObservedOpts(context.Background(), shape.root, cl, nil,
					executor.ExecOptions{NoKernels: interp})
				d := time.Since(t0)
				if err != nil {
					t.Fatalf("%s (interp=%v): %v", shape.name, interp, err)
				}
				if wantRows < 0 {
					wantRows = len(got)
				} else if len(got) != wantRows {
					t.Fatalf("%s (interp=%v): %d rows, want %d", shape.name, interp, len(got), wantRows)
				}
				if interp {
					interpS = append(interpS, d)
				} else {
					kernS = append(kernS, d)
				}
			}
		}
		row := kernelBenchRow{Shape: shape.name, Rows: n,
			KernelNS: medianNS(kernS), InterpNS: medianNS(interpS)}
		row.Speedup = float64(row.InterpNS) / float64(row.KernelNS)
		out = append(out, row)
		t.Logf("kernels %s: kernel %.2fms, interp %.2fms (%.2fx)", shape.name,
			float64(row.KernelNS)/1e6, float64(row.InterpNS)/1e6, row.Speedup)
		if floor := floors[shape.name]; row.Speedup < floor {
			t.Errorf("kernel speedup on %s is %.2fx, want >= %.1fx", shape.name, row.Speedup, floor)
		}
	}
	return out
}

// execHookBundle exercises the per-shipment observability call sites the
// way cluster/executor do: span lifecycle, registry guard, audit record.
func execHookBundle(o *obs.Observer, n int) {
	for i := 0; i < n; i++ {
		sp := o.StartSpan("ship.batch")
		sp.TagInt("rows", int64(i))
		sp.End()
		if m := o.Reg(); m != nil {
			m.Counter("cgdqp_ship_rows_total", "from", "E", "to", "N").Add(1)
		}
		o.AuditSink().Record(obs.AuditRecord{})
	}
}
