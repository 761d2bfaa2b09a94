package executor

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"cgdqp/internal/cluster"
	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/obs"
)

// observedCluster attaches a fully-enabled observer to the cluster and
// returns both. The cluster observer feeds the shipping-layer hooks;
// the same observer is passed to the Run*Opts entry points.
func observedCluster(cl *cluster.Cluster) *obs.Observer {
	o := &obs.Observer{
		Tracer:  obs.NewTracer(),
		Metrics: obs.NewRegistry(),
		Audit:   obs.NewAuditLog(),
	}
	cl.SetObserver(o)
	return o
}

// edgeVolume aggregates an audit log's delivered volume per
// (edge, relations, columns, justification).
func edgeVolume(a *obs.AuditLog) map[string][2]int64 {
	out := map[string][2]int64{}
	for _, r := range a.Records() {
		k := fmt.Sprintf("%s->%s|%s|%s|%s", r.From, r.To,
			strings.Join(r.Relations, ","), strings.Join(r.Columns, ","), r.Justification)
		v := out[k]
		out[k] = [2]int64{v[0] + r.Rows, v[1] + r.Bytes}
	}
	return out
}

// TestObservedAuditParitySeqVsParallel: both engines must account the
// same shipped volume per edge with the same justification.
func TestObservedAuditParitySeqVsParallel(t *testing.T) {
	p, cl := chaosPlan(t)
	o := observedCluster(cl)

	cl.Ledger.Reset()
	_, seqStats, err := RunObservedOpts(context.Background(), p, cl, o, ExecOptions{})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	seqVol := edgeVolume(o.Audit)
	seqLog := o.Audit.String()

	o.Audit.Reset()
	cl.Ledger.Reset()
	_, parStats, err := RunParallelOpts(context.Background(), p, cl, o, ExecOptions{})
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	parVol := edgeVolume(o.Audit)

	if len(seqVol) != 3 {
		t.Fatalf("expected 3 audited edges, got %d:\n%s", len(seqVol), seqLog)
	}
	if len(seqVol) != len(parVol) {
		t.Fatalf("edge sets differ: seq %v par %v", seqVol, parVol)
	}
	for k, sv := range seqVol {
		if pv, ok := parVol[k]; !ok || pv != sv {
			t.Fatalf("edge %q volume differs: seq %v par %v", k, sv, parVol[k])
		}
	}
	// The audit totals must agree with the engines' own ledger stats.
	var rows int64
	for _, v := range seqVol {
		rows += v[0]
	}
	if rows != seqStats.ShippedRows || rows != parStats.ShippedRows {
		t.Fatalf("audited rows %d vs stats seq %d par %d", rows, seqStats.ShippedRows, parStats.ShippedRows)
	}
}

// TestObservedAuditDeterministicReplay: replaying the same chaos seed
// must render a byte-identical audit log, including under the parallel
// engine's goroutine interleaving.
func TestObservedAuditDeterministicReplay(t *testing.T) {
	p, cl := chaosPlan(t)
	cl.SetRetry(chaosRetry())
	o := observedCluster(cl)
	faults := func() *network.FaultPlan {
		return network.NewFaultPlan(42).SetDefault(network.EdgeFaults{
			DropProb:      0.10,
			TransientProb: 0.10,
		})
	}
	run := func() string {
		o.Audit.Reset()
		cl.Ledger.Reset()
		cl.SetFaults(faults())
		if _, _, err := RunParallelOpts(context.Background(), p, cl, o, ExecOptions{}); err != nil {
			t.Fatalf("chaos run: %v", err)
		}
		return o.Audit.String()
	}
	first := run()
	if first == "" {
		t.Fatal("audit log empty")
	}
	if !strings.Contains(first, "justification=") {
		t.Fatalf("records missing justification:\n%s", first)
	}
	for i := 0; i < 4; i++ {
		if got := run(); got != first {
			t.Fatalf("replay %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
	cl.SetFaults(nil)
}

// TestObservedSpansAndMetrics: the lifecycle spans and per-edge series
// the instrumentation promises actually appear.
func TestObservedSpansAndMetrics(t *testing.T) {
	p, cl := chaosPlan(t)
	o := observedCluster(cl)
	cl.Ledger.Reset()
	_, stats, err := RunParallelOpts(context.Background(), p, cl, o, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, s := range o.Tracer.Spans() {
		names[s.Name]++
	}
	if names["execute.parallel"] != 1 {
		t.Fatalf("want one execute.parallel span, got %d (%v)", names["execute.parallel"], names)
	}
	if names["exec.fragment"] != 3 {
		t.Fatalf("want 3 exec.fragment spans (one per Ship), got %d", names["exec.fragment"])
	}
	if names["ship.batch"] == 0 {
		t.Fatalf("no ship.batch spans recorded: %v", names)
	}
	var rows int64
	for _, edge := range [][2]string{{"N", "E"}, {"A", "E"}, {"E", "N"}} {
		rows += o.Metrics.CounterValue("cgdqp_ship_rows_total", "from", edge[0], "to", edge[1])
	}
	if rows != stats.ShippedRows {
		t.Fatalf("per-edge rows counters sum to %d, stats say %d", rows, stats.ShippedRows)
	}
	if o.Metrics.CounterValue("cgdqp_executions_total", "engine", "parallel", "status", "ok") != 1 {
		t.Fatal("execution counter not bumped")
	}
	if o.Metrics.Histogram("cgdqp_execute_seconds", "engine", "parallel").Count() != 1 {
		t.Fatal("execute latency histogram not observed")
	}

	// Sequential engine reports under its own labels.
	cl.Ledger.Reset()
	if _, _, err := RunObservedOpts(context.Background(), p, cl, o, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if o.Metrics.CounterValue("cgdqp_executions_total", "engine", "seq", "status", "ok") != 1 {
		t.Fatal("sequential execution counter not bumped")
	}
}

// TestObservedRetryMetrics: under chaos, retries surface both as spans
// and as per-edge retry counters plus fault-kind counters.
func TestObservedRetryMetrics(t *testing.T) {
	p, cl := chaosPlan(t)
	cl.SetRetry(chaosRetry())
	o := observedCluster(cl)
	cl.Ledger.Reset()
	cl.SetFaults(network.NewFaultPlan(7).SetDefault(network.EdgeFaults{
		DropProb:      0.25,
		TransientProb: 0.25,
	}))
	if _, stats, err := RunParallelOpts(context.Background(), p, cl, o, ExecOptions{}); err != nil {
		t.Fatal(err)
	} else if stats.Retries == 0 {
		t.Skip("seed produced no retries")
	}
	var retries int64
	for _, edge := range [][2]string{{"N", "E"}, {"A", "E"}, {"E", "N"}} {
		retries += o.Metrics.CounterValue("cgdqp_ship_retries_total", "from", edge[0], "to", edge[1])
	}
	if retries == 0 {
		t.Fatal("retry counters not bumped")
	}
	var faults int64
	for _, kind := range []string{"drop", "transient", "timeout", "partition", "other"} {
		faults += o.Metrics.CounterValue("cgdqp_ship_faults_total", "kind", kind)
	}
	if faults < retries {
		t.Fatalf("fault counters (%d) should cover every retried attempt (%d)", faults, retries)
	}
	spans := 0
	for _, s := range o.Tracer.Spans() {
		if s.Name == "ship.retry" {
			spans++
			if s.Attr("fault") == "" {
				t.Fatalf("ship.retry span missing fault attr: %+v", s)
			}
		}
	}
	if int64(spans) != retries {
		t.Fatalf("ship.retry spans %d != retry counter %d", spans, retries)
	}
	cl.SetFaults(nil)
}

// TestObservedProfileActuals: EXPLAIN ANALYZE actuals match reality on
// both engines — root rows equal the result, Ship nodes count batches.
func TestObservedProfileActuals(t *testing.T) {
	p, cl := chaosPlan(t)
	for _, engine := range []string{"seq", "parallel"} {
		prof := obs.NewPlanProfile()
		o := (&obs.Observer{}).WithProfile(prof)
		cl.Ledger.Reset()
		var rows []expr.Row
		var err error
		if engine == "seq" {
			rows, _, err = RunObservedOpts(context.Background(), p, cl, o, ExecOptions{})
		} else {
			rows, _, err = RunParallelOpts(context.Background(), p, cl, o, ExecOptions{})
		}
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		st := prof.Stats(p)
		if st.Rows.Load() != int64(len(rows)) {
			t.Fatalf("%s: root actual rows %d != result rows %d", engine, st.Rows.Load(), len(rows))
		}
		if st.Batches.Load() == 0 {
			t.Fatalf("%s: root Ship should count delivered batches", engine)
		}
		out := prof.Format(p)
		if !strings.Contains(out, "actual rows=") || strings.Contains(out, "(never executed)") {
			t.Fatalf("%s: profile rendering incomplete:\n%s", engine, out)
		}
	}
}
