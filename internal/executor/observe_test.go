package executor

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cgdqp/internal/cluster"
	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/obs"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/tpch"
	"cgdqp/internal/workload"
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

// scanNeeds walks an operator tree — through profiling wrappers, feeds
// and exchange producers — and lists every table scan's need set in
// tree order.
func scanNeeds(v reflect.Value, out *[]string) {
	opType := reflect.TypeOf((*BatchOperator)(nil)).Elem()
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if !v.IsNil() {
			scanNeeds(v.Elem(), out)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			scanNeeds(v.Index(i), out)
		}
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(scanOp{}) {
			need := v.FieldByName("need")
			cols := make([]bool, need.Len())
			for i := range cols {
				cols[i] = need.Index(i).Bool()
			}
			*out = append(*out, fmt.Sprintf("%s%v", v.FieldByName("node").Elem().FieldByName("Alias"), cols))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			switch ft := v.Field(i).Type(); {
			case ft == opType, ft == reflect.TypeOf(feed{}), ft == reflect.TypeOf([]BatchOperator(nil)),
				ft == reflect.TypeOf((*exchangeProducer)(nil)):
				scanNeeds(v.Field(i), out)
			}
		}
	}
}

// TestProfiledRunTakesThePlainPath holds EXPLAIN ANALYZE to running the
// query it explains: wrapping every operator in profiledOp must change
// neither which columns a scan decodes (the need sets are derived from
// plan nodes, not from operator types a wrapper would hide) nor the
// rows, their order or the RunStats — for every golden TPC-H query
// over the persistent store, under T and CR+A, in both exchange modes.
func TestProfiledRunTakesThePlainPath(t *testing.T) {
	cat := tpch.NewCatalog(0.001)
	net := network.FiveRegionWAN(cat.Locations())
	cl, err := cluster.NewWithStore(cat, net, &cluster.StoreConfig{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := tpch.Generate(cat, cl); err != nil {
		t.Fatal(err)
	}
	masked := 0
	for _, set := range []workload.SetName{workload.SetT, workload.SetCRA} {
		opt := optimizer.New(cat, workload.TPCHSet(set), net, optimizer.Options{Compliant: true})
		for _, name := range tpch.QueryNames() {
			res, err := opt.OptimizeSQL(tpch.Queries[name])
			if err != nil {
				t.Fatalf("%s/%s: %v", set, name, err)
			}
			for _, inline := range []bool{true, false} {
				label := fmt.Sprintf("%s/%s/inline=%v", set, name, inline)
				var needs [2][]string
				var rows [2][]expr.Row
				var stats [2]*RunStats
				for i, o := range []*obs.Observer{nil, (&obs.Observer{}).WithProfile(obs.NewPlanProfile())} {
					env := &execEnv{c: cl, scope: cl.NewRun(), ctx: context.Background(), obsv: o, inline: inline}
					root, err := build(res.Plan, env, nil)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					scanNeeds(reflect.ValueOf(root), &needs[i])
					if rows[i], stats[i], err = run(context.Background(), res.Plan, cl, o, ExecOptions{}, inline); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
				if len(needs[0]) == 0 || fmt.Sprint(needs[0]) != fmt.Sprint(needs[1]) {
					t.Errorf("%s: scans decode %v plain, %v profiled", label, needs[0], needs[1])
				}
				masked += strings.Count(fmt.Sprint(needs[0]), "false")
				sameRows(t, label, rows[1], rows[0])
				if *stats[0] != *stats[1] {
					t.Errorf("%s: stats %+v plain, %+v profiled", label, *stats[0], *stats[1])
				}
			}
		}
	}
	if masked == 0 {
		t.Error("no scan left a column out: the check is vacuous")
	}
}
