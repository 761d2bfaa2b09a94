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

// TestObservedAuditMatchesStats: every Ship edge is audited once with
// its justification, and the audited volume equals the run's own ledger
// stats.
func TestObservedAuditMatchesStats(t *testing.T) {
	p, cl := chaosPlan(t)
	o := observedCluster(cl)

	_, stats, err := RunParallelOpts(context.Background(), p, cl, o, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vol := edgeVolume(o.Audit)
	if len(vol) != 3 {
		t.Fatalf("expected 3 audited edges, got %d:\n%s", len(vol), o.Audit.String())
	}
	var rows, bytes int64
	for _, v := range vol {
		rows += v[0]
		bytes += v[1]
	}
	if rows != stats.ShippedRows || bytes != stats.ShippedBytes {
		t.Fatalf("audited %d rows / %d bytes vs stats %d / %d", rows, bytes, stats.ShippedRows, stats.ShippedBytes)
	}
}

// TestObservedAuditDeterministicReplay: replaying the same chaos seed
// must render a byte-identical audit log whatever the goroutine
// interleaving.
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

// TestObservedSpansAndMetrics: the per-edge series and execution
// metrics the instrumentation promises actually appear.
func TestObservedSpansAndMetrics(t *testing.T) {
	p, cl := chaosPlan(t)
	o := observedCluster(cl)
	_, stats, err := RunParallelOpts(context.Background(), p, cl, o, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var rows, bytes, batches int64
	for _, edge := range [][2]string{{"N", "E"}, {"A", "E"}, {"E", "N"}} {
		rows += o.Metrics.CounterValue("cgdqp_ship_rows_total", "from", edge[0], "to", edge[1])
		bytes += o.Metrics.CounterValue("cgdqp_ship_bytes_total", "from", edge[0], "to", edge[1])
		batches += o.Metrics.CounterValue("cgdqp_ship_batches_total", "from", edge[0], "to", edge[1])
	}
	if rows != stats.ShippedRows || bytes != stats.ShippedBytes {
		t.Fatalf("per-edge counters sum to %d rows / %d bytes, stats say %d / %d", rows, bytes, stats.ShippedRows, stats.ShippedBytes)
	}
	if batches == 0 {
		t.Fatal("no shipped batches counted")
	}
	if o.Metrics.CounterValue("cgdqp_executions_total", "status", "ok") != 1 {
		t.Fatal("execution counter not bumped")
	}
	if o.Metrics.Histogram("cgdqp_execute_seconds").Count() != 1 {
		t.Fatal("execute latency histogram not observed")
	}
}

// TestObservedRetryMetrics: under chaos, retries surface as per-edge
// retry counters, which sum to the run's own count, plus fault-kind
// counters.
func TestObservedRetryMetrics(t *testing.T) {
	p, cl := chaosPlan(t)
	cl.SetRetry(chaosRetry())
	o := observedCluster(cl)
	cl.SetFaults(network.NewFaultPlan(7).SetDefault(network.EdgeFaults{
		DropProb:      0.25,
		TransientProb: 0.25,
	}))
	_, stats, err := RunParallelOpts(context.Background(), p, cl, o, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	} else if stats.Retries == 0 {
		t.Skip("seed produced no retries")
	}
	var retries int64
	for _, edge := range [][2]string{{"N", "E"}, {"A", "E"}, {"E", "N"}} {
		retries += o.Metrics.CounterValue("cgdqp_ship_retries_total", "from", edge[0], "to", edge[1])
	}
	if retries != stats.Retries {
		t.Fatalf("retry counters sum to %d, the run retried %d sends", retries, stats.Retries)
	}
	var faults int64
	for _, kind := range []string{"drop", "transient", "timeout", "partition", "other"} {
		faults += o.Metrics.CounterValue("cgdqp_ship_faults_total", "kind", kind)
	}
	if faults < retries {
		t.Fatalf("fault counters (%d) should cover every retried attempt (%d)", faults, retries)
	}
	cl.SetFaults(nil)
}

// TestObservedProfileActuals: EXPLAIN ANALYZE actuals match reality —
// root rows equal the result, Ship nodes count batches.
func TestObservedProfileActuals(t *testing.T) {
	p, cl := chaosPlan(t)
	prof := obs.NewPlanProfile()
	o := (&obs.Observer{}).WithProfile(prof)
	rows, _, err := RunParallelOpts(context.Background(), p, cl, o, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := prof.Stats(p)
	if st.Rows.Load() != int64(len(rows)) {
		t.Fatalf("root actual rows %d != result rows %d", st.Rows.Load(), len(rows))
	}
	if st.Batches.Load() == 0 {
		t.Fatal("root Ship should count delivered batches")
	}
	out := prof.Format(p)
	if !strings.Contains(out, "actual rows=") || strings.Contains(out, "(never executed)") {
		t.Fatalf("profile rendering incomplete:\n%s", out)
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
// over the persistent store, under T and CR+A.
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
			label := fmt.Sprintf("%s/%s", set, name)
			var needs [2][]string
			var rows [2][]expr.Row
			var stats [2]*RunStats
			for i, o := range []*obs.Observer{nil, (&obs.Observer{}).WithProfile(obs.NewPlanProfile())} {
				env := &execEnv{c: cl, scope: cl.NewRun(), ctx: context.Background(), obsv: o}
				root, err := build(res.Plan, env, nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				scanNeeds(reflect.ValueOf(root), &needs[i])
				if rows[i], stats[i], err = RunParallelOpts(context.Background(), res.Plan, cl, o, ExecOptions{}); err != nil {
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
	if masked == 0 {
		t.Error("no scan left a column out: the check is vacuous")
	}
}
