package optimizer

import (
	"errors"
	"testing"

	"cgdqp/internal/network"
	"cgdqp/internal/obs"
	"cgdqp/internal/plan"
	"cgdqp/internal/policy"
	"cgdqp/internal/tpch"
	"cgdqp/internal/workload"
)

// TestOptimizerSpansAndGauges: one optimization emits the phase spans
// and populates the cache/policy-evaluator gauges.
func TestOptimizerSpansAndGauges(t *testing.T) {
	sc := carcoSchema()
	opt := New(sc, carcoPolicies(), network.FiveRegionWAN(sc.Locations()),
		Options{Compliant: true, PlanCacheSize: 8})
	o := &obs.Observer{Tracer: obs.NewTracer(), Metrics: obs.NewRegistry()}
	opt.SetObserver(o)

	if _, err := opt.OptimizeSQL(carcoQuery); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	var optSpan obs.SpanRec
	for _, s := range o.Tracer.Spans() {
		names[s.Name]++
		if s.Name == "optimize" {
			optSpan = s
		}
	}
	for _, want := range []string{"sql.parse_bind", "optimize.sql_fast_path", "optimize",
		"optimize.normalize", "optimize.explore", "optimize.implement", "optimize.site_select"} {
		if names[want] != 1 {
			t.Fatalf("want one %q span, got %d (all: %v)", want, names[want], names)
		}
	}
	if optSpan.Attr("cache") != "miss" || optSpan.Attr("outcome") != "ok" {
		t.Fatalf("optimize span tags wrong: %+v", optSpan.Attrs)
	}
	if o.Metrics.CounterValue("cgdqp_optimizations_total", "cache", "miss", "status", "ok") != 1 {
		t.Fatal("miss counter not bumped")
	}
	if o.Metrics.Histogram("cgdqp_optimize_seconds").Count() != 1 {
		t.Fatal("optimize latency not observed")
	}
	if o.Metrics.Gauge("cgdqp_plan_cache_len").Value() != 1 {
		t.Fatalf("plan cache len gauge = %v, want 1", o.Metrics.Gauge("cgdqp_plan_cache_len").Value())
	}
	if o.Metrics.Gauge("cgdqp_policy_eval_calls").Value() == 0 {
		t.Fatal("policy evaluator call gauge not populated")
	}

	// A repeat of the same SQL hits the fast path and reports a hit.
	o.Tracer.Reset()
	if _, err := opt.OptimizeSQL(carcoQuery); err != nil {
		t.Fatal(err)
	}
	hitTagged := false
	for _, s := range o.Tracer.Spans() {
		if s.Name == "optimize.sql_fast_path" && s.Attr("cache") == "hit" {
			hitTagged = true
		}
		if s.Name == "optimize.explore" {
			t.Fatal("cache hit should not re-explore")
		}
	}
	if !hitTagged {
		t.Fatalf("fast-path hit span missing: %+v", o.Tracer.Spans())
	}
	if o.Metrics.CounterValue("cgdqp_optimizations_total", "cache", "hit", "status", "ok") != 1 {
		t.Fatal("hit counter not bumped")
	}
	if o.Metrics.Gauge("cgdqp_plan_cache_hits").Value() != 1 {
		t.Fatal("plan cache hit gauge not updated")
	}
}

// TestOptimizerObserverOffIsFree: with no observer attached,
// optimization emits nothing and costs no extra allocations for hooks
// (smoke check — the hard <2% bound lives in the benchmark report).
func TestOptimizerObserverOffIsFree(t *testing.T) {
	opt := carcoOptimizer(t, true)
	if _, err := opt.OptimizeSQL(carcoQuery); err != nil {
		t.Fatal(err)
	}
	// No panic, no observer: nothing to assert beyond success; the
	// nil-receiver contract is covered in internal/obs.
}

// TestBudgetTruncationIsReported: a Q5 search cut short by MaxExprs is
// never silent — Stats.Truncated, the optimize span and the truncation
// counter all say so — and it returns a plan that passes the
// Definition-1 checker or ErrNoCompliantPlan, never an unannotated
// plan. An untruncated search reports none of it.
func TestBudgetTruncationIsReported(t *testing.T) {
	cat := tpch.NewCatalog(0.01)
	net := network.FiveRegionWAN(cat.Locations())
	pc := workload.TPCHSet(workload.SetCR)
	const counter = "cgdqp_optimizer_budget_truncated_total"
	// The ladder follows the untruncated search's size, so it keeps
	// testing truncation when the memo gets smaller.
	full, err := New(cat, pc, net, Options{Compliant: true}).OptimizeSQL(tpch.Queries["Q5"])
	if err != nil {
		t.Fatal(err)
	}
	n := full.Stats.Exprs
	for _, maxExprs := range []int{1, n / 100, n / 10, n / 2, 0} {
		opt := New(cat, pc, net, Options{Compliant: true, MaxExprs: maxExprs, PlanCacheSize: 4})
		o := &obs.Observer{Tracer: obs.NewTracer(), Metrics: obs.NewRegistry()}
		opt.SetObserver(o)
		res, err := opt.OptimizeSQL(tpch.Queries["Q5"])
		var optSpan obs.SpanRec
		for _, s := range o.Tracer.Spans() {
			if s.Name == "optimize" {
				optSpan = s
			}
		}
		truncated := optSpan.Attr("truncated") == "true"
		if got := o.Metrics.CounterValue(counter) == 1; got != truncated {
			t.Fatalf("MaxExprs=%d: counter says truncated=%v, span says %v", maxExprs, got, truncated)
		}
		if wantTruncated := maxExprs != 0; truncated != wantTruncated {
			t.Fatalf("MaxExprs=%d: truncated=%v, want %v", maxExprs, truncated, wantTruncated)
		}
		if err != nil {
			if !errors.Is(err, ErrNoCompliantPlan) {
				t.Fatalf("MaxExprs=%d: %v, want a plan or ErrNoCompliantPlan", maxExprs, err)
			}
			continue
		}
		if res.Stats.Truncated != truncated {
			t.Fatalf("MaxExprs=%d: Stats.Truncated=%v, span says %v", maxExprs, res.Stats.Truncated, truncated)
		}
		if vs := opt.Check(res.Plan); len(vs) != 0 {
			t.Fatalf("MaxExprs=%d: truncated search emitted a non-compliant plan: %v", maxExprs, vs)
		}
		res.Plan.Walk(func(n *plan.Node) bool {
			if n.Loc == "" {
				t.Fatalf("MaxExprs=%d: operator %s has no location", maxExprs, n.Kind)
			}
			return true
		})
		// The cached copy remembers how it was found.
		hit, err := opt.OptimizeSQL(tpch.Queries["Q5"])
		if err != nil || !hit.Stats.PlanCacheHit || hit.Stats.Truncated != truncated {
			t.Fatalf("MaxExprs=%d: plan-cache hit lost the flag: %+v, %v", maxExprs, hit.Stats, err)
		}
	}
}

// TestVersionGauges: the versions the plan cache keys on are published
// next to its counters, so a flush can be attributed to the one that
// moved.
func TestVersionGauges(t *testing.T) {
	sc := carcoSchema()
	pc := carcoPolicies()
	net := network.FiveRegionWAN(sc.Locations())
	opt := New(sc, pc, net, Options{Compliant: true, PlanCacheSize: 8})
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	opt.SetObserver(o)
	optimize := func(wantHit bool) {
		t.Helper()
		res, err := opt.OptimizeSQL(carcoQuery)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.PlanCacheHit != wantHit {
			t.Fatalf("plan-cache hit = %v, want %v", res.Stats.PlanCacheHit, wantHit)
		}
		if got, want := o.Metrics.Gauge("cgdqp_policy_version").Value(), float64(pc.Version()); got != want {
			t.Fatalf("cgdqp_policy_version = %v, want %v", got, want)
		}
		if got, want := o.Metrics.Gauge("cgdqp_costmodel_version").Value(), float64(net.Version()); got != want {
			t.Fatalf("cgdqp_costmodel_version = %v, want %v", got, want)
		}
	}
	optimize(false)
	optimize(true)
	net.SetByteScale(1.5) // a price change: cached plans are unreachable
	optimize(false)
	optimize(true)
	pc.Add(policy.MustParse("ship k from decoy to *", "decoy", "db-decoy"))
	optimize(false)
}
