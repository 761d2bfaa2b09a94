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

// TestOptimizerSpansAndGauges: one optimization reports its phase times
// and the policy version it was made under, and populates the
// cache/policy-evaluator gauges.
func TestOptimizerSpansAndGauges(t *testing.T) {
	sc := carcoSchema()
	pc := carcoPolicies()
	opt := New(sc, pc, network.FiveRegionWAN(sc.Locations()),
		Options{Compliant: true, PlanCacheSize: 8})
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	opt.SetObserver(o)

	res, err := opt.OptimizeSQL(carcoQuery)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.PlanCacheHit || st.ParseTime <= 0 || st.NormalizeTime <= 0 || st.ExploreTime <= 0 ||
		st.ImplementTime <= 0 || st.SiteTime <= 0 {
		t.Fatalf("a miss should time every phase: %+v", st)
	}
	if res.PolicyVer != pc.Version() {
		t.Fatalf("PolicyVer = %d, want the catalog's %d", res.PolicyVer, pc.Version())
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

	// A repeat of the same SQL hits the fast path: no parse, no search.
	hit, err := opt.OptimizeSQL(carcoQuery)
	if err != nil {
		t.Fatal(err)
	}
	if st := hit.Stats; !st.PlanCacheHit || st.ParseTime != 0 || st.ExploreTime != 0 || hit.PolicyVer != pc.Version() {
		t.Fatalf("fast-path hit: %+v, policy version %d", st, hit.PolicyVer)
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
// never silent — Stats.Truncated and the truncation counter both say
// so — and it returns a plan that passes the
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
		o := &obs.Observer{Metrics: obs.NewRegistry()}
		opt.SetObserver(o)
		res, err := opt.OptimizeSQL(tpch.Queries["Q5"])
		truncated := maxExprs != 0
		if got := o.Metrics.CounterValue(counter) == 1; got != truncated {
			t.Fatalf("MaxExprs=%d: counter says truncated=%v, want %v", maxExprs, got, truncated)
		}
		if err != nil {
			if !errors.Is(err, ErrNoCompliantPlan) {
				t.Fatalf("MaxExprs=%d: %v, want a plan or ErrNoCompliantPlan", maxExprs, err)
			}
			continue
		}
		if res.Stats.Truncated != truncated {
			t.Fatalf("MaxExprs=%d: Stats.Truncated=%v, want %v", maxExprs, res.Stats.Truncated, truncated)
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
	locs := sc.Locations()
	from, to := locs[0], locs[1]
	net.SetEdge(from, to, net.Alpha(from, to)*2, net.Beta(from, to)) // a price change: cached plans are unreachable
	optimize(false)
	optimize(true)
	pc.Add(policy.MustParse("ship k from decoy to *", "decoy", "db-decoy"))
	optimize(false)
}
