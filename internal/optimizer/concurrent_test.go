package optimizer

import (
	"sync"
	"testing"

	"cgdqp/internal/leakcheck"
	"cgdqp/internal/network"
	"cgdqp/internal/policy"
	"cgdqp/internal/tpch"
	"cgdqp/internal/workload"
)

// The tests optimize from many goroutines: none may outlive its test.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// TestConcurrentOptimizeSQL drives one shared optimizer from eight
// goroutines over all golden TPC-H queries (run under `make race`). The
// shared surface under test: the interned SiteSet universe, the
// policy-evaluator memo with its per-Optimize EvalStats handles, and
// the whole-plan LRU cache. Every goroutine must observe the identical
// rendered plan for every query, with or without a plan-cache hit.
func TestConcurrentOptimizeSQL(t *testing.T) {
	cat := tpch.NewCatalog(0.01)
	net := network.FiveRegionWAN(cat.Locations())
	pc := workload.TPCHSet(workload.SetCRA)
	opt := New(cat, pc, net, Options{Compliant: true, PlanCacheSize: 32})

	names := tpch.QueryNames()

	// Reference plans from a sequential pass on a private optimizer.
	ref := make(map[string]string, len(names))
	refOpt := New(cat, pc, net, Options{Compliant: true})
	for _, qn := range names {
		res, err := refOpt.OptimizeSQL(tpch.Queries[qn])
		if err != nil {
			t.Fatalf("%s: %v", qn, err)
		}
		ref[qn] = res.Plan.Format(true)
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Two rounds so later rounds exercise warm policy- and
			// plan-cache paths; staggered start index so goroutines
			// collide on different queries.
			for round := 0; round < 2; round++ {
				for i := range names {
					qn := names[(i+w)%len(names)]
					res, err := opt.OptimizeSQL(tpch.Queries[qn])
					if err != nil {
						t.Errorf("worker %d %s: %v", w, qn, err)
						return
					}
					if got := res.Plan.Format(true); got != ref[qn] {
						t.Errorf("worker %d %s: plan differs from sequential reference:\n%s", w, qn, got)
						return
					}
					// η may be 0 on a fully-warm policy cache (it counts
					// expressions considered on cache misses), but every
					// compliant optimization invokes 𝒜 at least once.
					if res.Stats.ACalls == 0 {
						t.Errorf("worker %d %s: per-optimize stats lost (η=%d, 𝒜=%d)",
							w, qn, res.Stats.Eta, res.Stats.ACalls)
						return
					}
				}
				// One worker changes the catalog mid-flight (a decoy grant
				// no query reads): version-stamped caches must serve only
				// same-version entries, never torn state.
				if w == 0 && round == 0 {
					pc.Add(policy.MustParse("ship k from decoy to *", "decoy", "db-decoy"))
				}
			}
		}(w)
	}
	wg.Wait()

	pcs := opt.PlanCacheStats()
	if pcs.Hits == 0 {
		t.Error("expected some plan-cache hits across 8 workers × 2 rounds")
	}
}
