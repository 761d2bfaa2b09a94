package optimizer

import (
	"sync"
	"testing"

	"cgdqp/internal/network"
	"cgdqp/internal/policy"
	"cgdqp/internal/sqlparse"
	"cgdqp/internal/tpch"
	"cgdqp/internal/workload"
)

// installSet replaces the catalog's expressions with the named TPC-H
// set's, moving its version.
func installSet(pc *policy.Catalog, set workload.SetName) {
	for _, id := range pc.IDs() {
		pc.Remove(id)
	}
	next := workload.TPCHSet(set)
	for _, db := range next.Databases() {
		pc.AddAll(next.ForDB(db)...)
	}
}

// TestPlanCacheHitReportsCachedCounts: a plan-cache hit reports the
// policy-evaluator counts of the optimization that filled the entry —
// η, calls and cache hits alike.
func TestPlanCacheHitReportsCachedCounts(t *testing.T) {
	cat := tpch.NewCatalog(0.01)
	net := network.FiveRegionWAN(cat.Locations())
	opt := New(cat, workload.TPCHSet(workload.SetCRA), net, Options{Compliant: true, PlanCacheSize: 16})
	hits := int64(0)
	for _, qn := range tpch.QueryNames() {
		miss, err := opt.OptimizeSQL(tpch.Queries[qn])
		if err != nil {
			t.Fatal(err)
		}
		hit, err := opt.OptimizeSQL(tpch.Queries[qn])
		if err != nil {
			t.Fatal(err)
		}
		if miss.Stats.PlanCacheHit || !hit.Stats.PlanCacheHit {
			t.Fatalf("%s: plan-cache hits %v then %v, want false then true", qn, miss.Stats.PlanCacheHit, hit.Stats.PlanCacheHit)
		}
		m, h := miss.Stats, hit.Stats
		if h.Eta != m.Eta || h.ACalls != m.ACalls || h.AHits != m.AHits {
			t.Errorf("%s: hit reports η=%d calls=%d hits=%d, the optimization that filled it η=%d calls=%d hits=%d",
				qn, h.Eta, h.ACalls, h.AHits, m.Eta, m.ACalls, m.AHits)
		}
		hits += m.AHits
	}
	if hits == 0 {
		t.Fatal("no optimization hit the evaluator memo: the test checks nothing")
	}
}

// TestExploreCacheBound feeds more distinct query shapes than the
// explore cache holds: its cost never exceeds PlanCacheSize × 64
// expressions, it evicts, and it keeps what fits.
func TestExploreCacheBound(t *testing.T) {
	cat := tpch.NewCatalog(0.01)
	net := network.FiveRegionWAN(cat.Locations())
	const size = 4
	opt := New(cat, workload.TPCHSet(workload.SetT), net, Options{Compliant: true, PlanCacheSize: size})
	budget := int64(size * exprsPerPlan)
	explored := int64(0)
	for i, sql := range workload.NewQueryGen(3).Generate(60) {
		res, err := opt.OptimizeSQL(sql)
		if err == nil {
			explored += int64(res.Stats.Exprs)
		}
		pc := opt.planCache
		pc.mu.Lock()
		cost, n := pc.explored.Cost(), pc.explored.Len()
		pc.mu.Unlock()
		if cost > budget {
			t.Fatalf("query %d: explore cache holds %d expressions in %d memos, budget %d", i, cost, n, budget)
		}
	}
	st := opt.PlanCacheStats()
	if explored <= budget || st.ExploreEvictions == 0 || opt.planCache.explored.Len() == 0 {
		t.Fatalf("explored %d expressions against a budget of %d: %+v", explored, budget, st)
	}
}

// TestConcurrentImplementsAfterPolicySwitch: right after a policy switch
// eight goroutines optimize the golden queries through one optimizer.
// Each misses the plan cache and hits the explore cache, so several
// Implement passes run over one shared memo. The memos were explored but
// never implemented, so under `make race` a write by any pass meets
// another's read; indexes put the access paths into those passes. Every
// result equals a sequential, cache-less optimizer's.
func TestConcurrentImplementsAfterPolicySwitch(t *testing.T) {
	cat := tpch.NewCatalog(0.01)
	for table, col := range map[string]string{"orders": "orderdate", "lineitem": "orderkey", "customer": "custkey"} {
		if err := cat.AddIndex(table, col); err != nil {
			t.Fatal(err)
		}
	}
	net := network.FiveRegionWAN(cat.Locations())
	pc := workload.TPCHSet(workload.SetCR)
	// 64 × 64 expressions: room for Q5's 3,053.
	opt := New(cat, pc, net, Options{Compliant: true, PlanCacheSize: 64})
	names := tpch.QueryNames()
	for _, qn := range names {
		logical, err := sqlparse.ParseAndBind(tpch.Queries[qn], cat)
		if err != nil {
			t.Fatal(err)
		}
		norm := Normalize(logical)
		opt.explore(norm, opt.cacheKey(norm.Digest()))
	}

	type outcome struct {
		plan               string
		planCost, shipCost float64
	}
	ref := map[string]outcome{}
	refOpt := New(cat, workload.TPCHSet(workload.SetCRA), net, Options{Compliant: true})
	for _, qn := range names {
		res, err := refOpt.OptimizeSQL(tpch.Queries[qn])
		if err != nil {
			t.Fatal(err)
		}
		ref[qn] = outcome{res.Plan.Format(true), res.PlanCost, res.ShipCost}
	}

	installSet(pc, workload.SetCRA)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range names {
				qn := names[(i+w)%len(names)]
				res, err := opt.OptimizeSQL(tpch.Queries[qn])
				if err != nil {
					t.Errorf("worker %d %s: %v", w, qn, err)
					return
				}
				if got := (outcome{res.Plan.Format(true), res.PlanCost, res.ShipCost}); got != ref[qn] {
					t.Errorf("worker %d %s: differs from the sequential reference:\n%s", w, qn, got.plan)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := opt.PlanCacheStats(); st.ExploreHits < int64(len(names)) {
		t.Errorf("explore cache %+v: want every golden query's first miss after the switch to hit", st)
	}
}
