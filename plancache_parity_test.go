package cgdqp

import (
	"os"
	"path/filepath"
	"testing"

	"cgdqp/internal/network"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/policy"
	"cgdqp/internal/tpch"
	"cgdqp/internal/workload"
)

// TestPlanCacheParity checks the whole-plan cache against the golden
// snapshots: for every TPC-H evaluation query, a warm cache hit must
// render the byte-identical plan the cold optimization produced (and
// that testdata/plans records), a policy-catalog change must invalidate
// the entry, and mutating a returned plan must not corrupt the cached
// copy.
func TestPlanCacheParity(t *testing.T) {
	cat := tpch.NewCatalog(0.01)
	net := network.FiveRegionWAN(cat.Locations())
	pc := workload.TPCHSet(workload.SetCR)
	opt := optimizer.New(cat, pc, net, optimizer.Options{Compliant: true, PlanCacheSize: 16})

	coldPlans := map[string]string{}
	for _, name := range tpch.QueryNames() {
		sql := tpch.Queries[name]

		cold, err := opt.OptimizeSQL(sql)
		if err != nil {
			t.Fatalf("%s: cold optimize: %v", name, err)
		}
		if cold.Stats.PlanCacheHit {
			t.Fatalf("%s: first optimization reported a plan-cache hit", name)
		}
		coldPlan := cold.Plan.Format(true)
		coldPlans[name] = coldPlan

		warm, err := opt.OptimizeSQL(sql)
		if err != nil {
			t.Fatalf("%s: warm optimize: %v", name, err)
		}
		if !warm.Stats.PlanCacheHit {
			t.Fatalf("%s: second optimization missed the plan cache", name)
		}
		warmPlan := warm.Plan.Format(true)
		if warmPlan != coldPlan {
			t.Errorf("%s: warm plan differs from cold plan:\n--- warm ---\n%s\n--- cold ---\n%s",
				name, warmPlan, coldPlan)
		}
		golden, err := os.ReadFile(filepath.Join("testdata", "plans", name+".golden"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if warmPlan != string(golden) {
			t.Errorf("%s: warm plan differs from golden snapshot", name)
		}
		if warm.ShipCost != cold.ShipCost || warm.PlanCost != cold.PlanCost {
			t.Errorf("%s: cached costs drifted: ship %v vs %v, plan %v vs %v",
				name, warm.ShipCost, cold.ShipCost, warm.PlanCost, cold.PlanCost)
		}

		// Results are deep clones: scribbling on one must not leak into
		// the cache.
		warm.Plan.Loc = "CORRUPTED"
		warm.Plan.Children = nil
		again, err := opt.OptimizeSQL(sql)
		if err != nil {
			t.Fatalf("%s: re-fetch: %v", name, err)
		}
		if !again.Stats.PlanCacheHit {
			t.Fatalf("%s: re-fetch missed the plan cache", name)
		}
		if got := again.Plan.Format(true); got != coldPlan {
			t.Errorf("%s: cached plan corrupted by caller mutation:\n%s", name, got)
		}
	}

	// A policy change — here a decoy grant over a database no query
	// reads — moves the catalog version; every cached plan keyed on the
	// old version must be invisible afterwards, and re-optimizing must
	// find the same plans.
	pc.Add(policy.MustParse("ship k from decoy to *", "decoy", "db-decoy"))
	for _, name := range tpch.QueryNames() {
		res, err := opt.OptimizeSQL(tpch.Queries[name])
		if err != nil {
			t.Fatalf("%s: post-change optimize: %v", name, err)
		}
		if res.Stats.PlanCacheHit {
			t.Errorf("%s: plan-cache hit across a policy-catalog change", name)
		}
		if res.Plan.Format(true) != coldPlans[name] {
			t.Errorf("%s: a decoy grant changed the plan", name)
		}
	}
}
