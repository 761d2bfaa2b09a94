package cgdqp

import (
	"errors"
	"testing"

	"cgdqp/internal/network"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/policy"
	"cgdqp/internal/schema"
	"cgdqp/internal/tpch"
	"cgdqp/internal/workload"
)

// switchPolicySet replaces the catalog's expressions with the named
// TPC-H set's, moving its version.
func switchPolicySet(pc *policy.Catalog, set workload.SetName) {
	for _, id := range pc.IDs() {
		pc.Remove(id)
	}
	next := workload.TPCHSet(set)
	for _, db := range next.Databases() {
		pc.AddAll(next.ForDB(db)...)
	}
}

// sameOptimization reports how got differs from want, or "" when every
// observable of the two optimizations but their timings and cache flags
// is equal: plan and annotated tree, bit-equal costs, policy-evaluator
// counts, memo size, budget verdict and rejection.
func sameOptimization(got, want *optimizer.Result, gerr, werr error) string {
	switch {
	case (gerr == nil) != (werr == nil):
		return "error " + errString(gerr) + ", want " + errString(werr)
	case gerr != nil:
		if errors.Is(gerr, optimizer.ErrNoCompliantPlan) != errors.Is(werr, optimizer.ErrNoCompliantPlan) {
			return "verdict " + gerr.Error() + ", want " + werr.Error()
		}
		return ""
	case got.Plan.Format(true) != want.Plan.Format(true):
		return "plan:\n" + got.Plan.Format(true) + "want:\n" + want.Plan.Format(true)
	case got.Annotated.Format(true) != want.Annotated.Format(true):
		return "annotated tree:\n" + got.Annotated.Format(true) + "want:\n" + want.Annotated.Format(true)
	case got.PlanCost != want.PlanCost || got.ShipCost != want.ShipCost:
		return "costs differ"
	}
	g, w := got.Stats, want.Stats
	if g.Eta != w.Eta || g.ACalls != w.ACalls || g.AHits != w.AHits || g.Groups != w.Groups ||
		g.Exprs != w.Exprs || g.Truncated != w.Truncated {
		return "stats differ"
	}
	return ""
}

func errString(err error) string {
	if err == nil {
		return "none"
	}
	return err.Error()
}

// TestExploreCacheParity checks that reusing an explored memo across
// policy changes changes nothing but time. One optimizer with the plan
// cache on cycles through the TPC-H policy sets twice over the golden
// queries and 30 generated ones; every optimization must equal a fresh
// cache-less optimizer's under the same set, run over the same query
// sequence so that both evaluators' memos are equally warm. After the
// first set every exploration comes from the cache, and a statistics
// publish forces a fresh one.
func TestExploreCacheParity(t *testing.T) {
	cat := tpch.NewCatalog(0.01)
	net := network.FiveRegionWAN(cat.Locations())
	pc := policy.NewCatalog()
	opt := optimizer.New(cat, pc, net, optimizer.Options{Compliant: true, PlanCacheSize: optimizer.DefaultPlanCacheSize})

	var queries []string
	for _, name := range tpch.QueryNames() {
		queries = append(queries, tpch.Queries[name])
	}
	queries = append(queries, workload.NewQueryGen(7).Generate(30)...)

	sets := []workload.SetName{workload.SetT, workload.SetC, workload.SetCR, workload.SetCRA, workload.SetT}
	compared, rejected := 0, 0
	for cycle := 0; cycle < 2; cycle++ {
		for si, set := range sets {
			switchPolicySet(pc, set)
			ref := optimizer.New(cat, workload.TPCHSet(set), net, optimizer.Options{Compliant: true})
			for qi, sql := range queries {
				got, gerr := opt.OptimizeSQL(sql)
				want, werr := ref.OptimizeSQL(sql)
				if d := sameOptimization(got, want, gerr, werr); d != "" {
					t.Fatalf("cycle %d, set %s, query %d: %s\n%s", cycle, set, qi, d, sql)
				}
				compared++
				if gerr != nil {
					rejected++
					continue
				}
				if got.Stats.PlanCacheHit {
					t.Fatalf("cycle %d, set %s, query %d: plan-cache hit across a policy switch", cycle, set, qi)
				}
				if wantHit := cycle > 0 || si > 0; got.Stats.ExploreHit != wantHit {
					t.Fatalf("cycle %d, set %s, query %d: explore hit %v, want %v", cycle, set, qi, got.Stats.ExploreHit, wantHit)
				}
			}
		}
	}
	if st := opt.PlanCacheStats(); st.ExploreEvictions != 0 || st.ExploreMisses != int64(len(queries)) {
		t.Errorf("explore cache %+v: want one miss per query and no eviction", st)
	}
	t.Logf("%d optimizations compared, %d rejected by both", compared, rejected)

	// A statistics publish moves the schema version: the next
	// optimization explores afresh and matches a fresh optimizer's. The
	// set is re-installed too, so that both evaluators start cold.
	if err := cat.SetColStats("lineitem", "orderkey", schema.ColStats{Distinct: 3}); err != nil {
		t.Fatal(err)
	}
	switchPolicySet(pc, workload.SetT)
	ref := optimizer.New(cat, workload.TPCHSet(workload.SetT), net, optimizer.Options{Compliant: true})
	for _, name := range tpch.QueryNames() {
		got, gerr := opt.OptimizeSQL(tpch.Queries[name])
		want, werr := ref.OptimizeSQL(tpch.Queries[name])
		if d := sameOptimization(got, want, gerr, werr); d != "" {
			t.Fatalf("%s after a statistics publish: %s", name, d)
		}
		if gerr == nil && (got.Stats.ExploreHit || got.Stats.PlanCacheHit) {
			t.Fatalf("%s after a statistics publish was served from a cache", name)
		}
	}
}
