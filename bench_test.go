package cgdqp

// Optimizer benchmarks: the design-choice ablations (DESIGN.md "Design
// choices") and per-query optimization time. The paper's panels are
// regenerated by cmd/experiments, end-to-end numbers by benchmark/.

import (
	"fmt"
	"testing"

	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/policy"
	"cgdqp/internal/schema"
	"cgdqp/internal/tpch"
	"cgdqp/internal/workload"
)

// benchSF is the TPC-H scale factor whose statistics the optimizer
// benchmarks plan against (no data is generated).
const benchSF = 0.01

// --- ablation benchmarks (DESIGN.md "Design choices") --------------------

func ablationOptimizer(opts optimizer.Options) (*optimizer.Optimizer, string) {
	cat := tpch.NewCatalog(benchSF)
	net := network.FiveRegionWAN(cat.Locations())
	pc := workload.TPCHSet(workload.SetCRA)
	opts.Compliant = true
	// Deliver results at L1 (the customer/orders site): under CR+A only
	// aggregated lineitem data may reach L1, so the Figure 5(e) rewrite
	// is mandatory.
	opts.ResultLocation = "L1"
	return optimizer.New(cat, pc, net, opts), tpch.Queries["Q3"]
}

// carcoAblation builds the Section 2 scenario with the result pinned to
// Asia: delivering there needs a costlier orders-aggregation alternative
// that a single-best memo (MaxAlts=1) prunes away.
func carcoAblation(opts optimizer.Options) (*optimizer.Optimizer, string) {
	cat := schemaCarCo()
	net := network.FiveRegionWAN(cat.Locations())
	pc := policy.NewCatalog()
	pc.AddAll(
		policy.MustParse("ship custkey, name, mktseg, region from Customer to *", "pn", "db-n"),
		policy.MustParse("ship custkey, ordkey from Orders to *", "pe1", "db-e"),
		policy.MustParse("ship totprice as aggregates sum from Orders to A group by custkey, ordkey", "pe2", "db-e"),
		policy.MustParse("ship quantity, extprice as aggregates sum from Supply to E group by ordkey", "pa", "db-a"),
	)
	opts.Compliant = true
	opts.ResultLocation = "A"
	q := `SELECT C.name, SUM(O.totprice) AS total, SUM(S.quantity) AS qty
	      FROM Customer C, Orders O, Supply S
	      WHERE C.custkey = O.custkey AND O.ordkey = S.ordkey
	      GROUP BY C.name`
	return optimizer.New(cat, pc, net, opts), q
}

func schemaCarCo() *schema.Catalog {
	cat := schema.NewCatalog()
	c := schema.NewTable("Customer", "db-n", "N", 1000,
		schema.Column{Name: "custkey", Type: expr.TInt},
		schema.Column{Name: "name", Type: expr.TString},
		schema.Column{Name: "acctbal", Type: expr.TFloat},
		schema.Column{Name: "mktseg", Type: expr.TString},
		schema.Column{Name: "region", Type: expr.TString})
	c.SetColStats("custkey", schema.ColStats{Distinct: 1000})
	o := schema.NewTable("Orders", "db-e", "E", 10000,
		schema.Column{Name: "custkey", Type: expr.TInt},
		schema.Column{Name: "ordkey", Type: expr.TInt},
		schema.Column{Name: "totprice", Type: expr.TFloat})
	o.SetColStats("ordkey", schema.ColStats{Distinct: 10000})
	o.SetColStats("custkey", schema.ColStats{Distinct: 1000})
	sp := schema.NewTable("Supply", "db-a", "A", 40000,
		schema.Column{Name: "ordkey", Type: expr.TInt},
		schema.Column{Name: "quantity", Type: expr.TInt},
		schema.Column{Name: "extprice", Type: expr.TFloat})
	sp.SetColStats("ordkey", schema.ColStats{Distinct: 10000})
	cat.MustAddTable(c)
	cat.MustAddTable(o)
	cat.MustAddTable(sp)
	return cat
}

// BenchmarkAblationTraitSubsets compares the default Pareto width
// (MaxAlts=12) against a single-best memo (MaxAlts=1): collapsing the
// trait subsets loses the costlier-but-wider-shipping alternatives that
// deliver the CarCo result in Asia, so the query is (incorrectly)
// rejected.
func BenchmarkAblationTraitSubsets(b *testing.B) {
	for _, alts := range []int{1, 4, 12} {
		b.Run(fmt.Sprintf("maxAlts=%d", alts), func(b *testing.B) {
			opt, q := carcoAblation(optimizer.Options{MaxAlts: alts})
			found := 0
			for i := 0; i < b.N; i++ {
				if _, err := opt.OptimizeSQL(q); err == nil {
					found++
				}
			}
			b.ReportMetric(float64(found)/float64(b.N), "plans/op")
		})
	}
}

// BenchmarkAblationAggPushdown measures the cost and necessity of the
// aggregation-pushdown rule: without it Q3 under CR+A is rejected
// (Section 6.4's completeness discussion).
func BenchmarkAblationAggPushdown(b *testing.B) {
	for _, disabled := range []bool{false, true} {
		b.Run(fmt.Sprintf("disabled=%v", disabled), func(b *testing.B) {
			opt, q := ablationOptimizer(optimizer.Options{DisableAggPushdown: disabled})
			found := 0
			for i := 0; i < b.N; i++ {
				if _, err := opt.OptimizeSQL(q); err == nil {
					found++
				}
			}
			b.ReportMetric(float64(found)/float64(b.N), "plans/op")
		})
	}
}

// BenchmarkAblationSiteSelector compares Algorithm 2's dynamic
// programming against a greedy placement where placement freedom is
// maximal (no compliance constraints narrow the execution traits); the
// metric is the summed estimated communication cost over the six TPC-H
// queries. Greedy placement pays ~25% more on the multi-join queries
// (Q2, Q5, Q9).
func BenchmarkAblationSiteSelector(b *testing.B) {
	cat := tpch.NewCatalog(benchSF)
	net := network.FiveRegionWAN(cat.Locations())
	pc := workload.TPCHSet(workload.SetT)
	for _, greedy := range []bool{false, true} {
		name := "algorithm2"
		if greedy {
			name = "greedy"
		}
		b.Run(name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				total = 0
				opt := optimizer.New(cat, pc, net, optimizer.Options{Compliant: false, GreedySiteSelection: greedy})
				for _, qn := range tpch.QueryNames() {
					res, err := opt.OptimizeSQL(tpch.Queries[qn])
					if err != nil {
						b.Fatal(err)
					}
					total += optimizer.ShippingCost(res.Plan, net)
				}
			}
			b.ReportMetric(total, "shipms/op")
		})
	}
}

// BenchmarkAblationImplication compares the full range-subsumption
// implication test against the syntactic-equality-only variant. The
// scenario: lineitem rows may reach L1 only when shipdate > 1995-01-01,
// and Q3 (whose predicate shipdate > 1995-03-15 IMPLIES the grant, but
// not syntactically) must deliver its result at L1. The full test finds
// the plan; the syntactic variant soundly-but-incompletely rejects it.
func BenchmarkAblationImplication(b *testing.B) {
	cat := tpch.NewCatalog(benchSF)
	net := network.FiveRegionWAN(cat.Locations())
	pc := policy.NewCatalog()
	pc.AddAll(
		policy.MustParse("ship * from db-5.region to *", "i1", ""),
		policy.MustParse("ship * from db-5.nation to *", "i2", ""),
		policy.MustParse("ship * from db-1.customer to *", "i3", ""),
		policy.MustParse("ship * from db-1.orders to *", "i4", ""),
		policy.MustParse("ship orderkey, extendedprice, discount, shipdate from db-4.lineitem to L1 where shipdate > DATE '1995-01-01'", "i5", ""),
	)
	for _, mode := range []struct {
		name string
		mode expr.ImplicationMode
	}{{"full", expr.ImplicationFull}, {"syntactic", expr.ImplicationSyntactic}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := optimizer.New(cat, pc, net, optimizer.Options{
					Compliant:       true,
					ImplicationMode: mode.mode,
					ResultLocation:  "L1",
				})
				found := 0.0
				if _, err := opt.OptimizeSQL(tpch.Queries["Q3"]); err == nil {
					found = 1
				}
				b.ReportMetric(found, "plans/op")
			}
		})
	}
}

// --- per-query optimization micro-benchmarks -----------------------------

// BenchmarkOptimizeTPCH measures per-query compliant optimization time
// under CR+A (the headline optimization-overhead numbers). Each
// iteration builds a fresh optimizer, so this is the cold path: empty
// policy cache, no plan cache.
func BenchmarkOptimizeTPCH(b *testing.B) {
	cat := tpch.NewCatalog(benchSF)
	net := network.FiveRegionWAN(cat.Locations())
	pc := workload.TPCHSet(workload.SetCRA)
	for _, qn := range tpch.QueryNames() {
		b.Run(qn, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opt := optimizer.New(cat, pc, net, optimizer.Options{Compliant: true})
				if _, err := opt.OptimizeSQL(tpch.Queries[qn]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptimizeTPCHWarmPolicy shares one optimizer across
// iterations: the sharded policy-evaluator cache is warm, but every
// iteration still explores, implements and places the plan (no plan
// cache). The gap to BenchmarkOptimizeTPCH is what policy memoization
// buys; the gap to .../WarmPlan is what full optimization still costs.
func BenchmarkOptimizeTPCHWarmPolicy(b *testing.B) {
	cat := tpch.NewCatalog(benchSF)
	net := network.FiveRegionWAN(cat.Locations())
	pc := workload.TPCHSet(workload.SetCRA)
	for _, qn := range tpch.QueryNames() {
		b.Run(qn, func(b *testing.B) {
			b.ReportAllocs()
			opt := optimizer.New(cat, pc, net, optimizer.Options{Compliant: true})
			if _, err := opt.OptimizeSQL(tpch.Queries[qn]); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := opt.OptimizeSQL(tpch.Queries[qn]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptimizeTPCHWarmPlan measures the whole-plan cache hit path:
// normalize + digest + deep clone of the cached result.
func BenchmarkOptimizeTPCHWarmPlan(b *testing.B) {
	cat := tpch.NewCatalog(benchSF)
	net := network.FiveRegionWAN(cat.Locations())
	pc := workload.TPCHSet(workload.SetCRA)
	for _, qn := range tpch.QueryNames() {
		b.Run(qn, func(b *testing.B) {
			b.ReportAllocs()
			opt := optimizer.New(cat, pc, net, optimizer.Options{
				Compliant: true, PlanCacheSize: optimizer.DefaultPlanCacheSize})
			if _, err := opt.OptimizeSQL(tpch.Queries[qn]); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := opt.OptimizeSQL(tpch.Queries[qn])
				if err != nil {
					b.Fatal(err)
				}
				if !res.Stats.PlanCacheHit {
					b.Fatal("expected a plan-cache hit")
				}
			}
		})
	}
}

// BenchmarkOptimizeTPCHParallel drives one shared optimizer from
// GOMAXPROCS goroutines round-robining over all queries (plan cache on):
// the concurrent front-end under contention.
func BenchmarkOptimizeTPCHParallel(b *testing.B) {
	cat := tpch.NewCatalog(benchSF)
	net := network.FiveRegionWAN(cat.Locations())
	pc := workload.TPCHSet(workload.SetCRA)
	opt := optimizer.New(cat, pc, net, optimizer.Options{
		Compliant: true, PlanCacheSize: optimizer.DefaultPlanCacheSize})
	names := tpch.QueryNames()
	for _, qn := range names {
		if _, err := opt.OptimizeSQL(tpch.Queries[qn]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			qn := names[i%len(names)]
			i++
			if _, err := opt.OptimizeSQL(tpch.Queries[qn]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
