package cgdqp

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"cgdqp/internal/network"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/tpch"
	"cgdqp/internal/workload"
)

// raceAllocScale multiplies the allocation budgets; race_test.go raises
// it under -race.
var raceAllocScale uint64 = 1

// TestWarmExecAllocBudget is the tier-1 tripwire behind the benchmark's
// warm_exec allocation metrics: the six golden TPC-H queries at SF 0.003
// over the persistent store, plans cached and pages pool-resident,
// served under the T and CR+A policy sets. The counts repeat to a
// fraction of a percent, so a bound about 1.45x today's ~1.35k
// allocations (183k and 58 MB before the executor stopped building
// rows it does not emit, 2.4k before resident pages kept their decoded
// columns, 1.8k before the aggregate and sort emitted vectors, 1.58k
// and 1.45 MB before SHIP reused its frames, 1.45k and 1.1 MB before
// joins and exchanges pooled their run storage) catches the next
// operator that materializes per candidate, per row or per dropped
// column, or a scan that re-parses resident pages — in seconds, without
// a benchmark run. The bytes vary with the GCs that fall in the window,
// which drop pooled storage (0.15 MB per query with none, up to 0.92 MB
// with two), so their bound is 1.4x the worst of those.
func TestWarmExecAllocBudget(t *testing.T) {
	const rounds = 3
	maxAllocs, maxAllocBytes := 1_950*raceAllocScale, uint64(1_320<<10)*raceAllocScale
	sys := NewSystemWith(Options{DataDir: t.TempDir()})
	sys.Schema = tpch.NewCatalog(0.003)
	if err := sys.Open(); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := tpch.Generate(sys.Schema, sys.Cluster()); err != nil {
		t.Fatal(err)
	}
	srv := sys.Serve(ServeOptions{})
	defer srv.Close()
	golden := func() {
		for _, name := range tpch.QueryNames() {
			if _, err := srv.Do(context.Background(), tpch.Queries[name]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	for _, set := range []workload.SetName{workload.SetT, workload.SetCRA} {
		for _, id := range sys.PolicyIDs() {
			sys.RemovePolicy(id)
		}
		pc := workload.TPCHSet(set)
		for _, db := range pc.Databases() {
			for _, e := range pc.ForDB(db) {
				if err := sys.AddPolicy(e.String()); err != nil {
					t.Fatal(err)
				}
			}
		}
		golden() // plans into the cache, pages into the pool
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for r := 0; r < rounds; r++ {
			golden()
		}
		runtime.ReadMemStats(&m1)
		n := uint64(rounds * len(tpch.QueryNames()))
		allocs, bytes := (m1.Mallocs-m0.Mallocs)/n, (m1.TotalAlloc-m0.TotalAlloc)/n
		t.Logf("%s: %d allocs, %.2f MB per query", set, allocs, float64(bytes)/(1<<20))
		if allocs > maxAllocs || bytes > maxAllocBytes {
			t.Errorf("%s: %d allocs / %d bytes per query, budget %d / %d", set, allocs, bytes, maxAllocs, maxAllocBytes)
		}
	}
}

// TestServeRetainsNothingPerQuery is the leak tripwire beside the
// allocation budgets: a System serving queries keeps no per-query state
// once they have returned. demoQuery crosses three sites (two SHIP
// edges) and is executed every time — no result cache — so each query
// opens a run ledger with two shipments. A cumulative ledger that
// nothing trims, as the cluster kept until every run accounted only in
// its own scope, retains at least 2 × 56 B per query for the life of the
// process. In the ad-hoc case every query differs in one literal, so
// each misses the plan cache and leaves two new local queries in the
// policy evaluator's memo; warm-up runs past the bounds of the plan
// cache, its query-text memo and the evaluator memo, after which an
// unbounded memo would retain ~560 B per query.
func TestServeRetainsNothingPerQuery(t *testing.T) {
	const maxBytesPerQuery = 16
	for _, c := range []struct {
		name             string
		warmup, measured int
		query            func(i int) string
	}{
		{"repeated", 500, 4_000, func(int) string { return demoQuery }},
		{"ad_hoc", 3_000, 4_000, func(i int) string {
			return strings.Replace(demoQuery, "GROUP BY", fmt.Sprintf("AND O.totprice <> %d GROUP BY", 10_000+i), 1)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys := demoSystem(t)
			srv := sys.Serve(ServeOptions{})
			defer srv.Close()
			served := 0
			serve := func(n int) {
				for ; n > 0; n-- {
					if _, err := srv.Do(context.Background(), c.query(served)); err != nil {
						t.Fatal(err)
					}
					served++
				}
			}
			heap := func() uint64 {
				runtime.GC()
				runtime.GC()
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				return m.HeapAlloc
			}
			serve(c.warmup) // caches fill, pools and lazily built state settle
			h0 := heap()
			serve(c.measured)
			h1 := heap()
			growth := (float64(h1) - float64(h0)) / float64(c.measured)
			n, bound := sys.evalMemo()
			t.Logf("live heap %d -> %d bytes: %.1f B retained per query; evaluator memo %d of %d", h0, h1, growth, n, bound)
			if growth >= maxBytesPerQuery {
				t.Errorf("%.1f B of live heap retained per served query, want < %d", growth, maxBytesPerQuery)
			}
			if n > bound {
				t.Errorf("evaluator memo holds %d entries, bound %d", n, bound)
			}
		})
	}
}

// TestColdPlanSearchBudget is the tier-1 tripwire behind the benchmark's
// cold_plan numbers: Q5 and Q8 — the two searches that are its tail —
// optimized cold by a fresh optimizer under T and CR+A. The memo counts
// are exact and the allocation counts repeat to a fraction of a percent,
// so bounds a little above today's values (520 groups / 3,053
// expressions / ~165k allocations for Q5, 62 / 282 / ~16k for Q8; 3,906 /
// 14,933 / 795k and 610 / 2,890 / 300k when a group was one join tree
// rather than one relation) catch the next rule that re-fragments the
// memo, and the next alternative built only to be thrown away, in
// seconds.
func TestColdPlanSearchBudget(t *testing.T) {
	cat := tpch.NewCatalog(0.01)
	net := network.FiveRegionWAN(cat.Locations())
	for _, c := range []struct {
		query                 string
		groups, exprs, allocs int
	}{
		{"Q5", 540, 3_150, 180_000},
		{"Q8", 65, 295, 17_000},
	} {
		for _, set := range []workload.SetName{workload.SetT, workload.SetCRA} {
			pc := workload.TPCHSet(set)
			var res *optimizer.Result
			allocs := testing.AllocsPerRun(2, func() {
				var err error
				res, err = optimizer.New(cat, pc, net, optimizer.Options{Compliant: true}).OptimizeSQL(tpch.Queries[c.query])
				if err != nil {
					t.Fatal(err)
				}
			})
			st := res.Stats
			t.Logf("%s under %s: %d groups, %d exprs, %.0f allocs", c.query, set, st.Groups, st.Exprs, allocs)
			if st.Groups > c.groups || st.Exprs > c.exprs || int(allocs) > c.allocs {
				t.Errorf("%s under %s: %d groups / %d exprs / %.0f allocs, budget %d / %d / %d",
					c.query, set, st.Groups, st.Exprs, allocs, c.groups, c.exprs, c.allocs)
			}
		}
	}
}
