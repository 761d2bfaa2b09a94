package cgdqp

import (
	"context"
	"runtime"
	"testing"

	"cgdqp/internal/network"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/tpch"
	"cgdqp/internal/workload"
)

// TestWarmExecAllocBudget is the tier-1 tripwire behind the benchmark's
// warm_exec allocation metrics: the six golden TPC-H queries at SF 0.003
// over the persistent store, plans cached and pages pool-resident,
// served under the T and CR+A policy sets. The counts repeat to a
// fraction of a percent, so a bound some way above today's ~2.4k
// allocations and ~1.5 MB per query (183k and 58 MB before the executor
// stopped building rows it does not emit) catches the next operator
// that materializes per candidate, per row or per dropped column —
// in seconds, without a benchmark run.
func TestWarmExecAllocBudget(t *testing.T) {
	const (
		rounds        = 3
		maxAllocs     = 8_000
		maxAllocBytes = 10 << 20
	)
	sys := NewSystemWith(Options{DataDir: t.TempDir(), Parallel: true})
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
