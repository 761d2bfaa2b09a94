package cgdqp

import (
	"context"
	"runtime"
	"testing"

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
