package cgdqp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cgdqp/internal/policy"
)

// End-to-end contracts of the result-set cache through the public API:
// each versioned state (per-table data epochs, the policy catalog's
// version) flushes exactly the caches that read it and nothing else
// (DESIGN.md, "What invalidates what"), and no interleaving of loads,
// policy changes and queries can make a cached result diverge from a
// fresh execution.

// rcFixture builds a three-table geo-distributed system. Misc is an
// unused decoy table: grants added for it move the policy epoch without
// being able to change any query's plan. Results are pinned to Asia so
// every query's output must legally ship — revoking the grant a query
// depends on then has no local-placement escape hatch.
func rcFixture(t *testing.T, opts Options) *System {
	t.Helper()
	opts.ResultLocation = "Asia"
	sys := NewSystemWith(opts)
	sys.MustDefineTable("Customer", "db-n", "NorthAmerica", 40,
		Col("custkey", TInt), Col("name", TString), Col("acctbal", TFloat))
	sys.MustDefineTable("Orders", "db-e", "Europe", 120,
		Col("custkey", TInt), Col("ordkey", TInt), Col("totprice", TFloat))
	sys.MustDefineTable("Misc", "db-a", "Asia", 10,
		Col("k", TInt), Col("v", TString))
	sys.MustAddPolicy("ship custkey, name, acctbal from Customer to *")  // p1
	sys.MustAddPolicy("ship custkey, ordkey, totprice from Orders to *") // p2
	var cRows, oRows []Row
	for i := 0; i < 40; i++ {
		cRows = append(cRows, Row{Int(int64(i)), String(fmt.Sprintf("cust-%02d", i)), Float(float64(i))})
	}
	for i := 0; i < 120; i++ {
		oRows = append(oRows, Row{Int(int64(i % 40)), Int(int64(i)), Float(float64(10 + i))})
	}
	sys.MustLoad("Customer", cRows)
	sys.MustLoad("Orders", oRows)
	return sys
}

const (
	rcJoinQuery  = "SELECT c.name, o.totprice FROM Customer c, Orders o WHERE c.custkey = o.custkey AND o.totprice > 100"
	rcAggQuery   = "SELECT COUNT(*), SUM(o.totprice) FROM Orders o"
	rcLocalQuery = "SELECT c.name FROM Customer c WHERE c.acctbal > 20"
)

// TestEpochIndependence pins down which epoch flushes which cache — and
// which it must leave alone:
//
//   - a load into one table re-executes only the queries that consume
//     it (data epoch; plan cache untouched),
//   - an added grant flushes the plan cache and rechecks cached
//     results, which survive when their provenance is still compliant
//     (policy-catalog version; no re-execution),
//   - a revoked load-bearing grant makes the dependent query fail with
//     ErrNoCompliantPlan while independent queries keep their cached
//     results.
//
// The middle case is the regression for a missed-invalidation bug:
// policy changes used to drop the whole optimizer, which flushed
// correctly here but left any server holding the old optimizer with a
// stale evaluator. Policy changes keep the optimizer; its caches read
// the catalog's version (see TestServeObservesPolicyRevocation for the
// serving half, TestDirectCatalogRevocation for changes made behind
// the facade's back).
func TestEpochIndependence(t *testing.T) {
	sys := rcFixture(t, Options{ResultCacheBytes: 16 << 20})
	run := func(sql string) *Result {
		t.Helper()
		res, err := sys.Query(sql)
		if err != nil {
			t.Fatalf("query %q: %v", sql, err)
		}
		return res
	}

	// Warm both entries, then prove they are warm.
	run(rcJoinQuery)
	run(rcAggQuery)
	if r := run(rcJoinQuery); !r.Cached {
		t.Fatal("join query not cached after first run")
	}
	if r := run(rcAggQuery); !r.Cached {
		t.Fatal("agg query not cached after first run")
	}
	base := sys.ResultCacheStats()
	basePlan := sys.PlanCacheStats()

	// 1. Data epoch: a load into Customer re-executes the join (which
	// reads Customer) but not the aggregate (which reads only Orders),
	// and does not touch the plan cache.
	// custkey 20 matches order i=100 (totprice 110 > 100), so the new
	// customer appears in the join output.
	sys.MustLoad("Customer", []Row{{Int(20), String("cust-new"), Float(500)}})
	joinAfterLoad := run(rcJoinQuery)
	if joinAfterLoad.Cached {
		t.Fatal("stale join served after load into Customer")
	}
	found := false
	for _, row := range joinAfterLoad.Rows {
		if strings.Contains(row[0].String(), "cust-new") {
			found = true
		}
	}
	if !found {
		t.Fatal("re-executed join does not see the newly loaded row")
	}
	if r := run(rcAggQuery); !r.Cached {
		t.Fatal("load into Customer evicted the Orders-only aggregate")
	}
	st := sys.ResultCacheStats()
	if st.InvalidatedData != base.InvalidatedData+1 {
		t.Fatalf("expected exactly one data invalidation, stats %+v (base %+v)", st, base)
	}
	if st.InvalidatedPolicy != base.InvalidatedPolicy {
		t.Fatalf("load bumped the policy side: %+v", st)
	}
	if ps := sys.PlanCacheStats(); ps.Misses != basePlan.Misses {
		t.Fatalf("load flushed the plan cache: %+v (base %+v)", ps, basePlan)
	}

	// 2. Policy version: a grant on the decoy table cannot change any
	// plan, so the plan cache re-optimizes (its key moved) while cached
	// results survive via provenance recheck — no re-execution.
	base = sys.ResultCacheStats()
	basePlan = sys.PlanCacheStats()
	epoch := sys.PolicyEpoch()
	sys.MustAddPolicy("ship k, v from Misc to *")
	if got := sys.PolicyEpoch(); got != epoch+1 {
		t.Fatalf("policy epoch %d after grant, want %d", got, epoch+1)
	}
	if r := run(rcJoinQuery); !r.Cached {
		t.Fatal("compliant cached join dropped by an unrelated grant")
	}
	if r := run(rcAggQuery); !r.Cached {
		t.Fatal("compliant cached aggregate dropped by an unrelated grant")
	}
	st = sys.ResultCacheStats()
	if st.Rechecked != base.Rechecked+2 {
		t.Fatalf("expected both entries rechecked once, stats %+v (base %+v)", st, base)
	}
	if st.Fills != base.Fills || st.InvalidatedPolicy != base.InvalidatedPolicy {
		t.Fatalf("unrelated grant forced re-execution: %+v (base %+v)", st, base)
	}
	if ps := sys.PlanCacheStats(); ps.Misses == basePlan.Misses {
		t.Fatalf("policy change did not flush the plan cache: %+v (base %+v)", ps, basePlan)
	}

	// 3. Revocation: removing the Customer grant must fail the join with
	// ErrNoCompliantPlan — not serve the cached result — while the
	// Orders-only aggregate keeps its entry.
	if !sys.RemovePolicy("p1") {
		t.Fatal("RemovePolicy(p1) found nothing")
	}
	if _, err := sys.Query(rcJoinQuery); !errors.Is(err, ErrNoCompliantPlan) {
		t.Fatalf("join after revoking its grant: err=%v, want ErrNoCompliantPlan", err)
	}
	if r := run(rcAggQuery); !r.Cached {
		t.Fatal("revoking the Customer grant dropped the Orders aggregate")
	}
}

// TestServeObservesPolicyRevocation is the serving half of the
// missed-invalidation regression: a sched.Server obtained from Serve
// holds the optimizer across policy changes, and before the fix its
// evaluator never saw them — revoked grants kept producing "compliant"
// plans (and cache hits) forever. Now a revocation made *after* the
// server started must fail subsequent submissions.
func TestServeObservesPolicyRevocation(t *testing.T) {
	sys := rcFixture(t, Options{ResultCacheBytes: 16 << 20, Parallel: true})
	srv := sys.Serve(ServeOptions{MaxConcurrent: 2})
	defer srv.Close()

	ctx := context.Background()
	first, err := srv.Do(ctx, rcJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Rows) == 0 {
		t.Fatal("join returned no rows")
	}
	again, err := srv.Do(ctx, rcJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("second submission not served from the shared result cache")
	}

	if !sys.RemovePolicy("p1") {
		t.Fatal("RemovePolicy(p1) found nothing")
	}
	if _, err := srv.Do(ctx, rcJoinQuery); !errors.Is(err, ErrNoCompliantPlan) {
		t.Fatalf("server served a query after its grant was revoked: err=%v", err)
	}
	// The revocation is table-scoped: Orders-only queries still serve.
	if _, err := srv.Do(ctx, rcAggQuery); err != nil {
		t.Fatalf("Orders aggregate after unrelated revocation: %v", err)
	}
}

// TestResultCachePropertyInterleavings drives random seeded
// interleavings of loads, policy grants, revocations (through the
// facade and directly on the exported catalog) and queries against a
// lockstep pair of systems — one with the result cache, one
// without — over identical data. After every query both must agree on
// the error class and, on success, on rows and shipping statistics:
// the uncached system is the oracle, so any divergence means the cache
// served a stale or non-compliant result.
func TestResultCachePropertyInterleavings(t *testing.T) {
	queries := []string{rcJoinQuery, rcAggQuery, rcLocalQuery}
	grants := []string{
		"ship custkey, name, acctbal from Customer to *",
		"ship custkey, ordkey, totprice from Orders to *",
		"ship k, v from Misc to *",
	}
	grantDBs := []string{"db-n", "db-e", "db-a"}
	seeds := 8
	opsPerSeed := 60
	if testing.Short() {
		seeds, opsPerSeed = 3, 30
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			cached := rcFixture(t, Options{ResultCacheBytes: 16 << 20})
			plain := rcFixture(t, Options{})
			both := []*System{cached, plain}

			nextRow := 1000
			direct := 0
			queried := false
			for op := 0; op < opsPerSeed; op++ {
				switch rng.Intn(10) {
				case 0, 1: // load fresh rows into a random table
					table := []string{"Customer", "Orders"}[rng.Intn(2)]
					var rows []Row
					n := 1 + rng.Intn(3)
					for i := 0; i < n; i++ {
						k := int64(nextRow)
						nextRow++
						if table == "Customer" {
							rows = append(rows, Row{Int(k), String(fmt.Sprintf("cust-%d", k)), Float(float64(k))})
						} else {
							rows = append(rows, Row{Int(k % 40), Int(k), Float(float64(100 + k))})
						}
					}
					for _, sys := range both {
						if err := sys.Load(table, rows); err != nil {
							t.Fatalf("op %d: load %s: %v", op, table, err)
						}
					}
				case 2: // add a grant (may duplicate an existing one)
					g := grants[rng.Intn(len(grants))]
					for _, sys := range both {
						if err := sys.AddPolicy(g); err != nil {
							t.Fatalf("op %d: add policy: %v", op, err)
						}
					}
				case 3: // revoke a random policy; both must agree it existed
					ids := cached.PolicyIDs()
					if len(ids) == 0 {
						continue
					}
					id := ids[rng.Intn(len(ids))]
					rc, rp := cached.RemovePolicy(id), plain.RemovePolicy(id)
					if rc != rp {
						t.Fatalf("op %d: removal of %s diverged: cached=%v plain=%v", op, id, rc, rp)
					}
				case 4: // mutate sys.Policies directly, behind the facade's back
					if ids := cached.PolicyIDs(); len(ids) > 0 && rng.Intn(2) == 0 {
						id := ids[rng.Intn(len(ids))]
						for _, sys := range both {
							sys.Policies.Remove(id)
						}
						continue
					}
					direct++
					g := rng.Intn(len(grants))
					for _, sys := range both {
						sys.Policies.Add(policy.MustParse(grants[g], fmt.Sprintf("direct-%d", direct), grantDBs[g]))
					}
				default: // query both and compare against the oracle
					q := queries[rng.Intn(len(queries))]
					resC, errC := cached.Query(q)
					resP, errP := plain.Query(q)
					if (errC == nil) != (errP == nil) {
						t.Fatalf("op %d: %q diverged: cached err=%v, oracle err=%v", op, q, errC, errP)
					}
					if errC != nil {
						if !errors.Is(errC, ErrNoCompliantPlan) || !errors.Is(errP, ErrNoCompliantPlan) {
							t.Fatalf("op %d: %q unexpected errors: cached=%v oracle=%v", op, q, errC, errP)
						}
						continue
					}
					queried = true
					gc, gp := renderRows(resC.Rows), renderRows(resP.Rows)
					if len(gc) != len(gp) {
						t.Fatalf("op %d: %q row counts diverged: cached %d, oracle %d (cached-hit=%v)",
							op, q, len(gc), len(gp), resC.Cached)
					}
					for i := range gp {
						if gc[i] != gp[i] {
							t.Fatalf("op %d: %q row %d diverged (cached-hit=%v):\ncached %s\noracle %s",
								op, q, i, resC.Cached, gc[i], gp[i])
						}
					}
					if resC.ShippedBytes != resP.ShippedBytes || resC.ShipCost != resP.ShipCost {
						t.Fatalf("op %d: %q stats diverged (cached-hit=%v): cached {%d %v}, oracle {%d %v}",
							op, q, resC.Cached, resC.ShippedBytes, resC.ShipCost, resP.ShippedBytes, resP.ShipCost)
					}
				}
			}
			if !queried {
				t.Fatal("interleaving never compared a successful query")
			}
			st := cached.ResultCacheStats()
			t.Logf("seed %d: cache stats %+v", seed, st)
		})
	}
}
