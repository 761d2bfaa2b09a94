package cgdqp

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"cgdqp/internal/policy"
	"cgdqp/internal/schema"
)

// Invalidation by construction: the policy catalog versions itself and
// every cache reads that version, so a change made through *any* handle
// on the catalog — not only the facade's AddPolicy/RemovePolicy — is
// observed by the evaluator memo, the plan cache, the result cache and
// the Definition-1 checker, in System.Query and in a Server started
// before the change.

// TestDirectCatalogRevocation mutates the exported catalog directly.
// An unrelated grant moves PolicyEpoch by exactly one and cached results
// survive it by recheck; removing the grant the join's only compliant
// plan needs makes the next submission fail — neither the result cache
// nor the plan cache answers it — and the checker flags the plan
// returned earlier.
func TestDirectCatalogRevocation(t *testing.T) {
	for _, front := range []string{"System.Query", "Server.Do"} {
		t.Run(front, func(t *testing.T) {
			sys := rcFixture(t, Options{ResultCacheBytes: 16 << 20})
			// do runs a query, reporting whether the result cache served it.
			do := func(sql string) (bool, error) {
				res, err := sys.Query(sql)
				if err != nil {
					return false, err
				}
				return res.Cached, nil
			}
			if front == "Server.Do" {
				srv := sys.Serve(ServeOptions{MaxConcurrent: 2}) // before any mutation
				defer srv.Close()
				do = func(sql string) (bool, error) {
					resp, err := srv.Do(context.Background(), sql)
					if err != nil {
						return false, err
					}
					return resp.CacheHit, nil
				}
			}
			run := func(wantCached bool) {
				t.Helper()
				cached, err := do(rcJoinQuery)
				if err != nil {
					t.Fatal(err)
				}
				if cached != wantCached {
					t.Fatalf("served from the result cache = %v, want %v", cached, wantCached)
				}
			}
			run(false)
			run(true)
			before, err := sys.Explain(rcJoinQuery)
			if err != nil {
				t.Fatal(err)
			}
			if !before.Stats.PlanCacheHit {
				t.Fatal("plan not cached after two runs")
			}
			if vs := sys.CheckCompliance(before); len(vs) != 0 {
				t.Fatalf("plan flagged while its grant is in force: %v", vs)
			}

			// An unrelated grant: one version step, results survive by
			// recheck, no re-execution.
			epoch, st := sys.PolicyEpoch(), sys.ResultCacheStats()
			sys.Policies.Add(policy.MustParse("ship k, v from Misc to *", "direct-1", "db-a"))
			if got := sys.PolicyEpoch(); got != epoch+1 {
				t.Fatalf("PolicyEpoch %d after a direct Add, want %d", got, epoch+1)
			}
			run(true)
			if got := sys.ResultCacheStats(); got.Rechecked != st.Rechecked+1 || got.Fills != st.Fills {
				t.Fatalf("unrelated grant: want one recheck and no fill, stats %+v (before %+v)", got, st)
			}

			// Revoking the load-bearing grant behind the system's back.
			if !sys.Policies.Remove("p1") {
				t.Fatal("Remove(p1) found nothing")
			}
			if _, err := do(rcJoinQuery); !errors.Is(err, ErrNoCompliantPlan) {
				t.Fatalf("join after its grant was removed: err=%v, want ErrNoCompliantPlan", err)
			}
			if _, err := sys.Explain(rcJoinQuery); !errors.Is(err, ErrNoCompliantPlan) {
				t.Fatalf("Explain after the removal: err=%v, want ErrNoCompliantPlan", err)
			}
			if vs := sys.CheckCompliance(before); len(vs) == 0 {
				t.Fatal("checker still passes the plan that ships the revoked relation")
			}
			// The revocation is table-scoped: Orders-only queries still run.
			if _, err := do(rcAggQuery); err != nil {
				t.Fatalf("Orders aggregate after an unrelated revocation: %v", err)
			}
		})
	}
}

// TestSetColumnStatsDropsCachedPlans: a statistics change goes through
// the same invalidation as Analyze and DefineIndex. Here it flips the
// join order, so a stale plan-cache hit would be visibly the wrong plan.
func TestSetColumnStatsDropsCachedPlans(t *testing.T) {
	sys := NewSystem()
	for _, tb := range []string{"R", "S", "T"} {
		sys.MustDefineTable(tb, "db", "L", 1000, Col("a", TInt), Col("b", TInt))
		sys.MustAddPolicy("ship a, b from " + tb + " to *")
	}
	const q = "SELECT r.a, t.b FROM R r, S s, T t WHERE r.a = s.a AND s.b = t.b"
	stats := func(aDistinct, bDistinct int64) {
		t.Helper()
		for _, tb := range []string{"R", "S", "T"} {
			if err := sys.SetColumnStats(tb, "a", aDistinct, Int(0), Int(aDistinct)); err != nil {
				t.Fatal(err)
			}
			if err := sys.SetColumnStats(tb, "b", bDistinct, Int(0), Int(bDistinct)); err != nil {
				t.Fatal(err)
			}
		}
	}
	explain := func() *Plan {
		t.Helper()
		p, err := sys.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	stats(1000, 2) // r⋈s is selective, s⋈t explodes
	first := explain()
	if again := explain(); !again.Stats.PlanCacheHit || again.String() != first.String() {
		t.Fatal("repeated Explain under unchanged statistics is not a plan-cache hit")
	}
	stats(2, 1000) // the other way round
	second := explain()
	if second.Stats.PlanCacheHit {
		t.Fatal("Explain after SetColumnStats was served from the plan cache")
	}
	if second.String() == first.String() {
		t.Fatalf("statistics that reverse the join selectivities left the plan unchanged:\n%s", second)
	}
}

// TestCatalogPointerSwapRebuildsOptimizer: assigning a different catalog
// to the exported Policies or Schema field after the optimizer exists
// must not keep planning against the old one.
func TestCatalogPointerSwapRebuildsOptimizer(t *testing.T) {
	sys := rcFixture(t, Options{})
	if _, err := sys.Explain(rcJoinQuery); err != nil {
		t.Fatal(err)
	}
	held := sys.Optimizer()
	if sys.Optimizer() != held {
		t.Fatal("Optimizer() rebuilt without a reason")
	}

	// A policy catalog without the Customer grant.
	old := sys.Policies
	sys.Policies = policy.NewCatalog()
	for _, e := range old.ForDB("db-e") {
		sys.Policies.Add(e)
	}
	if _, err := sys.Explain(rcJoinQuery); !errors.Is(err, ErrNoCompliantPlan) {
		t.Fatalf("Explain after swapping in a catalog without the grant: err=%v, want ErrNoCompliantPlan", err)
	}
	if sys.Optimizer() == held || sys.Optimizer().Policies != sys.Policies {
		t.Fatal("optimizer still built over the old policy catalog")
	}
	sys.Policies = old
	if _, err := sys.Explain(rcJoinQuery); err != nil {
		t.Fatalf("Explain after swapping the original catalog back: %v", err)
	}

	// A schema catalog that knows one more table.
	held = sys.Optimizer()
	next := schema.NewCatalog()
	for _, tb := range sys.Schema.Tables() {
		if err := next.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	if err := next.AddTable(schema.NewTable("Extra", "db-a", "Asia", 5, Col("x", TInt))); err != nil {
		t.Fatal(err)
	}
	sys.Schema = next
	p, err := sys.Explain("SELECT e.x FROM Extra e")
	if err != nil {
		t.Fatalf("query over a table only the new schema catalog knows: %v", err)
	}
	if sys.Optimizer() == held || !strings.Contains(p.String(), "Extra") {
		t.Fatalf("optimizer not rebuilt over the new schema catalog:\n%s", p)
	}
}

// TestConcurrentCatalogChurn mutates the exported catalog from one
// goroutine while clients query a Server started earlier (run under
// `make race`). Decoy grants cannot change any answer, so every
// submission must succeed with the same rows whichever catalog version
// it planned, rechecked or hit under; the revocation that ends the
// churn must be seen by the very next submission.
func TestConcurrentCatalogChurn(t *testing.T) {
	sys := rcFixture(t, Options{ResultCacheBytes: 16 << 20, Parallel: true})
	srv := sys.Serve(ServeOptions{MaxConcurrent: 4})
	defer srv.Close()
	ctx := context.Background()
	want := map[string]int{}
	for _, q := range []string{rcJoinQuery, rcAggQuery, rcLocalQuery} {
		resp, err := srv.Do(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = len(resp.Rows)
	}

	var clients sync.WaitGroup
	for c := 0; c < 4; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			qs := []string{rcJoinQuery, rcAggQuery, rcLocalQuery}
			for i := 0; i < 40; i++ {
				q := qs[(c+i)%len(qs)]
				resp, err := srv.Do(ctx, q)
				if err != nil {
					t.Errorf("client %d: %q under decoy churn: %v", c, q, err)
					return
				}
				if len(resp.Rows) != want[q] {
					t.Errorf("client %d: %q returned %d rows, want %d", c, q, len(resp.Rows), want[q])
					return
				}
			}
		}(c)
	}
	decoy := policy.MustParse("ship k, v from Misc to *", "decoy", "db-a")
	for i := 0; i < 200; i++ {
		sys.Policies.Add(decoy)
		sys.Policies.Remove("decoy")
	}
	clients.Wait()

	sys.Policies.Remove("p1")
	if _, err := srv.Do(ctx, rcJoinQuery); !errors.Is(err, ErrNoCompliantPlan) {
		t.Fatalf("join after the churn ended in a revocation: err=%v, want ErrNoCompliantPlan", err)
	}
}

// TestServeObservesAnalyze is TestSetColumnStatsDropsCachedPlans with
// the statistics flipped *after* Serve: the schema catalog versions
// itself like the policy catalog, so the Server's optimizer — the same
// one the system holds, never rebuilt — re-plans once under the new
// statistics, keeps its counters, and keeps its evaluator memo
// (statistics never change a policy verdict).
func TestServeObservesAnalyze(t *testing.T) {
	sys := NewSystem()
	for _, tb := range []string{"R", "S", "T"} {
		sys.MustDefineTable(tb, "db", "L", 1000, Col("a", TInt), Col("b", TInt))
		sys.MustAddPolicy("ship a, b from " + tb + " to *")
	}
	const q = "SELECT r.a, t.b FROM R r, S s, T t WHERE r.a = s.a AND s.b = t.b"
	stats := func(aDistinct, bDistinct int64) {
		t.Helper()
		for _, tb := range []string{"R", "S", "T"} {
			if err := sys.SetColumnStats(tb, "a", aDistinct, Int(0), Int(aDistinct)); err != nil {
				t.Fatal(err)
			}
			if err := sys.SetColumnStats(tb, "b", bDistinct, Int(0), Int(bDistinct)); err != nil {
				t.Fatal(err)
			}
		}
	}
	explain := func() *Plan {
		t.Helper()
		p, err := sys.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	stats(1000, 2)
	srv := sys.Serve(ServeOptions{MaxConcurrent: 2})
	defer srv.Close()
	serve := func() {
		t.Helper()
		if _, err := srv.Do(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	held := sys.Optimizer()
	serve()
	serve()
	first := explain()
	if !first.Stats.PlanCacheHit {
		t.Fatal("Explain of a query the server planned twice is not a plan-cache hit")
	}
	before := sys.PlanCacheStats()
	if before.Hits < 2 {
		t.Fatalf("plan-cache hits before the flip: %+v", before)
	}

	stats(2, 1000) // the Server is already running
	serve()
	after := sys.PlanCacheStats()
	if after.Hits != before.Hits || after.Misses != before.Misses+1 {
		t.Fatalf("the server's submission after SetColumnStats: plan cache %+v, want the hits of %+v and one more miss", after, before)
	}
	second := explain()
	if !second.Stats.PlanCacheHit {
		t.Fatal("the server's re-optimisation did not fill the plan cache the system reads")
	}
	if second.String() == first.String() {
		t.Fatalf("the server kept the pre-flip join order:\n%s", second)
	}
	if sys.Optimizer() != held {
		t.Fatal("a statistics change rebuilt the optimizer")
	}

	stats(1000, 2) // and back: this re-optimisation is the test's own
	third := explain()
	if third.Stats.PlanCacheHit {
		t.Fatal("Explain after SetColumnStats was served from the plan cache")
	}
	if third.Stats.AHits == 0 {
		t.Fatalf("evaluator memo did not survive the statistics change: %d calls, 0 hits", third.Stats.ACalls)
	}
	if third.String() != first.String() {
		t.Fatalf("restored statistics, different plan:\n%s\nwant\n%s", third, first)
	}
}

// TestConcurrentAnalyze re-analyzes and re-declares statistics while
// four clients plan through a Server with the plan cache off, so every
// submission reads table statistics while they are being replaced (run
// under `make race`). Statistics cannot change an answer: every
// submission must succeed with the same rows.
func TestConcurrentAnalyze(t *testing.T) {
	sys := rcFixture(t, Options{PlanCacheSize: -1, Parallel: true})
	srv := sys.Serve(ServeOptions{MaxConcurrent: 4})
	defer srv.Close()
	ctx := context.Background()
	queries := []string{rcJoinQuery, rcAggQuery, rcLocalQuery}
	want := map[string][]Row{}
	for _, q := range queries {
		resp, err := srv.Do(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = resp.Rows
	}

	stop := make(chan struct{})
	var clients sync.WaitGroup
	for c := 0; c < 4; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(c+i)%len(queries)]
				resp, err := srv.Do(ctx, q)
				if err != nil {
					t.Errorf("client %d: %q during ANALYZE: %v", c, q, err)
					return
				}
				if d := rowsDiff(want[q], resp.Rows); d != "" {
					t.Errorf("client %d: %q during ANALYZE: %s", c, q, d)
					return
				}
			}
		}(c)
	}
	for i := 0; i < 100; i++ {
		if err := sys.Analyze(); err != nil {
			t.Error(err)
			break
		}
		// Wrong on purpose, so that ANALYZE has something to correct.
		if err := sys.SetColumnStats("Orders", "custkey", int64(1+i%7), Int(0), Int(1000)); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	clients.Wait()
}

// TestDefineAfterOpen: sites and storage tables are created with the
// cluster, so a table (like an index) declared afterwards could never be
// loaded or queried — it is refused and registers nothing.
func TestDefineAfterOpen(t *testing.T) {
	sys := NewSystem()
	sys.MustDefineTable("a", "db-a", "LA", 1, Col("x", TInt))
	sys.MustAddPolicy("ship x from a to *")
	sys.MustLoad("a", []Row{{Int(1)}})
	version := sys.Schema.Version()
	for name, err := range map[string]error{
		"DefineTable, known site": sys.DefineTable("b", "db-a", "LA", 1, Col("x", TInt)),
		"DefineTable, new site":   sys.DefineTable("c", "db-c", "LC", 1, Col("x", TInt)),
		"DefineFragmentedTable": sys.DefineFragmentedTable("d", []Column{Col("x", TInt)},
			[]Fragment{{DB: "db-a", Location: "LA"}, {DB: "db-c", Location: "LC"}}),
		"DefineIndex": sys.DefineIndex("a", "x"),
	} {
		if err == nil || !strings.Contains(err.Error(), "after the cluster was created") {
			t.Errorf("%s after the first load: err=%v, want a refusal", name, err)
		}
	}
	if got := len(sys.Schema.Tables()); got != 1 || len(sys.Schema.Locations()) != 1 || sys.Schema.Version() != version {
		t.Errorf("a refused definition changed the catalog: %d tables, locations %v", got, sys.Schema.Locations())
	}
	if res, err := sys.Query("SELECT x FROM a"); err != nil || len(res.Rows) != 1 {
		t.Errorf("query after the refusals: %v", err)
	}
}
