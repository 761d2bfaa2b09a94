package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cgdqp/internal/cluster"
	"cgdqp/internal/expr"
	"cgdqp/internal/leakcheck"
	"cgdqp/internal/obs"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/plan"
	"cgdqp/internal/rescache"
)

// cacheView builds the validity oracles over a test cluster: real data
// epochs, a fixed policy epoch (the fixtures don't churn policies), and
// a recheck that accepts everything.
func cacheView(cl *cluster.Cluster) rescache.View {
	return rescache.View{
		DataEpoch:   cl.DataEpoch,
		PolicyEpoch: func() uint64 { return 0 },
		Recheck:     func(*plan.Node) bool { return true },
	}
}

// TestSubmitSameQuerySingleExecution is the thundering-herd contract:
// N concurrent submissions of one query through a cache-backed server
// run the executor exactly once — every other submission is served from
// the in-flight execution or the cache — and all callers get the same
// result, accounted in the slow-query log under the plan that ran.
func TestSubmitSameQuerySingleExecution(t *testing.T) {
	defer leakcheck.Check(t)()
	cat, cl := carco(t)
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	var slow bytes.Buffer
	srv := NewServer(Lifecycle{Opt: opt, Cluster: cl, SlowLog: obs.NewSlowQueryLog(&slow, 0)}, Options{
		MaxConcurrent: 4,
		ResultCache:   rescache.New(8 << 20),
		CacheView:     cacheView(cl),
	})
	defer srv.Close()

	const n = 16
	results := make([][]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := srv.Do(context.Background(), joinQuery)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = canon(resp.Rows)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("submission %d diverged:\n%v\nvs\n%v", i, results[i], results[0])
		}
	}
	c := srv.Counters()
	if c.Executed != 1 {
		t.Fatalf("expected exactly one execution, got %d (counters %+v)", c.Executed, c)
	}
	if c.ResultCacheHits+c.ExecCoalesced != n-1 {
		t.Fatalf("expected %d served without executing, got hits=%d coalesced=%d",
			n-1, c.ResultCacheHits, c.ExecCoalesced)
	}
	if c.Completed != n {
		t.Fatalf("completed %d of %d", c.Completed, n)
	}
	// Cache hits and coalesced followers log the digest of the plan whose
	// execution answered them, and say how they were answered.
	digests, outcomes := map[string]int{}, map[string]int64{}
	for _, line := range strings.Split(strings.TrimSpace(slow.String()), "\n") {
		var rec obs.QueryRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("slow-query line: %v\n%s", err, line)
		}
		digests[rec.PlanDigest]++
		outcomes[rec.Outcome]++
	}
	if outcomes[obs.OutcomeOK] != 1 || outcomes[obs.OutcomeCacheHit] != c.ResultCacheHits ||
		outcomes[obs.OutcomeExecCoalesced] != c.ExecCoalesced {
		t.Fatalf("outcomes %v, counters %+v", outcomes, c)
	}
	if len(digests) != 1 || digests[""] != 0 || digests[obs.ShortDigest(mustPlanDigest(t, opt))] != n {
		t.Fatalf("plan digests logged for %d submissions of one query: %v", n, digests)
	}
}

func mustPlanDigest(t *testing.T, opt *optimizer.Optimizer) string {
	t.Helper()
	res, err := opt.OptimizeSQL(joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	return res.Plan.Digest()
}

// TestCachedResultsAreIsolated: followers and later hits get deep
// copies — mutating one response cannot corrupt the cache or any other
// caller's rows.
func TestCachedResultsAreIsolated(t *testing.T) {
	defer leakcheck.Check(t)()
	cat, cl := carco(t)
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	srv := NewServer(Lifecycle{Opt: opt, Cluster: cl}, Options{
		MaxConcurrent: 2,
		ResultCache:   rescache.New(8 << 20),
		CacheView:     cacheView(cl),
	})
	defer srv.Close()

	first, err := srv.Do(context.Background(), countQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := canon(first.Rows)

	second, err := srv.Do(context.Background(), countQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatalf("second run not served from cache")
	}
	if !reflect.DeepEqual(canon(second.Rows), want) {
		t.Fatalf("cached rows diverge from fresh run")
	}
	if second.Stats != first.Stats {
		t.Fatalf("cached stats diverge: %+v vs %+v", second.Stats, first.Stats)
	}
	// Vandalize both responses.
	for _, resp := range []*Response{first, second} {
		for i := range resp.Rows {
			for j := range resp.Rows[i] {
				resp.Rows[i][j] = expr.NewString("vandalized")
			}
		}
	}
	third, err := srv.Do(context.Background(), countQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !third.CacheHit {
		t.Fatalf("third run not served from cache")
	}
	if !reflect.DeepEqual(canon(third.Rows), want) {
		t.Fatalf("cache corrupted by mutating served copies")
	}
	if c := srv.Counters(); c.Executed != 1 {
		t.Fatalf("expected one execution, got %d", c.Executed)
	}
}

// TestCancelMidFillNoLeak: cancelling the filling leader mid-execution
// must not strand followers (they retry and one becomes the new leader)
// and must not leak goroutines; an uncancelled later submission
// succeeds and fills the cache.
func TestCancelMidFillNoLeak(t *testing.T) {
	defer leakcheck.Check(t)()
	cat, cl := carco(t)
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	cl.SetWireDelay(0.5) // per-batch wire sleeps give the cancel a window
	srv := NewServer(Lifecycle{Opt: opt, Cluster: cl}, Options{
		MaxConcurrent: 4,
		ResultCache:   rescache.New(8 << 20),
		CacheView:     cacheView(cl),
	})
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = srv.Do(ctx, joinQuery)
		}(i)
	}
	// Give the group time to start executing, then pull the plug on all
	// of them (leader and followers share ctx).
	time.Sleep(50 * time.Millisecond)
	cancel()
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			continue // finished before the cancel landed — also fine
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("submission %d: unexpected error %v", i, err)
		}
	}

	// Do returns as soon as the caller's ctx ends; the serving worker may
	// still be tearing down. Once it settles the flight table must be
	// clean and a fresh submission must work.
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.exmu.Lock()
		inflight := len(srv.execFlights)
		srv.exmu.Unlock()
		if inflight == 0 && srv.Running() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d exec flights still registered after cancellation settled", inflight)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cl.SetWireDelay(0)
	resp, err := srv.Do(context.Background(), joinQuery)
	if err != nil {
		t.Fatalf("post-cancel submission: %v", err)
	}
	if len(resp.Rows) == 0 {
		t.Fatalf("post-cancel submission returned no rows")
	}
	again, err := srv.Do(context.Background(), joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatalf("cache not filled by post-cancel execution")
	}
}

// TestDataEpochBumpForcesReexecution: a load into a consumed table
// between two identical submissions makes the second re-execute and see
// the new data.
func TestDataEpochBumpForcesReexecution(t *testing.T) {
	defer leakcheck.Check(t)()
	cat, cl := carco(t)
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	srv := NewServer(Lifecycle{Opt: opt, Cluster: cl}, Options{
		MaxConcurrent: 2,
		ResultCache:   rescache.New(8 << 20),
		CacheView:     cacheView(cl),
	})
	defer srv.Close()

	if _, err := srv.Do(context.Background(), countQuery); err != nil {
		t.Fatal(err)
	}
	cTab, _ := cat.Table("Customer")
	if err := cl.LoadFragment(cTab, 0, []expr.Row{
		{expr.NewInt(999), expr.NewString("cust-new"), expr.NewFloat(1)},
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Do(context.Background(), countQuery)
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Fatalf("stale result served after load into Customer")
	}
	if c := srv.Counters(); c.Executed != 2 {
		t.Fatalf("expected re-execution after data change, executed=%d", c.Executed)
	}
}
