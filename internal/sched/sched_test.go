package sched

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cgdqp/internal/cluster"
	"cgdqp/internal/executor"
	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/obs"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/plan"
	"cgdqp/internal/policy"
	"cgdqp/internal/schema"
)

// leakCheck arms a goroutine-leak detector: the returned function (run
// it deferred, after the server is closed) fails the test if the
// goroutine count has not settled back to its starting level. The
// settle loop tolerates runtime bookkeeping goroutines finishing late.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		var after int
		for {
			after = runtime.NumGoroutine()
			if after <= before || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if after > before {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Errorf("goroutine leak: %d before, %d after\n%s", before, after, buf[:n])
		}
	}
}

// carco builds the three-region fixture (Customer at N, Orders at E,
// Supply at A) the executor tests use, plus its policy catalog.
func carco(t *testing.T) (*schema.Catalog, *cluster.Cluster) {
	t.Helper()
	cat := schema.NewCatalog()
	cTab := schema.NewTable("Customer", "db-n", "N", 50,
		schema.Column{Name: "custkey", Type: expr.TInt},
		schema.Column{Name: "name", Type: expr.TString},
		schema.Column{Name: "acctbal", Type: expr.TFloat},
	)
	cTab.SetColStats("custkey", schema.ColStats{Distinct: 50})
	oTab := schema.NewTable("Orders", "db-e", "E", 200,
		schema.Column{Name: "custkey", Type: expr.TInt},
		schema.Column{Name: "ordkey", Type: expr.TInt},
		schema.Column{Name: "totprice", Type: expr.TFloat},
	)
	oTab.SetColStats("custkey", schema.ColStats{Distinct: 50})
	oTab.SetColStats("ordkey", schema.ColStats{Distinct: 200})
	sTab := schema.NewTable("Supply", "db-a", "A", 600,
		schema.Column{Name: "ordkey", Type: expr.TInt},
		schema.Column{Name: "quantity", Type: expr.TInt},
	)
	sTab.SetColStats("ordkey", schema.ColStats{Distinct: 200})
	cat.MustAddTable(cTab)
	cat.MustAddTable(oTab)
	cat.MustAddTable(sTab)

	cl := cluster.New(cat, network.FiveRegionWAN(cat.Locations()))
	var cRows, oRows, sRows []expr.Row
	for i := 0; i < 50; i++ {
		cRows = append(cRows, expr.Row{
			expr.NewInt(int64(i)),
			expr.NewString(fmt.Sprintf("cust-%02d", i)),
			expr.NewFloat(float64(i * 10)),
		})
	}
	for i := 0; i < 200; i++ {
		oRows = append(oRows, expr.Row{
			expr.NewInt(int64(i % 50)),
			expr.NewInt(int64(i)),
			expr.NewFloat(float64(100 + i)),
		})
	}
	for i := 0; i < 600; i++ {
		sRows = append(sRows, expr.Row{
			expr.NewInt(int64(i % 200)),
			expr.NewInt(int64(1 + i%7)),
		})
	}
	for _, ld := range []struct {
		tab  *schema.Table
		rows []expr.Row
	}{{cTab, cRows}, {oTab, oRows}, {sTab, sRows}} {
		if err := cl.LoadFragment(ld.tab, 0, ld.rows); err != nil {
			t.Fatal(err)
		}
	}
	return cat, cl
}

func carcoOptimizer(t *testing.T, cat *schema.Catalog, cl *cluster.Cluster, oo optimizer.Options) *optimizer.Optimizer {
	t.Helper()
	pc := policy.NewCatalog()
	pc.AddAll(
		policy.MustParse("ship custkey, name from Customer to *", "pn", "db-n"),
		policy.MustParse("ship custkey, ordkey from Orders to *", "pe1", "db-e"),
		policy.MustParse("ship totprice as aggregates sum from Orders to A group by custkey, ordkey", "pe2", "db-e"),
		policy.MustParse("ship quantity as aggregates sum from Supply to E group by ordkey", "pa", "db-a"),
	)
	oo.Compliant = true
	return optimizer.New(cat, pc, cl.Net, oo)
}

const joinQuery = `SELECT C.name, SUM(O.totprice) AS total, SUM(S.quantity) AS qty
 FROM Customer C, Orders O, Supply S
 WHERE C.custkey = O.custkey AND O.ordkey = S.ordkey GROUP BY C.name`

const countQuery = `SELECT C.name, COUNT(*) AS cnt
 FROM Customer C, Orders O WHERE C.custkey = O.custkey GROUP BY C.name`

// canon renders rows order-independently for comparison.
func canon(rows []expr.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			if !v.IsNull() && (v.T == expr.TFloat || v.T == expr.TInt) {
				parts[j] = fmt.Sprintf("%.4f", v.Float())
			} else {
				parts[j] = v.String()
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// waitRunning polls until the server reports n running queries.
func waitRunning(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Running() != n {
		if time.Now().After(deadline) {
			t.Fatalf("server never reached %d running queries (at %d)", n, s.Running())
		}
		time.Sleep(time.Millisecond)
	}
}

// --- server end-to-end ---------------------------------------------------

func TestServeMatchesDirectExecution(t *testing.T) {
	defer leakCheck(t)()
	cat, cl := carco(t)
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})

	res, err := opt.OptimizeSQL(joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, wantStats, err := executor.Run(res.Plan.Clone(), cl)
	if err != nil {
		t.Fatal(err)
	}

	s := NewServer(opt, cl, nil, Options{MaxConcurrent: 2})
	defer s.Close()
	resp, err := s.Do(context.Background(), joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	g, w := canon(resp.Rows), canon(wantRows)
	if len(g) != len(w) {
		t.Fatalf("rows: got %d, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("row %d differs:\n got %s\nwant %s", i, g[i], w[i])
		}
	}
	if resp.Stats.ShippedBytes != wantStats.ShippedBytes || resp.Stats.ShipCost != wantStats.ShipCost {
		t.Errorf("served stats differ from direct run:\n got %+v\nwant %+v", resp.Stats, wantStats)
	}
	if len(resp.Columns) != 3 || resp.Columns[0] != "name" {
		t.Errorf("columns: %v", resp.Columns)
	}
	c := s.Counters()
	if c.Admitted != 1 || c.Completed != 1 {
		t.Errorf("counters: %+v", c)
	}
}

func TestConcurrentServingIsolatesStats(t *testing.T) {
	defer leakCheck(t)()
	cat, cl := carco(t)
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})

	// Sequential baselines per query.
	want := map[string]executor.RunStats{}
	for _, q := range []string{joinQuery, countQuery} {
		res, err := opt.OptimizeSQL(q)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := executor.Run(res.Plan.Clone(), cl)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = *st
	}

	s := NewServer(opt, cl, nil, Options{MaxConcurrent: 8})
	defer s.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		q := joinQuery
		if i%2 == 1 {
			q = countQuery
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := s.Do(context.Background(), q)
			if err != nil {
				errs <- err
				return
			}
			if w := want[q]; resp.Stats.ShippedRows != w.ShippedRows ||
				resp.Stats.ShippedBytes != w.ShippedBytes || resp.Stats.ShipCost != w.ShipCost {
				errs <- fmt.Errorf("concurrent stats diverge from sequential run:\n got %+v\nwant %+v", resp.Stats, w)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// --- admission -----------------------------------------------------------

func TestQueueFullRejection(t *testing.T) {
	defer leakCheck(t)()
	cat, cl := carco(t)
	cl.SetWireDelay(0.2) // make queries take real time so they stay running
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	reg := obs.NewRegistry()
	s := NewServer(opt, cl, &obs.Observer{Metrics: reg}, Options{MaxConcurrent: 1, QueueDepth: 2})
	defer s.Close()

	ctx := context.Background()
	t1, err := s.SubmitSQL(ctx, joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, 1) // worker took t1; queue is empty
	var tickets []*Ticket
	for i := 0; i < 2; i++ {
		tk, err := s.SubmitSQL(ctx, joinQuery)
		if err != nil {
			t.Fatalf("submission %d within depth rejected: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	if _, err := s.SubmitSQL(ctx, joinQuery); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-depth submission: got %v, want ErrQueueFull", err)
	}
	if c := s.Counters(); c.RejectedQueueFull != 1 {
		t.Errorf("RejectedQueueFull = %d, want 1", c.RejectedQueueFull)
	}
	if v := reg.Counter("cgdqp_sched_rejected_total", "reason", "queue_full").Value(); v != 1 {
		t.Errorf("rejection counter = %v, want 1", v)
	}
	for _, tk := range append([]*Ticket{t1}, tickets...) {
		if _, err := tk.Wait(ctx); err != nil {
			t.Errorf("admitted query failed: %v", err)
		}
	}
}

func TestServerClosedRejection(t *testing.T) {
	defer leakCheck(t)()
	cat, cl := carco(t)
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	s := NewServer(opt, cl, nil, Options{MaxConcurrent: 1})
	s.Close()
	if _, err := s.SubmitSQL(context.Background(), joinQuery); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("got %v, want ErrServerClosed", err)
	}
}

// --- cancellation --------------------------------------------------------

func TestQueuedCancelNeverStarts(t *testing.T) {
	defer leakCheck(t)()
	cat, cl := carco(t)
	cl.SetWireDelay(0.2)
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	s := NewServer(opt, cl, nil, Options{MaxConcurrent: 1, QueueDepth: 4})
	defer s.Close()

	bg := context.Background()
	t1, err := s.SubmitSQL(bg, joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, 1)

	ctx, cancel := context.WithCancel(bg)
	t2, err := s.Submit(ctx, Request{SQL: countQuery})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := t2.Wait(bg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled-while-queued query: got %v, want context.Canceled", err)
	}
	if _, err := t1.Wait(bg); err != nil {
		t.Fatalf("running query: %v", err)
	}
	c := s.Counters()
	if c.Cancelled != 1 {
		t.Errorf("Cancelled = %d, want 1", c.Cancelled)
	}
	// The cancelled query never started: exactly one query completed.
	if c.Completed != 1 {
		t.Errorf("Completed = %d, want 1", c.Completed)
	}
}

func TestMidExecutionCancelTearsDown(t *testing.T) {
	defer leakCheck(t)()
	cat, cl := carco(t)
	cl.SetWireDelay(0.5) // per-batch wire sleeps give the cancel a window
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	s := NewServer(opt, cl, nil, Options{MaxConcurrent: 1})
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	tk, err := s.Submit(ctx, Request{SQL: joinQuery})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, 1)
	cancel()
	if _, err := tk.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if c := s.Counters(); c.Cancelled != 1 {
		t.Errorf("Cancelled = %d, want 1", c.Cancelled)
	}
	// A fresh query still runs to completion on the same server (slots
	// were released, pipelines torn down).
	cl.SetWireDelay(0)
	if _, err := s.Do(context.Background(), countQuery); err != nil {
		t.Fatalf("query after cancel: %v", err)
	}
}

func TestQueryTimeout(t *testing.T) {
	defer leakCheck(t)()
	cat, cl := carco(t)
	cl.SetWireDelay(1.0)
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	s := NewServer(opt, cl, nil, Options{MaxConcurrent: 1, QueryTimeout: 30 * time.Millisecond})
	defer s.Close()
	tk, err := s.SubmitSQL(context.Background(), joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

// --- singleflight --------------------------------------------------------

func TestOptimizeSharedCoalesces(t *testing.T) {
	defer leakCheck(t)()
	cat, cl := carco(t)
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	s := NewServer(opt, cl, nil, Options{MaxConcurrent: 1})
	defer s.Close()

	// Install an in-flight optimization by hand, then ask for the same
	// statement: the call must wait for the flight and share its result.
	key := s.flightKey(joinQuery)
	f := &flight{done: make(chan struct{})}
	s.flights.mu.Lock()
	s.flights.m[key] = f
	s.flights.mu.Unlock()

	type out struct {
		res    *optimizer.Result
		shared bool
		err    error
	}
	ch := make(chan out, 1)
	go func() {
		r, _, sh, err := s.optimizeShared(context.Background(), joinQuery)
		ch <- out{r, sh, err}
	}()
	select {
	case <-ch:
		t.Fatal("follower returned before the flight finished")
	case <-time.After(20 * time.Millisecond):
	}
	want, err := opt.OptimizeSQL(joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	f.res = want
	s.flights.mu.Lock()
	delete(s.flights.m, key)
	s.flights.mu.Unlock()
	close(f.done)

	got := <-ch
	if got.err != nil || !got.shared || got.res != want {
		t.Fatalf("follower: res=%p shared=%v err=%v (want res=%p shared=true)", got.res, got.shared, got.err, want)
	}
	if c := s.Counters(); c.Coalesced != 1 {
		t.Errorf("Coalesced = %d, want 1", c.Coalesced)
	}

	// A follower whose context ends while waiting leaves the flight.
	s.flights.mu.Lock()
	s.flights.m[key] = &flight{done: make(chan struct{})}
	s.flights.mu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := s.optimizeShared(ctx, joinQuery); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled follower: got %v, want context.Canceled", err)
	}
	s.flights.mu.Lock()
	delete(s.flights.m, key)
	s.flights.mu.Unlock()
}

func TestFlightKeyUsesDigestWhenMemoized(t *testing.T) {
	cat, cl := carco(t)
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{PlanCacheSize: 8})
	s := NewServer(opt, cl, nil, Options{MaxConcurrent: 1})
	defer s.Close()

	k1 := s.flightKey(joinQuery)
	if !strings.HasPrefix(k1, "q\x00") {
		t.Fatalf("pre-memoization key should fall back to SQL text, got %q", k1[:2])
	}
	if _, err := opt.OptimizeSQL(joinQuery); err != nil {
		t.Fatal(err)
	}
	k2 := s.flightKey(joinQuery)
	if !strings.HasPrefix(k2, "d\x00") {
		t.Fatalf("post-memoization key should use the plan digest, got %q", k2[:2])
	}
	// Same statement with different whitespace normalizes to the same
	// digest, so both coalesce under one key.
	reformatted := strings.Join(strings.Fields(joinQuery), " ")
	if _, err := opt.OptimizeSQL(reformatted); err != nil {
		t.Fatal(err)
	}
	if k3 := s.flightKey(reformatted); k3 != k2 {
		t.Errorf("reformatted statement keys differently: %q vs %q", k3, k2)
	}
}

func TestCoalescedFollowersExecuteCorrectly(t *testing.T) {
	defer leakCheck(t)()
	cat, cl := carco(t)
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	s := NewServer(opt, cl, nil, Options{MaxConcurrent: 8})
	defer s.Close()

	// Thundering herd of one statement: whether or not each submission
	// coalesces (timing-dependent), every response must be correct and
	// stats per-query.
	res, err := opt.OptimizeSQL(joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, wantStats, err := executor.Run(res.Plan.Clone(), cl)
	if err != nil {
		t.Fatal(err)
	}
	want := canon(wantRows)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := s.Do(context.Background(), joinQuery)
			if err != nil {
				errs <- err
				return
			}
			got := canon(resp.Rows)
			for i := range got {
				if got[i] != want[i] {
					errs <- fmt.Errorf("row %d differs: %s vs %s", i, got[i], want[i])
					return
				}
			}
			if resp.Stats.ShipCost != wantStats.ShipCost {
				errs <- fmt.Errorf("ship cost %v, want %v", resp.Stats.ShipCost, wantStats.ShipCost)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// --- fair queue ----------------------------------------------------------

func TestFairQueueOrdersByWeight(t *testing.T) {
	var h taskHeap
	mk := func(vft float64, seq uint64) *task {
		return &task{vft: vft, seq: seq, heapIdx: -1}
	}
	// Virtual finish times as Submit computes them at one virtual clock:
	// weight 4 → 0.25, weight 2 → 0.5, weight 1 → 1.0 (two of those,
	// FIFO-tied by seq).
	a, b, c, d := mk(1.0, 0), mk(0.25, 1), mk(0.5, 2), mk(1.0, 3)
	for _, t0 := range []*task{a, b, c, d} {
		heap.Push(&h, t0)
	}
	wantOrder := []*task{b, c, a, d}
	for i, want := range wantOrder {
		got := heap.Pop(&h).(*task)
		if got != want {
			t.Fatalf("pop %d: got vft=%v seq=%d, want vft=%v seq=%d", i, got.vft, got.seq, want.vft, want.seq)
		}
	}
}

func TestHeavyQueryJumpsQueue(t *testing.T) {
	defer leakCheck(t)()
	cat, cl := carco(t)
	cl.SetWireDelay(0.2)
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	s := NewServer(opt, cl, nil, Options{MaxConcurrent: 1, QueueDepth: 8})
	defer s.Close()

	bg := context.Background()
	first, err := s.SubmitSQL(bg, joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, 1)
	// Queue a light query, then a heavy one: the heavy one (smaller
	// virtual finish time) must start first once the worker frees.
	light, err := s.Submit(bg, Request{SQL: countQuery, Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := s.Submit(bg, Request{SQL: joinQuery, Weight: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Wait(bg); err != nil {
		t.Fatal(err)
	}
	hr, err := heavy.Wait(bg)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := light.Wait(bg)
	if err != nil {
		t.Fatal(err)
	}
	// The heavy query was scheduled before the light one even though it
	// arrived later: with one worker, its queue wait is strictly
	// shorter. (Both waited on `first`, so the gap is the heavy query's
	// own service time — well above timer noise with wire delay on.)
	if hr.QueueWait >= lr.QueueWait {
		t.Errorf("heavy query did not jump the queue: heavy wait %v, light wait %v", hr.QueueWait, lr.QueueWait)
	}
}

// --- slot table ----------------------------------------------------------

func TestSiteCensus(t *testing.T) {
	cat, cl := carco(t)
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	res, err := opt.OptimizeSQL(joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	need := siteCensus(res.Plan, 16, nil)
	// One slot per fragment: every Ship source plus the root site.
	ships := 0
	res.Plan.Walk(func(n *plan.Node) bool {
		if n.Kind == plan.Ship {
			ships++
		}
		return true
	})
	total := 0
	for _, n := range need {
		total += n
	}
	if total != ships+1 {
		t.Errorf("census total %d, want %d (ships %d + root)", total, ships+1, ships)
	}
	// Clamping: with cap 1 no site may need more than 1.
	for site, n := range siteCensus(res.Plan, 1, nil) {
		if n > 1 {
			t.Errorf("site %s need %d exceeds cap 1", site, n)
		}
	}
}

func TestSlotTableGangAcquire(t *testing.T) {
	st := newSlotTable(2)
	ctx := context.Background()
	a := map[string]int{"N": 1, "E": 2}
	if err := st.acquire(ctx, a); err != nil {
		t.Fatal(err)
	}
	if st.inUse("E") != 2 || st.inUse("N") != 1 {
		t.Fatalf("usage after acquire: N=%d E=%d", st.inUse("N"), st.inUse("E"))
	}
	// A gang needing E must block; one needing only N may bypass it.
	blocked := make(chan error, 1)
	go func() { blocked <- st.acquire(ctx, map[string]int{"E": 1}) }()
	select {
	case err := <-blocked:
		t.Fatalf("over-capacity gang acquired: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := st.acquire(ctx, map[string]int{"N": 1}); err != nil {
		t.Fatalf("fitting gang should bypass the blocked one: %v", err)
	}
	st.release(a)
	if err := <-blocked; err != nil {
		t.Fatalf("blocked gang after release: %v", err)
	}
	st.release(map[string]int{"E": 1})
	st.release(map[string]int{"N": 1})
	if st.inUse("N") != 0 || st.inUse("E") != 0 {
		t.Fatalf("slots not returned: N=%d E=%d", st.inUse("N"), st.inUse("E"))
	}
}

func TestSlotTableCancelWhileWaiting(t *testing.T) {
	st := newSlotTable(1)
	if err := st.acquire(context.Background(), map[string]int{"N": 1}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- st.acquire(ctx, map[string]int{"N": 1}) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	st.release(map[string]int{"N": 1})
	// The cancelled waiter must not have consumed the slot.
	if err := st.acquire(context.Background(), map[string]int{"N": 1}); err != nil {
		t.Fatalf("slot lost to a cancelled waiter: %v", err)
	}
	st.release(map[string]int{"N": 1})
}

func TestSlotTableAntiStarvation(t *testing.T) {
	st := newSlotTable(2)
	ctx := context.Background()
	if err := st.acquire(ctx, map[string]int{"N": 1}); err != nil {
		t.Fatal(err)
	}
	// A wide gang (needs both N slots) waits behind the held slot.
	wide := make(chan error, 1)
	go func() { wide <- st.acquire(ctx, map[string]int{"N": 2}) }()
	time.Sleep(10 * time.Millisecond)
	// Narrow gangs bypass it until its credit runs out; after that they
	// must queue behind it even though they would fit.
	for i := 0; i < bypassLimit; i++ {
		if err := st.acquire(ctx, map[string]int{"N": 1}); err != nil {
			t.Fatalf("bypass %d: %v", i, err)
		}
		st.release(map[string]int{"N": 1})
	}
	after := make(chan error, 1)
	go func() { after <- st.acquire(ctx, map[string]int{"N": 1}) }()
	select {
	case err := <-after:
		t.Fatalf("narrow gang bypassed an exhausted waiter: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	// Releasing the held slot lets the wide gang (now at the head with
	// exhausted credit) in first, then the narrow one after it.
	st.release(map[string]int{"N": 1})
	if err := <-wide; err != nil {
		t.Fatalf("wide gang: %v", err)
	}
	select {
	case err := <-after:
		t.Fatalf("narrow gang ran while the wide gang holds both slots: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	st.release(map[string]int{"N": 2})
	if err := <-after; err != nil {
		t.Fatalf("narrow gang after wide release: %v", err)
	}
	st.release(map[string]int{"N": 1})
}

// TestCloseDrainsQueue checks Close waits for admitted queries.
func TestCloseDrainsQueue(t *testing.T) {
	defer leakCheck(t)()
	cat, cl := carco(t)
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	s := NewServer(opt, cl, nil, Options{MaxConcurrent: 2, QueueDepth: 16})
	var tickets []*Ticket
	for i := 0; i < 6; i++ {
		tk, err := s.SubmitSQL(context.Background(), countQuery)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	s.Close()
	for i, tk := range tickets {
		select {
		case <-tk.Done():
		default:
			t.Fatalf("query %d not finished after Close", i)
		}
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Errorf("query %d: %v", i, err)
		}
	}
}
