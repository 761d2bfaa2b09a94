package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cgdqp/internal/cluster"
	"cgdqp/internal/executor"
	"cgdqp/internal/expr"
	"cgdqp/internal/leakcheck"
	"cgdqp/internal/network"
	"cgdqp/internal/obs"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/policy"
	"cgdqp/internal/schema"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

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
func waitRunning(t *testing.T, s *Server, n int) {
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
	defer leakcheck.Check(t)()
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

	s := NewServer(Lifecycle{Opt: opt, Cluster: cl}, Options{MaxConcurrent: 2})
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
	defer leakcheck.Check(t)()
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

	s := NewServer(Lifecycle{Opt: opt, Cluster: cl}, Options{MaxConcurrent: 8})
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
	defer leakcheck.Check(t)()
	cat, cl := carco(t)
	cl.SetWireDelay(0.2) // make queries take real time so they stay running
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	reg := obs.NewRegistry()
	s := NewServer(Lifecycle{Opt: opt, Cluster: cl, Obs: &obs.Observer{Metrics: reg}}, Options{MaxConcurrent: 1, QueueDepth: 2})
	defer s.Close() // again, harmlessly, after the Close the gauge check needs

	ctx := context.Background()
	t1, err := s.Submit(ctx, joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, 1) // worker took t1; queue is empty
	var tickets []*Ticket
	for i := 0; i < 2; i++ {
		tk, err := s.Submit(ctx, joinQuery)
		if err != nil {
			t.Fatalf("submission %d within depth rejected: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	if _, err := s.Submit(ctx, joinQuery); !errors.Is(err, ErrQueueFull) {
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
	s.Close()
	for _, g := range []string{"cgdqp_sched_running", "cgdqp_sched_queue_depth"} {
		if v := reg.Gauge(g).Value(); v != 0 {
			t.Errorf("%s = %v on an idle, closed server; want 0", g, v)
		}
	}
}

func TestServerClosedRejection(t *testing.T) {
	defer leakcheck.Check(t)()
	cat, cl := carco(t)
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	s := NewServer(Lifecycle{Opt: opt, Cluster: cl}, Options{MaxConcurrent: 1})
	s.Close()
	if _, err := s.Submit(context.Background(), joinQuery); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("got %v, want ErrServerClosed", err)
	}
}

// --- cancellation --------------------------------------------------------

func TestQueuedCancelNeverStarts(t *testing.T) {
	defer leakcheck.Check(t)()
	cat, cl := carco(t)
	cl.SetWireDelay(0.2)
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	s := NewServer(Lifecycle{Opt: opt, Cluster: cl}, Options{MaxConcurrent: 1, QueueDepth: 4})
	defer s.Close()

	bg := context.Background()
	t1, err := s.Submit(bg, joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, 1)

	ctx, cancel := context.WithCancel(bg)
	t2, err := s.Submit(ctx, countQuery)
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
	defer leakcheck.Check(t)()
	cat, cl := carco(t)
	cl.SetWireDelay(0.5) // per-batch wire sleeps give the cancel a window
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	s := NewServer(Lifecycle{Opt: opt, Cluster: cl}, Options{MaxConcurrent: 1})
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	tk, err := s.Submit(ctx, joinQuery)
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

// A deadline on the submission context bounds the query from admission
// to completion.
func TestQueryDeadline(t *testing.T) {
	defer leakcheck.Check(t)()
	cat, cl := carco(t)
	cl.SetWireDelay(1.0)
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	s := NewServer(Lifecycle{Opt: opt, Cluster: cl}, Options{MaxConcurrent: 1})
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	tk, err := s.Submit(ctx, joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if c := s.Counters(); c.Cancelled != 1 {
		t.Errorf("Cancelled = %d, want 1", c.Cancelled)
	}
}

// --- singleflight --------------------------------------------------------

func TestOptimizeSharedCoalesces(t *testing.T) {
	defer leakcheck.Check(t)()
	cat, cl := carco(t)
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	s := NewServer(Lifecycle{Opt: opt, Cluster: cl}, Options{MaxConcurrent: 1})
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
	s := NewServer(Lifecycle{Opt: opt, Cluster: cl}, Options{MaxConcurrent: 1})
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
	defer leakcheck.Check(t)()
	cat, cl := carco(t)
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	s := NewServer(Lifecycle{Opt: opt, Cluster: cl}, Options{MaxConcurrent: 8})
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

// --- FIFO queue ----------------------------------------------------------

// TestQueueIsFIFO: queued queries start in admission order, and one
// cancelled while queued is skipped without disturbing its neighbours.
func TestQueueIsFIFO(t *testing.T) {
	defer leakcheck.Check(t)()
	cat, cl := carco(t)
	cl.SetWireDelay(0.2)
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	s := NewServer(Lifecycle{Opt: opt, Cluster: cl}, Options{MaxConcurrent: 1, QueueDepth: 8})
	defer s.Close()

	bg := context.Background()
	first, err := s.Submit(bg, joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, 1)
	// Four queries queue behind the running one; the second is cancelled
	// before the worker frees.
	cctx, cancel := context.WithCancel(bg)
	var queued []*Ticket
	for i, q := range []string{countQuery, joinQuery, joinQuery, countQuery} {
		ctx := bg
		if i == 1 {
			ctx = cctx
		}
		tk, err := s.Submit(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, tk)
	}
	cancel()
	if _, err := queued[1].Wait(bg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled-while-queued query: got %v, want context.Canceled", err)
	}
	if _, err := first.Wait(bg); err != nil {
		t.Fatal(err)
	}
	// One worker serves the survivors one after another, so each later
	// arrival waited at least the service time of the one before it (well
	// above timer noise with wire delay on).
	var prev time.Duration
	for _, i := range []int{0, 2, 3} {
		r, err := queued[i].Wait(bg)
		if err != nil {
			t.Fatalf("queued query %d: %v", i, err)
		}
		if r.QueueWait <= prev {
			t.Errorf("queued query %d started out of admission order: waited %v, its predecessor %v", i, r.QueueWait, prev)
		}
		prev = r.QueueWait
	}
	if c := s.Counters(); c.Completed != 4 || c.Cancelled != 1 {
		t.Errorf("Completed = %d, Cancelled = %d; want 4 and 1", c.Completed, c.Cancelled)
	}
}

// TestCloseDrainsQueue checks Close waits for admitted queries, and that
// the lifetime counters then add up.
func TestCloseDrainsQueue(t *testing.T) {
	defer leakcheck.Check(t)()
	cat, cl := carco(t)
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	s := NewServer(Lifecycle{Opt: opt, Cluster: cl}, Options{MaxConcurrent: 2, QueueDepth: 16})
	bg := context.Background()
	var tickets []*Ticket
	for i := 0; i < 6; i++ {
		tk, err := s.Submit(bg, countQuery)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	if _, err := s.Submit(bg, ""); err == nil {
		t.Error("empty SQL admitted")
	}
	s.Close()
	for i, tk := range tickets {
		select {
		case <-tk.Done():
		default:
			t.Fatalf("query %d not finished after Close", i)
		}
		if _, err := tk.Wait(bg); err != nil {
			t.Errorf("query %d: %v", i, err)
		}
	}
	if _, err := s.Submit(bg, countQuery); !errors.Is(err, ErrServerClosed) {
		t.Errorf("submission after Close: got %v, want ErrServerClosed", err)
	}
	c := s.Counters()
	if c.Submitted != c.Admitted+c.RejectedQueueFull+c.RejectedClosed {
		t.Errorf("Submitted != Admitted + Rejected*: %+v", c)
	}
	if c.Admitted != c.Completed+c.Failed+c.Cancelled {
		t.Errorf("Admitted != Completed + Failed + Cancelled: %+v", c)
	}
	if c.Admitted != 6 || c.RejectedClosed != 1 {
		t.Errorf("Admitted = %d, RejectedClosed = %d; want 6 and 1", c.Admitted, c.RejectedClosed)
	}
}

// TestServerSlowQueryLog runs a server whose lifecycle has a
// zero-threshold slow log: every execution must emit a parseable
// slow-log line carrying its operators' q-errors, its execution time
// and its wait for a worker.
func TestServerSlowQueryLog(t *testing.T) {
	defer leakcheck.Check(t)()
	cat, cl := carco(t)
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	var buf bytes.Buffer // writes serialized under the log's own mutex
	slow := obs.NewSlowQueryLog(&buf, 0)
	s := NewServer(Lifecycle{Opt: opt, Cluster: cl, SlowLog: slow}, Options{MaxConcurrent: 2})
	for i := 0; i < 3; i++ {
		if _, err := s.Do(context.Background(), countQuery); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("slow-log lines = %d, want 3", len(lines))
	}
	for _, line := range lines {
		var rec obs.QueryRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.SQLDigest == "" {
			t.Fatalf("slow-log line %q: %v", line, err)
		}
		if len(rec.QErrors) == 0 {
			t.Fatalf("slow-log line %q reports no operator actuals", line)
		}
		if rec.Outcome != obs.OutcomeOK || rec.Phases.ExecuteMS <= 0 || rec.Phases.QueueWaitMS <= 0 {
			t.Fatalf("slow-log line %q: want an executed query with its queue wait", line)
		}
	}
}
