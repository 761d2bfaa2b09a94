// Package sched is the concurrent query-serving front end layered over
// the single-query optimizer and the parallel execution engine. It
// provides what neither of those layers can on its own:
//
//   - Admission control: a bounded submission queue with typed
//     rejections (ErrQueueFull, ErrServerClosed) so overload sheds load
//     as backpressure instead of unbounded queueing.
//   - Weighted-fair scheduling: queued queries start in weighted-fair
//     order (virtual-finish-time queueing), and each query's fragment
//     pipelines take per-site execution slots from a bounded pool, so
//     concurrent queries share every site's worker capacity instead of
//     stacking unbounded goroutines on it. Slots are gang-acquired —
//     all of a query's sites at once — which rules out cross-query
//     slot deadlocks by construction (no query ever waits for slots
//     while holding some).
//   - Per-query isolation: execution runs under the per-query context
//     (cancelled queued queries never start; cancelled running queries
//     tear down their fragment pipelines and in-flight retries), and
//     per-run ledger scoping in the executor keeps each query's
//     RunStats independent under concurrency.
//   - Shared-work batching: identical in-flight optimizations coalesce
//     (singleflight on the normalized-plan digest), so a thundering
//     herd of one query optimizes once and the followers reuse the
//     leader's plan.
package sched

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cgdqp/internal/cluster"
	"cgdqp/internal/executor"
	"cgdqp/internal/expr"
	"cgdqp/internal/feedback"
	"cgdqp/internal/obs"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/rescache"
)

// Typed admission rejections. Submit wraps them with detail; match with
// errors.Is.
var (
	// ErrQueueFull rejects a submission when the bounded queue is at
	// QueueDepth — the server's backpressure signal under overload.
	ErrQueueFull = errors.New("sched: submission queue full")
	// ErrServerClosed rejects submissions after Close.
	ErrServerClosed = errors.New("sched: server closed")
)

// Options tune a Server.
type Options struct {
	// MaxConcurrent bounds the queries executing simultaneously
	// (<=0: DefaultMaxConcurrent).
	MaxConcurrent int
	// QueueDepth bounds admitted-but-not-started queries; submissions
	// beyond it fail with ErrQueueFull (<=0: DefaultQueueDepth).
	QueueDepth int
	// SiteSlots bounds, per site, the fragment pipelines concurrently
	// executing there across all queries (<=0: 2×MaxConcurrent). A
	// single query needing more slots at one site than the bound is
	// clamped to it (its own fragments multiplex the site), so every
	// plan stays schedulable.
	SiteSlots int
	// QueryTimeout, when set, bounds each query from admission to
	// completion (a per-Request Timeout overrides it).
	QueryTimeout time.Duration
	// ResultCache, when set, serves repeated queries from whole cached
	// result sets and coalesces concurrent identical executions onto one
	// run (the execution extension of the optimization singleflight).
	// CacheView supplies its validity oracles — data epochs, the policy
	// epoch and the provenance recheck; see package rescache.
	ResultCache *rescache.Cache
	CacheView   rescache.View
	// Exec overrides the execution options served queries run under
	// (nil = the defaults: kernels on).
	Exec *executor.ExecOptions
	// Feedback, when set, (a) weights gang site-slot needs by observed
	// fragment cardinality instead of counting every fragment as 1, and
	// (b) receives per-operator actuals and e2e latency samples from
	// every execution. Nil keeps fragment counting and records nothing.
	Feedback *feedback.Store
	// SlowLog, when set, receives a structured JSON line for every
	// served query at or above its latency threshold.
	SlowLog *feedback.SlowQueryLog
}

// Defaults for the zero Options value.
const (
	DefaultMaxConcurrent = 4
	DefaultQueueDepth    = 64
)

func (o Options) maxConcurrent() int {
	if o.MaxConcurrent > 0 {
		return o.MaxConcurrent
	}
	return DefaultMaxConcurrent
}

func (o Options) queueDepth() int {
	if o.QueueDepth > 0 {
		return o.QueueDepth
	}
	return DefaultQueueDepth
}

func (o Options) siteSlots() int {
	if o.SiteSlots > 0 {
		return o.SiteSlots
	}
	return 2 * o.maxConcurrent()
}

// Request is one query submission.
type Request struct {
	SQL string
	// Weight is the fair-share weight (<=0 means 1): a weight-2 query
	// waiting alongside weight-1 queries is scheduled as if it arrived
	// half a virtual time unit earlier.
	Weight float64
	// Timeout overrides Options.QueryTimeout for this query.
	Timeout time.Duration
}

// Response is the outcome of a served query.
type Response struct {
	Rows    []expr.Row
	Columns []string
	// Stats is the query's own execution accounting (per-run ledger
	// scoped — unaffected by concurrent queries).
	Stats executor.RunStats
	// EstShipCost is the optimizer's estimate for the executed plan.
	EstShipCost float64
	// Coalesced marks a query whose optimization was shared with an
	// identical in-flight one (singleflight).
	Coalesced bool
	// CacheHit marks a query served without executing: either straight
	// from the result cache or from an identical in-flight execution it
	// coalesced onto. Rows are a private copy; Stats and the audit
	// records replayed into the audit log are those of the execution
	// that produced the result (byte-identical to a fresh run).
	CacheHit bool
	// QueueWait is the time from admission to scheduling; Total runs
	// from admission to completion.
	QueueWait time.Duration
	Total     time.Duration
}

// Counters is a consistent snapshot of the server's lifetime counts.
type Counters struct {
	Submitted         int64
	Admitted          int64
	RejectedQueueFull int64
	RejectedClosed    int64
	Completed         int64 // finished with rows
	Failed            int64 // finished with a non-cancellation error
	Cancelled         int64 // finished by context cancellation/timeout
	Coalesced         int64 // optimizations served by another flight
	Executed          int64 // actual executor invocations
	ResultCacheHits   int64 // served straight from the result cache
	ExecCoalesced     int64 // served by an identical in-flight execution
}

// Server is the concurrent query-serving front end. Create with
// NewServer, submit with Submit/Do, and Close when done (Close drains
// admitted queries and stops the workers).
type Server struct {
	// lc is the query lifecycle every served query runs (goroutine-mode
	// exchanges); the rest of the server is what surrounds its steps.
	lc   Lifecycle
	opts Options

	mu     sync.Mutex
	cond   *sync.Cond
	queue  taskHeap
	vtime  float64 // weighted-fair virtual clock, advanced as tasks start
	seq    uint64
	closed bool

	slots   *slotTable
	flights flightGroup
	wg      sync.WaitGroup
	running atomic.Int64

	// execFlights coalesces identical in-flight executions when a result
	// cache is configured (see execflight.go).
	exmu        sync.Mutex
	execFlights map[string]*execFlight

	nSubmitted, nAdmitted, nRejFull, nRejClosed atomic.Int64
	nCompleted, nFailed, nCancelled, nCoalesced atomic.Int64
	nExecuted, nResCacheHits, nExecCoalesced    atomic.Int64
}

// NewServer starts a server over the given optimizer and cluster. The
// observer (nil = unobserved) receives queue gauges, admission and
// rejection counters, and queue-wait / end-to-end latency histograms;
// the optimizer and cluster should share it so spans line up.
func NewServer(opt *optimizer.Optimizer, cl *cluster.Cluster, obsv *obs.Observer, opts Options) *Server {
	s := &Server{
		lc: Lifecycle{
			Opt: opt, Cluster: cl, Obs: obsv,
			Cache: opts.ResultCache, View: opts.CacheView,
			Parallel: true,
			Feedback: opts.Feedback, SlowLog: opts.SlowLog,
		},
		opts:        opts,
		slots:       newSlotTable(opts.siteSlots()),
		flights:     flightGroup{m: map[string]*flight{}},
		execFlights: map[string]*execFlight{},
	}
	if opts.Exec != nil {
		s.lc.Exec = *opts.Exec
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < opts.maxConcurrent(); i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.worker()
		}()
	}
	return s
}

// Ticket is a handle on an admitted query.
type Ticket struct{ t *task }

// Submit admits a query (or rejects it with a typed error) and returns
// immediately; Wait on the ticket delivers the outcome. ctx governs the
// query end to end: cancelling it while queued means the query never
// starts; cancelling it mid-execution tears down its fragment pipelines
// and in-flight shipment retries.
func (s *Server) Submit(ctx context.Context, req Request) (*Ticket, error) {
	s.nSubmitted.Add(1)
	if req.SQL == "" {
		return nil, fmt.Errorf("sched: empty SQL")
	}
	weight := req.Weight
	if weight <= 0 {
		weight = 1
	}
	timeout := req.Timeout
	if timeout <= 0 {
		timeout = s.opts.QueryTimeout
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.nRejClosed.Add(1)
		s.countRejected("closed")
		return nil, ErrServerClosed
	}
	if len(s.queue) >= s.opts.queueDepth() {
		depth := len(s.queue)
		s.mu.Unlock()
		s.nRejFull.Add(1)
		s.countRejected("queue_full")
		return nil, fmt.Errorf("%w (depth %d)", ErrQueueFull, depth)
	}
	var qctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		qctx, cancel = context.WithTimeout(ctx, timeout)
	} else {
		qctx, cancel = context.WithCancel(ctx)
	}
	t := &task{
		srv:     s,
		req:     req,
		ctx:     qctx,
		cancel:  cancel,
		vft:     s.vtime + 1/weight,
		seq:     s.seq,
		enq:     time.Now(),
		heapIdx: -1,
		done:    make(chan struct{}),
	}
	s.seq++
	heap.Push(&s.queue, t)
	s.nAdmitted.Add(1)
	s.gaugeQueueLocked()
	s.cond.Signal()
	s.mu.Unlock()
	if m := s.lc.Obs.Reg(); m != nil {
		m.Counter("cgdqp_sched_admitted_total").Inc()
	}
	return &Ticket{t: t}, nil
}

// SubmitSQL is Submit with default weight and timeout.
func (s *Server) SubmitSQL(ctx context.Context, sql string) (*Ticket, error) {
	return s.Submit(ctx, Request{SQL: sql})
}

// Do submits a query and waits for its outcome.
func (s *Server) Do(ctx context.Context, sql string) (*Response, error) {
	tk, err := s.SubmitSQL(ctx, sql)
	if err != nil {
		return nil, err
	}
	return tk.Wait(ctx)
}

// Wait blocks until the query finishes (or ctx is cancelled — the query
// itself keeps its own submission context). A query whose own context
// ends while it is still queued is abandoned without ever starting.
func (tk *Ticket) Wait(ctx context.Context) (*Response, error) {
	t := tk.t
	select {
	case <-t.done:
		return t.resp, t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-t.ctx.Done():
		// Cancelled or timed out: pull it out of the queue if it has
		// not started; a running query observes the context in its
		// execution pipeline and finishes shortly on its own.
		t.srv.abandon(t)
		<-t.done
		return t.resp, t.err
	}
}

// Done is closed when the query reaches a terminal state; use Wait for
// the result.
func (tk *Ticket) Done() <-chan struct{} { return tk.t.done }

// Close stops admission, drains the queue (admitted queries still run),
// waits for the workers to exit, and returns.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// Counters returns a snapshot of the server's lifetime counts.
func (s *Server) Counters() Counters {
	return Counters{
		Submitted:         s.nSubmitted.Load(),
		Admitted:          s.nAdmitted.Load(),
		RejectedQueueFull: s.nRejFull.Load(),
		RejectedClosed:    s.nRejClosed.Load(),
		Completed:         s.nCompleted.Load(),
		Failed:            s.nFailed.Load(),
		Cancelled:         s.nCancelled.Load(),
		Coalesced:         s.nCoalesced.Load(),
		Executed:          s.nExecuted.Load(),
		ResultCacheHits:   s.nResCacheHits.Load(),
		ExecCoalesced:     s.nExecCoalesced.Load(),
	}
}

// Running returns the number of queries currently being served.
func (s *Server) Running() int64 { return s.running.Load() }

// --- scheduling loop -----------------------------------------------------

// worker serves queries one at a time, picking the next in
// weighted-fair order.
func (s *Server) worker() {
	for {
		t := s.next()
		if t == nil {
			return
		}
		s.serve(t)
	}
}

// next blocks until a task is schedulable (skipping tasks whose context
// ended while queued — those never start) or the server is closed with
// an empty queue. The worker pool is MaxConcurrent goroutines, so
// dispatch needs no limit of its own.
func (s *Server) next() *task {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for len(s.queue) > 0 {
			t := heap.Pop(&s.queue).(*task)
			s.gaugeQueueLocked()
			if t.ctx.Err() != nil {
				// Cancelled while queued: finish it without starting.
				err := t.ctx.Err()
				s.mu.Unlock()
				s.finish(t, nil, err)
				s.mu.Lock()
				continue
			}
			if t.vft > s.vtime {
				s.vtime = t.vft
			}
			return t
		}
		if s.closed && len(s.queue) == 0 {
			return nil
		}
		s.cond.Wait()
	}
}

// abandon removes a still-queued task whose context ended and finishes
// it with the context error; a task already taken by a worker is left
// to finish on its own.
func (s *Server) abandon(t *task) {
	s.mu.Lock()
	if t.heapIdx < 0 {
		s.mu.Unlock()
		return
	}
	heap.Remove(&s.queue, t.heapIdx)
	s.gaugeQueueLocked()
	s.mu.Unlock()
	s.finish(t, nil, t.ctx.Err())
}

// serve runs one admitted query through the lifecycle and delivers its
// outcome.
func (s *Server) serve(t *task) {
	t.queueWait = time.Since(t.enq)
	s.running.Add(1)
	defer s.running.Add(-1)
	if m := s.lc.Obs.Reg(); m != nil {
		m.Gauge("cgdqp_sched_running").Set(float64(s.running.Load()))
		m.Histogram("cgdqp_sched_queue_wait_seconds").Observe(t.queueWait.Seconds())
	}
	sp := s.lc.Obs.StartSpan("sched.serve")
	q := &Query{SQL: t.req.SQL, Start: t.enq}
	r, how, err := s.run(t, q)
	if err != nil {
		how = "exec_error"
		switch {
		case isCancellation(err):
			how = "cancelled"
		case q.Root == nil: // never got a plan
			how = "optimize_error"
		}
		sp.Tag("outcome", how).End()
		s.lc.Note(q, nil, false, err)
		s.finish(t, nil, err)
		return
	}
	sp.TagInt("rows", r.Stats.RowsOut).Tag("outcome", how).End()
	hit := how != "ok"
	s.lc.Note(q, r, hit, nil)
	s.finish(t, &Response{
		Rows:        r.Rows,
		Columns:     r.Columns,
		Stats:       r.Stats,
		EstShipCost: r.ShipCost,
		Coalesced:   q.Coalesced,
		CacheHit:    hit,
		QueueWait:   t.queueWait,
	}, nil)
}

// finish records the task's outcome exactly once — counters first, so
// a waiter that wakes on done already sees itself counted — and
// releases its context resources.
func (s *Server) finish(t *task, resp *Response, err error) {
	t.once.Do(func() {
		status := "ok"
		switch {
		case err == nil:
			s.nCompleted.Add(1)
		case isCancellation(err):
			s.nCancelled.Add(1)
			status = "cancelled"
		default:
			s.nFailed.Add(1)
			status = "error"
		}
		lat := time.Since(t.enq)
		if m := s.lc.Obs.Reg(); m != nil {
			m.Counter("cgdqp_sched_queries_total", "status", status).Inc()
			m.Histogram("cgdqp_sched_e2e_seconds").Observe(lat.Seconds())
		}
		if resp != nil {
			resp.Total = lat
		}
		t.resp, t.err = resp, err
		t.cancel()
		close(t.done)
	})
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// gaugeQueueLocked refreshes the queue-depth gauge (caller holds mu).
func (s *Server) gaugeQueueLocked() {
	if m := s.lc.Obs.Reg(); m != nil {
		m.Gauge("cgdqp_sched_queue_depth").Set(float64(len(s.queue)))
	}
}

func (s *Server) countRejected(reason string) {
	if m := s.lc.Obs.Reg(); m != nil {
		m.Counter("cgdqp_sched_rejected_total", "reason", reason).Inc()
	}
}
