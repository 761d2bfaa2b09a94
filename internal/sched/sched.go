// Package sched is the concurrent query-serving front end: the System's
// own query Lifecycle (plan, probe, execute, note — see lifecycle.go)
// with admission in front and two singleflights around it. What the
// Server itself contributes:
//
//   - Admission control: a bounded FIFO submission queue with typed
//     rejections (ErrQueueFull, ErrServerClosed) so overload sheds load
//     as backpressure instead of unbounded queueing.
//   - One concurrency limit: a pool of MaxConcurrent workers takes
//     queries off the queue in admission order.
//   - Per-query isolation: execution runs under the per-query context
//     (cancelled queued queries never start; cancelled running queries
//     tear down their fragment pipelines and in-flight retries), and
//     per-run ledger scoping in the executor keeps each query's
//     RunStats independent under concurrency.
//   - Shared-work batching: identical in-flight optimizations coalesce
//     (singleflight on the normalized-plan digest), and with a result
//     cache identical in-flight executions do too, so a thundering herd
//     of one query optimizes and runs once.
package sched

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cgdqp/internal/executor"
	"cgdqp/internal/expr"
	"cgdqp/internal/obs"
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
	// ResultCache, when set, replaces the lifecycle's result cache and
	// CacheView its validity oracles — data epochs, the policy epoch and
	// the provenance recheck; see package rescache. With a cache (either
	// one) repeated queries are served from whole cached result sets and
	// concurrent identical executions coalesce onto one run.
	ResultCache *rescache.Cache
	CacheView   rescache.View
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
	// lc is the query lifecycle every served query runs; the rest of
	// the server is what surrounds its steps.
	lc   Lifecycle
	opts Options

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*task // admitted, not yet started; FIFO, at most QueueDepth
	running int     // queries a worker is serving
	closed  bool

	wg sync.WaitGroup

	// The tables of the two singleflights (see coalesce): optimizations
	// by statement, and executions by result-cache key when a result
	// cache is configured.
	flights struct {
		mu sync.Mutex
		m  map[string]*flight
	}
	exmu        sync.Mutex
	execFlights map[string]*call[*rescache.Result]

	nSubmitted, nAdmitted, nRejFull, nRejClosed atomic.Int64
	nCompleted, nFailed, nCancelled, nCoalesced atomic.Int64
	nExecuted, nResCacheHits, nExecCoalesced    atomic.Int64
}

// NewServer starts a server that runs every admitted query through lc.
// lc's observer (nil = unobserved) receives queue gauges, admission and
// rejection counters, and queue-wait / end-to-end latency histograms.
func NewServer(lc Lifecycle, opts Options) *Server {
	if opts.ResultCache != nil {
		lc.Cache, lc.View = opts.ResultCache, opts.CacheView
	}
	s := &Server{lc: lc, opts: opts, execFlights: map[string]*call[*rescache.Result]{}}
	s.flights.m = map[string]*flight{}
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

// task is one admitted query moving through the scheduler.
type task struct {
	srv    *Server
	sql    string
	ctx    context.Context
	cancel context.CancelFunc

	enq time.Time

	once sync.Once
	done chan struct{}
	resp *Response
	err  error
}

// Ticket is a handle on an admitted query.
type Ticket struct{ t *task }

// Submit admits a query (or rejects it with a typed error) and returns
// immediately; Wait on the ticket delivers the outcome. ctx governs the
// query end to end, deadline included: cancelling it while queued means
// the query never starts; cancelling it mid-execution tears down its
// fragment pipelines and in-flight shipment retries.
func (s *Server) Submit(ctx context.Context, sql string) (*Ticket, error) {
	// Not a submission at all: Submitted counts what is then either
	// admitted or rejected.
	if sql == "" {
		return nil, fmt.Errorf("sched: empty SQL")
	}
	s.nSubmitted.Add(1)

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
	qctx, cancel := context.WithCancel(ctx)
	t := &task{
		srv:    s,
		sql:    sql,
		ctx:    qctx,
		cancel: cancel,
		enq:    time.Now(),
		done:   make(chan struct{}),
	}
	s.queue = append(s.queue, t)
	s.nAdmitted.Add(1)
	s.gaugesLocked()
	s.cond.Signal()
	s.mu.Unlock()
	if m := s.lc.Obs.Reg(); m != nil {
		m.Counter("cgdqp_sched_admitted_total").Inc()
	}
	return &Ticket{t: t}, nil
}

// Do submits a query and waits for its outcome.
func (s *Server) Do(ctx context.Context, sql string) (*Response, error) {
	tk, err := s.Submit(ctx, sql)
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
func (s *Server) Running() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// --- scheduling loop -----------------------------------------------------

// worker serves queries one at a time, in admission order.
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
			t := s.queue[0]
			s.queue = slices.Delete(s.queue, 0, 1)
			if err := t.ctx.Err(); err != nil {
				// Cancelled while queued: finish it without starting.
				s.gaugesLocked()
				s.mu.Unlock()
				s.finish(t, nil, err)
				s.mu.Lock()
				continue
			}
			s.running++
			s.gaugesLocked()
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
	i := slices.Index(s.queue, t)
	if i < 0 {
		s.mu.Unlock()
		return
	}
	s.queue = slices.Delete(s.queue, i, i+1)
	s.gaugesLocked()
	s.mu.Unlock()
	s.finish(t, nil, t.ctx.Err())
}

// serve runs one admitted query through the lifecycle and delivers its
// outcome.
func (s *Server) serve(t *task) {
	q := &Query{SQL: t.sql, Start: t.enq, QueueWait: time.Since(t.enq)}
	defer func() {
		s.mu.Lock()
		s.running--
		s.gaugesLocked()
		s.mu.Unlock()
	}()
	if m := s.lc.Obs.Reg(); m != nil {
		m.Histogram("cgdqp_sched_queue_wait_seconds").Observe(q.QueueWait.Seconds())
	}
	r, how, err := s.run(t, q)
	s.lc.Note(q, r, how, err)
	if err != nil {
		s.finish(t, nil, err)
		return
	}
	s.finish(t, &Response{
		Rows:        r.Rows,
		Columns:     r.Columns,
		Stats:       r.Stats,
		EstShipCost: r.ShipCost,
		Coalesced:   q.Coalesced,
		CacheHit:    how != obs.OutcomeOK,
		QueueWait:   q.QueueWait,
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

// gaugesLocked refreshes the queue-depth and running gauges (caller
// holds mu, so the last write is the latest state).
func (s *Server) gaugesLocked() {
	if m := s.lc.Obs.Reg(); m != nil {
		m.Gauge("cgdqp_sched_queue_depth").Set(float64(len(s.queue)))
		m.Gauge("cgdqp_sched_running").Set(float64(s.running))
	}
}

func (s *Server) countRejected(reason string) {
	if m := s.lc.Obs.Reg(); m != nil {
		m.Counter("cgdqp_sched_rejected_total", "reason", reason).Inc()
	}
}
