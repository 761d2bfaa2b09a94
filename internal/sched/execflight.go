package sched

import (
	"context"
	"errors"

	"cgdqp/internal/executor"
	"cgdqp/internal/expr"
	"cgdqp/internal/obs"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/plan"
	"cgdqp/internal/rescache"
)

// execFlight extends the optimization singleflight to *execution*: while
// one task (the leader) executes a plan and fills the result cache,
// identical tasks wait on the flight and are served the leader's result
// instead of executing again — a thundering herd of one query runs once.
type execFlight struct {
	done chan struct{}
	// res is an immutable master copy of the leader's result; every
	// follower copies out of it (set iff err == nil).
	res *rescache.Result
	err error
	// cancelled marks a leader that failed only because its own context
	// ended; followers then retry (one becomes the new leader) instead
	// of inheriting a cancellation that was never theirs.
	cancelled bool
}

// serveCached is the serve path when a result cache is configured:
// cache hit → respond without executing (no slots taken); in-flight
// identical execution → wait for the leader; otherwise become the
// leader, execute, fill the cache and publish the result to followers.
func (s *Server) serveCached(t *task, ores *optimizer.Result, located *plan.Node, shared bool, sp obs.Span) {
	cache, view := s.opts.ResultCache, s.opts.CacheView
	fill := rescache.Prepare(located, s.opts.CacheOptsFP, view)
	for {
		if r, ok := cache.Get(fill.Key, view); ok {
			s.nResCacheHits.Add(1)
			s.respondCached(t, r, shared, sp, "cache_hit")
			return
		}
		s.exmu.Lock()
		if f, ok := s.execFlights[fill.Key]; ok {
			s.exmu.Unlock()
			select {
			case <-f.done:
				if f.err != nil {
					if f.cancelled {
						if t.ctx.Err() != nil {
							sp.Tag("outcome", "cancelled").End()
							s.finish(t, nil, t.ctx.Err())
							return
						}
						// The leader's cancellation is not ours: retry
						// (perhaps as the new leader).
						continue
					}
					// A real execution failure is the shared outcome of
					// the coalesced group, exactly as a shared
					// optimization failure would be.
					sp.Tag("outcome", "exec_error").End()
					s.finish(t, nil, f.err)
					return
				}
				s.nExecCoalesced.Add(1)
				if m := s.obsv.Reg(); m != nil {
					m.Counter("cgdqp_sched_exec_coalesced_total").Inc()
				}
				s.respondCached(t, f.res.Copy(), shared, sp, "exec_coalesced")
				return
			case <-t.ctx.Done():
				sp.Tag("outcome", "cancelled").End()
				s.finish(t, nil, t.ctx.Err())
				return
			}
		}
		f := &execFlight{done: make(chan struct{})}
		s.execFlights[fill.Key] = f
		s.exmu.Unlock()

		rows, cols, stats, recs, err := s.execute(t, located)
		if err == nil {
			cache.Put(fill, rows, cols, *stats, recs, ores.ShipCost)
			// Followers read from a private master copy — the leader's
			// own slices go to the leader's caller, who may mutate them.
			f.res = rescache.NewResult(rows, cols, *stats, recs, ores.ShipCost)
		} else {
			f.err = err
			f.cancelled = errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		}
		s.exmu.Lock()
		delete(s.execFlights, fill.Key)
		s.exmu.Unlock()
		close(f.done)

		if err != nil {
			if f.cancelled {
				sp.Tag("outcome", "cancelled").End()
			} else {
				sp.Tag("outcome", "exec_error").End()
			}
			s.finish(t, nil, err)
			return
		}
		if sp.Enabled() {
			sp.TagInt("rows", stats.RowsOut).Tag("outcome", "ok").End()
		}
		s.finish(t, &Response{
			Rows:        rows,
			Columns:     cols,
			Stats:       *stats,
			EstShipCost: ores.ShipCost,
			Coalesced:   shared,
			QueueWait:   t.queueWait,
		}, nil)
		return
	}
}

// respondCached finishes a task from a cached (or flight-shared) result:
// the stored audit records are replayed into the shared audit log so a
// cache-served query leaves the same compliance trail as the execution
// that filled it.
func (s *Server) respondCached(t *task, r *rescache.Result, shared bool, sp obs.Span, how string) {
	if sink := s.obsv.AuditSink(); sink != nil {
		for _, rec := range r.Audit {
			sink.Record(rec)
		}
	}
	if sp.Enabled() {
		sp.TagInt("rows", r.Stats.RowsOut).Tag("outcome", how).End()
	}
	s.finish(t, &Response{
		Rows:        r.Rows,
		Columns:     r.Columns,
		Stats:       r.Stats,
		EstShipCost: r.ShipCost,
		Coalesced:   shared,
		CacheHit:    true,
		QueueWait:   t.queueWait,
	}, nil)
}

// execute runs the located plan under the task's context with gang
// per-site slots, capturing the run's audit records (when auditing is
// on) so the cache can replay them to later hits.
func (s *Server) execute(t *task, located *plan.Node) ([]expr.Row, []string, *executor.RunStats, []obs.AuditRecord, error) {
	need := s.census(located)
	if err := s.slots.acquire(t.ctx, need); err != nil {
		return nil, nil, nil, nil, err
	}
	runObs := s.obsv
	var capture *obs.AuditLog
	if s.obsv.AuditSink() != nil {
		capture = obs.NewAuditLog()
		runObs = s.obsv.WithAudit(capture)
	}
	s.nExecuted.Add(1)
	rows, stats, err := s.runPlanFeedback(t, located, runObs)
	s.slots.release(need)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	var recs []obs.AuditRecord
	if capture != nil {
		recs = capture.Records()
		sink := s.obsv.AuditSink()
		for _, rec := range recs {
			sink.Record(rec)
		}
	}
	cols := make([]string, len(located.Cols))
	for i, c := range located.Cols {
		cols[i] = c.Name
	}
	return rows, cols, stats, recs, nil
}

// runPlan executes a located plan with goroutine-mode exchanges under
// the server's execution options (nil Exec = the defaults).
func (s *Server) runPlan(ctx context.Context, located *plan.Node, o *obs.Observer) ([]expr.Row, *executor.RunStats, error) {
	var eo executor.ExecOptions
	if s.opts.Exec != nil {
		eo = *s.opts.Exec
	}
	return executor.RunParallelOpts(ctx, located, s.cl, o, eo)
}
