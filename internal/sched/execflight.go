package sched

import "cgdqp/internal/rescache"

// execFlight extends the optimization singleflight to *execution*: while
// one task (the leader) executes a plan and fills the result cache,
// identical tasks wait on the flight and are served the leader's result
// instead of executing again — a thundering herd of one query runs once.
type execFlight struct {
	done chan struct{}
	// res is an immutable master copy of the leader's result; every
	// follower copies out of it (set iff err == nil).
	res *rescache.Result
	// err is the leader's failure. When it is only the leader's own
	// context ending, followers retry (one becomes the new leader)
	// instead of inheriting a cancellation that was never theirs.
	err error
}

// run takes an admitted query through the lifecycle steps, wrapping the
// scheduler's own around them, and says how a successful query was
// answered: "ok" (executed), "cache_hit" or "exec_coalesced". Plan runs
// under the optimization singleflight. Without a result cache the query
// then simply executes. With one: cache hit → respond without
// executing; identical execution in flight → wait for its leader;
// otherwise become the leader, execute (which fills the cache) and
// publish the result to followers.
func (s *Server) run(t *task, q *Query) (*rescache.Result, string, error) {
	res, cols, shared, err := s.optimizeShared(t.ctx, q.SQL)
	if err != nil {
		return nil, "", err
	}
	q.Root, q.Columns, q.EstShipCost, q.Coalesced = res.Plan, cols, res.ShipCost, shared
	if shared {
		// Followers of a coalesced optimization share the leader's
		// Result; execution needs a private tree (and the response
		// private column names).
		q.Root = q.Root.Clone()
		q.Columns = append([]string(nil), cols...)
	}
	if s.lc.Cache == nil {
		r, err := s.execute(t, q)
		return r, "ok", err
	}
	for {
		if r, ok := s.lc.Probe(q); ok {
			s.nResCacheHits.Add(1)
			return r, "cache_hit", nil
		}
		key := q.fill.Key
		s.exmu.Lock()
		if f, ok := s.execFlights[key]; ok {
			s.exmu.Unlock()
			select {
			case <-f.done:
			case <-t.ctx.Done():
				return nil, "", t.ctx.Err()
			}
			switch {
			case f.err == nil:
				s.nExecCoalesced.Add(1)
				if m := s.lc.Obs.Reg(); m != nil {
					m.Counter("cgdqp_sched_exec_coalesced_total").Inc()
				}
				r := f.res.Copy()
				s.lc.replay(r.Audit)
				return r, "exec_coalesced", nil
			case !isCancellation(f.err):
				// A real execution failure is the shared outcome of the
				// coalesced group, exactly as a shared optimization
				// failure would be.
				return nil, "", f.err
			case t.ctx.Err() != nil:
				return nil, "", t.ctx.Err()
			}
			// The leader's cancellation is not ours: retry (perhaps as
			// the new leader).
			continue
		}
		f := &execFlight{done: make(chan struct{})}
		s.execFlights[key] = f
		s.exmu.Unlock()

		r, err := s.execute(t, q)
		if f.err = err; err == nil {
			// Followers read from a private master copy — the leader's
			// own slices go to the leader's caller, who may mutate them.
			f.res = r.Copy()
		}
		s.exmu.Lock()
		delete(s.execFlights, key)
		s.exmu.Unlock()
		close(f.done)
		return r, "ok", err
	}
}

// execute counts and runs the lifecycle's Execute step under the task's
// context.
func (s *Server) execute(t *task, q *Query) (*rescache.Result, error) {
	s.nExecuted.Add(1)
	return s.lc.Execute(t.ctx, q, nil)
}
