package sched

import (
	"cgdqp/internal/obs"
	"cgdqp/internal/rescache"
)

// run takes an admitted query through the lifecycle steps, wrapping the
// scheduler's own around them, and says how a successful query was
// answered: obs.OutcomeOK (executed), OutcomeCacheHit or
// OutcomeExecCoalesced. Plan runs under the optimization singleflight.
// Without a result cache the query then simply executes. With one:
// cache hit → respond without executing; otherwise execute under the
// execution singleflight, keyed by the cache key — while one task (the
// leader) executes the plan and fills the cache, identical tasks wait
// and are served copies of its result, so a thundering herd of one
// query runs once.
func (s *Server) run(t *task, q *Query) (*rescache.Result, string, error) {
	res, cols, shared, err := s.optimizeShared(t.ctx, q.SQL)
	if err != nil {
		return nil, "", err
	}
	q.SetPlan(res, cols, shared)
	if s.lc.Cache == nil {
		r, err := s.execute(t, q)
		return r, obs.OutcomeOK, err
	}
	r, ok, err := s.lc.Probe(q)
	if err != nil {
		return nil, "", err
	}
	if ok {
		s.nResCacheHits.Add(1)
		return r, obs.OutcomeCacheHit, nil
	}
	var own *rescache.Result
	master, shared, err := coalesce(t.ctx, &s.exmu, s.execFlights, q.fill.Key, func() (*rescache.Result, error) {
		r, err := s.execute(t, q)
		if err != nil {
			return nil, err
		}
		// Followers read from a private master copy — the leader's own
		// slices go to the leader's caller, who may mutate them.
		own = r
		return r.Copy(), nil
	})
	switch {
	case err != nil:
		// A real execution failure is the shared outcome of the
		// coalesced group, exactly as a shared optimization failure is.
		return nil, "", err
	case !shared:
		return own, obs.OutcomeOK, nil
	}
	s.nExecCoalesced.Add(1)
	if m := s.lc.Obs.Reg(); m != nil {
		m.Counter("cgdqp_sched_exec_coalesced_total").Inc()
	}
	r = master.Copy()
	s.lc.replay(r.Audit)
	return r, obs.OutcomeExecCoalesced, nil
}

// execute counts and runs the lifecycle's Execute step under the task's
// context.
func (s *Server) execute(t *task, q *Query) (*rescache.Result, error) {
	s.nExecuted.Add(1)
	return s.lc.Execute(t.ctx, q, nil)
}
