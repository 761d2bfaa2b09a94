package sched

import (
	"context"
	"sync"

	"cgdqp/internal/optimizer"
)

// flightGroup coalesces identical in-flight optimizations: while one
// query's OptimizeSQL runs, identical submissions wait for its result
// instead of repeating the work (shared-work batching). Keys prefer the
// normalized-plan digest — the optimizer's cache key, which identifies
// queries that normalize identically even when the SQL text differs —
// and fall back to the SQL text the first time a statement is seen.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

type flight struct {
	done chan struct{}
	res  *optimizer.Result
	cols []string
	err  error
}

// flightKey keys a statement for coalescing. The digest is only known
// after a first optimization memoized it; until then the SQL text is
// the key (distinct prefixes keep the namespaces apart).
func (s *Server) flightKey(sql string) string {
	if d, ok := s.lc.Opt.CachedDigest(sql); ok {
		return "d\x00" + d
	}
	return "q\x00" + sql
}

// optimizeShared runs the lifecycle's Plan step once per identical
// in-flight statement; followers block on the leader's flight and report
// shared=true. Followers must Clone() the plan before executing it —
// the leader executes the original. A follower whose ctx ends while
// waiting leaves the flight (the leader is never cancelled on a
// follower's behalf).
func (s *Server) optimizeShared(ctx context.Context, sql string) (res *optimizer.Result, cols []string, shared bool, err error) {
	key := s.flightKey(sql)
	s.flights.mu.Lock()
	if f, ok := s.flights.m[key]; ok {
		s.flights.mu.Unlock()
		select {
		case <-f.done:
			s.nCoalesced.Add(1)
			if m := s.lc.Obs.Reg(); m != nil {
				m.Counter("cgdqp_sched_coalesced_total").Inc()
			}
			return f.res, f.cols, true, f.err
		case <-ctx.Done():
			return nil, nil, false, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	s.flights.m[key] = f
	s.flights.mu.Unlock()

	f.res, f.cols, f.err = s.lc.Plan(sql)
	s.flights.mu.Lock()
	delete(s.flights.m, key)
	s.flights.mu.Unlock()
	close(f.done)
	return f.res, f.cols, false, f.err
}
