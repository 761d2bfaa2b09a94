package sched

import (
	"context"
	"sync"

	"cgdqp/internal/optimizer"
)

// call is one computation in flight: identical requests that arrive
// while it runs wait on done and share its res and err.
type call[V any] struct {
	done chan struct{}
	res  V
	err  error
}

// flight is an optimization in flight.
type flight = call[*optimizer.Result]

// coalesce is the scheduler's one singleflight: among concurrent callers
// presenting the same key to one table of calls in flight (inflight,
// guarded by mu), the first leads and runs fn; the others follow, wait
// for its outcome and report shared=true, so fn's result must be safe to
// share. A follower whose ctx ends while waiting leaves with ctx.Err()
// (the leader is never cancelled on a follower's behalf). When the
// leader failed only because its own context ended, that cancellation
// is not the followers': they retry, and one becomes the new leader.
func coalesce[V any](ctx context.Context, mu *sync.Mutex, inflight map[string]*call[V], key string, fn func() (V, error)) (res V, shared bool, err error) {
	for {
		mu.Lock()
		c, ok := inflight[key]
		if !ok {
			c = &call[V]{done: make(chan struct{})}
			inflight[key] = c
			mu.Unlock()
			c.res, c.err = fn()
			mu.Lock()
			delete(inflight, key)
			mu.Unlock()
			close(c.done)
			return c.res, false, c.err
		}
		mu.Unlock()
		select {
		case <-c.done:
		case <-ctx.Done():
			return res, false, ctx.Err()
		}
		if !isCancellation(c.err) {
			return c.res, true, c.err
		}
		if err := ctx.Err(); err != nil {
			return res, false, err
		}
	}
}

// flightKey keys a statement for coalescing optimizations. Keys prefer
// the normalized-plan digest — the optimizer's cache key, which
// identifies queries that normalize identically even when the SQL text
// differs — but the digest is only known after a first optimization
// memoized it; until then the SQL text is the key (distinct prefixes
// keep the namespaces apart).
func (s *Server) flightKey(sql string) string {
	if d, ok := s.lc.Opt.CachedDigest(sql); ok {
		return "d\x00" + d
	}
	return "q\x00" + sql
}

// optimizeShared runs the lifecycle's Plan step once per identical
// in-flight statement; followers report shared=true and must Clone() the
// plan before executing it — the leader executes the original. Every
// caller gets column names of its own.
func (s *Server) optimizeShared(ctx context.Context, sql string) (res *optimizer.Result, cols []string, shared bool, err error) {
	res, shared, err = coalesce(ctx, &s.flights.mu, s.flights.m, s.flightKey(sql), func() (r *optimizer.Result, err error) {
		r, cols, err = s.lc.Plan(sql)
		return r, err
	})
	if shared {
		s.nCoalesced.Add(1)
		if m := s.lc.Obs.Reg(); m != nil {
			m.Counter("cgdqp_sched_coalesced_total").Inc()
		}
		if err == nil {
			cols = columnNames(res.Plan)
		}
	}
	return res, cols, shared, err
}
