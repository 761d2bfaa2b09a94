// Package feedback closes the loop between execution telemetry and the
// planner: a concurrent, bounded store of per-operator observed
// cardinalities (keyed by canonical subplan digest, with q-error
// tracking). Consumers: the optimizer overrides stale statistics with
// high-confidence actuals (guarded by a feedback epoch so plan caches
// invalidate safely), and a structured slow-query log explains outliers.
// Everything is nil-safe: a nil *Store ignores writes and returns no
// hints, so disabled paths stay deterministic.
package feedback

import (
	"math"
	"sync"
	"sync/atomic"

	"cgdqp/internal/obs"
)

const (
	// maxSubplans caps the number of tracked subplan digests. At the cap,
	// observations for unseen digests are dropped (and counted) rather
	// than evicting hot entries.
	maxSubplans = 4096
	// activateQError is the estimate-vs-actual q-error above which an
	// observed cardinality becomes an active hint. Below it the catalog
	// estimate is close enough that overriding would only churn the plan
	// cache.
	activateQError = 2.0
	// hintDrift is the relative movement of an active hint's actual
	// (EWMA), in either direction, that re-bumps the epoch so cached
	// plans re-price.
	hintDrift = 1.5
	// ewmaAlpha weights new samples into the running actual.
	ewmaAlpha = 0.25
)

// cardStat tracks one subplan digest's observed output cardinality.
type cardStat struct {
	actual float64 // EWMA of observed rows
	// hint is the active override: 0 = inactive, else ≥ 1 row — an empty
	// result activates as 1, the floor QError puts under its inputs, so
	// it reads as active and is not activated again. Once active a hint
	// never deactivates — after re-optimization the recorded estimate
	// IS the hint, so an "estimate now accurate" test would oscillate
	// between activating and deactivating, invalidating the plan cache
	// forever. It only drifts (bumping the epoch past hintDrift).
	hint float64
}

// Store is the telemetry store. All methods are safe for concurrent use
// and safe on a nil receiver.
type Store struct {
	epoch atomic.Uint64

	mu      sync.RWMutex
	cards   map[string]*cardStat
	dropped int64 // observations dropped at maxSubplans
	active  int64 // digests with an active hint
	maxQ    float64

	reg *obs.Registry // optional metrics sink
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{cards: make(map[string]*cardStat)}
}

// SetMetrics attaches a registry; the store exports
// cgdqp_feedback_{tracked,active_hints,epoch,dropped_total} gauges and
// a cgdqp_feedback_qerror histogram. Call before concurrent use.
func (s *Store) SetMetrics(reg *obs.Registry) {
	if s != nil {
		s.reg = reg
	}
}

// Epoch returns the feedback epoch, the version of the hint set: it
// moves when a hint activates or an active hint drifts past hintDrift.
// Plan caches keyed on it invalidate exactly when re-optimization could
// see a different cardinality. Nil stores are frozen at 0.
func (s *Store) Epoch() uint64 {
	if s == nil {
		return 0
	}
	return s.epoch.Load()
}

// BumpEpoch forces an epoch move (exposed for tests).
func (s *Store) BumpEpoch() {
	if s == nil {
		return
	}
	e := s.epoch.Add(1)
	if s.reg != nil {
		s.reg.Gauge("cgdqp_feedback_epoch").Set(float64(e))
	}
}

// ObserveOperator records one executed operator: the planner's estimate
// against the observed output rows, keyed by canonical subplan digest.
func (s *Store) ObserveOperator(digest string, est, actual float64) {
	if s == nil || digest == "" {
		return
	}
	q := QError(est, actual)
	bump := false
	s.mu.Lock()
	c := s.cards[digest]
	if c == nil {
		if len(s.cards) >= maxSubplans {
			s.dropped++
			s.mu.Unlock()
			return
		}
		c = &cardStat{actual: actual}
		s.cards[digest] = c
	}
	if q > s.maxQ {
		s.maxQ = q
	}
	c.actual = (1-ewmaAlpha)*c.actual + ewmaAlpha*actual
	switch {
	case c.hint == 0:
		if q >= activateQError {
			s.active++
			bump = true
		}
	default:
		bump = QError(c.hint, c.actual) >= hintDrift
	}
	if bump {
		c.hint = math.Max(c.actual, 1)
	}
	tracked, active := len(s.cards), s.active
	s.mu.Unlock()

	if bump {
		s.BumpEpoch()
	}
	if s.reg != nil {
		s.reg.Gauge("cgdqp_feedback_tracked").Set(float64(tracked))
		s.reg.Gauge("cgdqp_feedback_active_hints").Set(float64(active))
		s.reg.Histogram("cgdqp_feedback_qerror").Observe(q)
	}
}

// CardHint returns the observed cardinality for a subplan digest when a
// high-confidence actual is active. It implements cost.CardHints.
func (s *Store) CardHint(digest string) (float64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.RLock()
	c := s.cards[digest]
	var h float64
	if c != nil {
		h = c.hint
	}
	s.mu.RUnlock()
	if h <= 0 {
		return 0, false
	}
	return h, true
}

// Summary is a point-in-time view of the store.
type Summary struct {
	Tracked     int     // subplan digests tracked
	ActiveHints int     // digests with an active override
	Dropped     int64   // observations dropped at the bound
	Epoch       uint64  // current feedback epoch
	MaxQError   float64 // worst q-error observed
}

// Summary snapshots the store.
func (s *Store) Summary() Summary {
	if s == nil {
		return Summary{}
	}
	s.mu.RLock()
	sum := Summary{
		Tracked:     len(s.cards),
		ActiveHints: int(s.active),
		Dropped:     s.dropped,
		MaxQError:   s.maxQ,
	}
	s.mu.RUnlock()
	sum.Epoch = s.epoch.Load()
	return sum
}

// QError is the symmetric cardinality error max(est/act, act/est), the
// standard misestimation measure; inputs are floored at 1 row so empty
// results do not blow up the ratio.
func QError(est, actual float64) float64 {
	if est < 1 {
		est = 1
	}
	if actual < 1 {
		actual = 1
	}
	if est > actual {
		return est / actual
	}
	return actual / est
}
