// Package feedback closes the loop between execution telemetry and the
// planner: a concurrent, bounded store of per-operator observed
// cardinalities (keyed by canonical subplan digest, with q-error
// tracking) and per-query end-to-end latency samples. Consumers: the
// optimizer overrides stale statistics with high-confidence actuals
// (guarded by a feedback epoch so plan caches invalidate safely), the
// scheduler weights gang site slots by observed fragment cost, and a
// structured slow-query log explains outliers. Everything is nil-safe: a nil *Store ignores
// writes and returns no hints, so disabled paths stay deterministic.
package feedback

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"cgdqp/internal/obs"
)

// Defaults for Options zero values.
const (
	DefaultMaxSubplans = 4096
	DefaultMinSamples  = 1
	// DefaultActivateQError is the estimate-vs-actual q-error above
	// which an observed cardinality becomes an active hint. Below it the
	// catalog estimate is close enough that overriding would only churn
	// the plan cache.
	DefaultActivateQError = 2.0
	// DefaultHintDrift is the relative movement of an active hint's
	// actual (EWMA) that re-bumps the epoch so cached plans re-price.
	DefaultHintDrift = 1.5
	// DefaultEWMAAlpha weights new samples into the running actual.
	DefaultEWMAAlpha = 0.25
	// DefaultLatencyWindow is the e2e latency ring size.
	DefaultLatencyWindow = 512
)

// Options bound and tune a Store. The zero value uses the defaults.
type Options struct {
	// MaxSubplans caps the number of tracked subplan digests. At the
	// cap, observations for unseen digests are dropped (and counted)
	// rather than evicting hot entries.
	MaxSubplans int
	// MinSamples is the number of observations a digest needs before
	// its actual can become an active hint.
	MinSamples int
	// ActivateQError is the estimate q-error threshold for activation.
	ActivateQError float64
	// HintDrift re-bumps the epoch when an active hint's actual moves
	// by more than this factor (in either direction).
	HintDrift float64
	// EWMAAlpha is the exponential moving-average weight of new samples.
	EWMAAlpha float64
	// LatencyWindow is the size of the e2e latency sample ring.
	LatencyWindow int
}

func (o Options) withDefaults() Options {
	if o.MaxSubplans <= 0 {
		o.MaxSubplans = DefaultMaxSubplans
	}
	if o.MinSamples <= 0 {
		o.MinSamples = DefaultMinSamples
	}
	if o.ActivateQError <= 1 {
		o.ActivateQError = DefaultActivateQError
	}
	if o.HintDrift <= 1 {
		o.HintDrift = DefaultHintDrift
	}
	if o.EWMAAlpha <= 0 || o.EWMAAlpha > 1 {
		o.EWMAAlpha = DefaultEWMAAlpha
	}
	if o.LatencyWindow <= 0 {
		o.LatencyWindow = DefaultLatencyWindow
	}
	return o
}

// cardStat tracks one subplan digest's observed output cardinality.
type cardStat struct {
	n      int64   // observations
	est    float64 // last catalog/planner estimate recorded
	actual float64 // EWMA of observed rows
	qerr   float64 // last q-error of est vs observed
	maxQ   float64 // worst q-error seen
	// hint is the active override: 0 = inactive, else ≥ 1 row — an empty
	// result activates as 1, the floor QError puts under its inputs, so
	// it reads as active and is not activated again. Once active a hint
	// never deactivates — after re-optimization the recorded estimate
	// IS the hint, so an "estimate now accurate" test would oscillate
	// between activating and deactivating, invalidating the plan cache
	// forever. It only drifts (bumping the epoch past HintDrift).
	hint float64
}

// Store is the telemetry store. All methods are safe for concurrent use
// and safe on a nil receiver.
type Store struct {
	opts  Options
	epoch atomic.Uint64

	mu      sync.RWMutex
	cards   map[string]*cardStat
	dropped int64 // observations dropped at MaxSubplans
	active  int64 // digests with an active hint
	maxQ    float64

	latMu    sync.Mutex
	lat      []float64 // e2e seconds ring
	latIdx   int
	latCount int64

	reg *obs.Registry // optional metrics sink
}

// NewStore returns an empty store.
func NewStore(o Options) *Store {
	o = o.withDefaults()
	return &Store{
		opts:  o,
		cards: make(map[string]*cardStat),
		lat:   make([]float64, o.LatencyWindow),
	}
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
// moves when a hint activates or an active hint drifts past HintDrift.
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
		if len(s.cards) >= s.opts.MaxSubplans {
			s.dropped++
			s.mu.Unlock()
			return
		}
		c = &cardStat{actual: actual}
		s.cards[digest] = c
	}
	c.n++
	c.est = est
	c.qerr = q
	if q > c.maxQ {
		c.maxQ = q
	}
	if q > s.maxQ {
		s.maxQ = q
	}
	a := s.opts.EWMAAlpha
	c.actual = (1-a)*c.actual + a*actual
	switch {
	case c.hint == 0:
		if c.n >= int64(s.opts.MinSamples) && q >= s.opts.ActivateQError {
			s.active++
			bump = true
		}
	default:
		bump = QError(c.hint, c.actual) >= s.opts.HintDrift
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

// ObserveQuery records one query's end-to-end latency.
func (s *Store) ObserveQuery(seconds float64) {
	if s == nil {
		return
	}
	s.latMu.Lock()
	s.lat[s.latIdx] = seconds
	s.latIdx = (s.latIdx + 1) % len(s.lat)
	s.latCount++
	s.latMu.Unlock()
}

// LatencyQuantile returns the q-quantile (0..1) over the latency window;
// ok is false with no samples.
func (s *Store) LatencyQuantile(q float64) (float64, bool) {
	if s == nil {
		return 0, false
	}
	s.latMu.Lock()
	n := int(s.latCount)
	if n > len(s.lat) {
		n = len(s.lat)
	}
	samples := append([]float64(nil), s.lat[:n]...)
	s.latMu.Unlock()
	if len(samples) == 0 {
		return 0, false
	}
	sort.Float64s(samples)
	idx := int(math.Ceil(q*float64(len(samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(samples) {
		idx = len(samples) - 1
	}
	return samples[idx], true
}

// Summary is a point-in-time view of the store.
type Summary struct {
	Tracked     int     // subplan digests tracked
	ActiveHints int     // digests with an active override
	Dropped     int64   // observations dropped at the bound
	Epoch       uint64  // current feedback epoch
	MaxQError   float64 // worst q-error observed
	Queries     int64   // e2e latency samples recorded
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
	s.latMu.Lock()
	sum.Queries = s.latCount
	s.latMu.Unlock()
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
