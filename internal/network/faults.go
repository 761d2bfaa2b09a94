// Fault injection for the simulated WAN. A FaultPlan describes, per
// directed edge, how the link misbehaves: batches may be dropped in
// flight, delayed, rejected with a transient error, or the edge may be
// partitioned outright. Every decision is a pure function of the plan's
// seed and the send's coordinates (edge, batch index, attempt), so a
// chaos run replays exactly — regardless of goroutine interleaving —
// and a failing seed can be handed to a test or to `cgdqp -chaos-seed`
// for deterministic reproduction.
package network

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Sentinel errors for shipment failures. ShipError wraps one of these
// (or a transient cause) with the edge and attempt count.
var (
	// ErrPartitioned reports that the edge is down: no attempt can
	// succeed until the partition heals. Not retryable within a run.
	ErrPartitioned = errors.New("network: edge partitioned")
	// ErrBatchDropped reports a batch lost in flight; retryable.
	ErrBatchDropped = errors.New("network: batch dropped in flight")
	// ErrTransient reports a transient send failure; retryable.
	ErrTransient = errors.New("network: transient send failure")
	// ErrShipTimeout reports that one send attempt exceeded the edge's
	// simulated time budget; retryable.
	ErrShipTimeout = errors.New("network: send attempt timed out")
)

// ShipError is the typed terminal error of a failed shipment: the edge,
// how many attempts were made, and the last underlying cause. It is
// what executors return when retries are exhausted, so callers can
// distinguish a network failure from a query-evaluation error.
type ShipError struct {
	From, To string
	Attempts int
	Err      error
}

func (e *ShipError) Error() string {
	return fmt.Sprintf("network: shipment %s -> %s failed after %d attempt(s): %v",
		e.From, e.To, e.Attempts, e.Err)
}

func (e *ShipError) Unwrap() error { return e.Err }

// EdgeFaults configures how one directed edge misbehaves. Probabilities
// are in [0,1] and evaluated independently per send attempt.
type EdgeFaults struct {
	// DropProb is the probability a batch is lost in flight: the wire
	// time is spent but the batch never arrives and must be resent.
	DropProb float64
	// TransientProb is the probability the send fails immediately with
	// a transient error (connection reset before any bytes move).
	TransientProb float64
	// DelayProb is the probability the send is slowed by DelayMS of
	// extra simulated latency (congestion); the batch still arrives
	// unless the delay pushes the attempt over the retry timeout.
	DelayProb float64
	// DelayMS is the extra simulated latency of a delayed send.
	DelayMS float64
	// Partitioned marks the edge down: every attempt fails with
	// ErrPartitioned.
	Partitioned bool
}

// Zero reports whether the configuration injects no faults at all.
func (f EdgeFaults) Zero() bool {
	return f.DropProb == 0 && f.TransientProb == 0 && f.DelayProb == 0 && !f.Partitioned
}

// Verdict is the fault outcome of one send attempt.
type Verdict struct {
	Drop        bool
	Transient   bool
	Partitioned bool
	// ExtraDelayMS is additional simulated latency for this attempt.
	ExtraDelayMS float64
}

// Err maps the verdict to its sentinel error (nil when the attempt is
// allowed through).
func (v Verdict) Err() error {
	switch {
	case v.Partitioned:
		return ErrPartitioned
	case v.Transient:
		return ErrTransient
	case v.Drop:
		return ErrBatchDropped
	}
	return nil
}

// FaultPlan maps directed edges to fault configurations and derives
// deterministic per-attempt decisions from a seed. The zero-probability
// plan behaves like no plan at all. Configure it fully before execution
// starts; Decide is safe for concurrent use with itself (configuration
// methods take the write lock, so late re-configuration is race-free
// but not replayable).
type FaultPlan struct {
	mu    sync.RWMutex
	seed  uint64
	edges map[string]EdgeFaults
	def   EdgeFaults
	// count tallies injected faults, for reports and tests.
	count struct {
		drops, transients, delays, partitions int64
	}
}

// NewFaultPlan returns an empty plan (no faults) with the given seed.
func NewFaultPlan(seed int64) *FaultPlan {
	return &FaultPlan{seed: uint64(seed), edges: map[string]EdgeFaults{}}
}

// SetEdge configures faults for one directed edge.
func (p *FaultPlan) SetEdge(from, to string, f EdgeFaults) *FaultPlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.edges[edgeKey(from, to)] = f
	return p
}

// SetDefault configures the faults applied to every edge that has no
// explicit SetEdge entry.
func (p *FaultPlan) SetDefault(f EdgeFaults) *FaultPlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.def = f
	return p
}

// Edge returns the fault configuration in effect for an edge.
func (p *FaultPlan) Edge(from, to string) EdgeFaults {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if f, ok := p.edges[edgeKey(from, to)]; ok {
		return f
	}
	return p.def
}

// Counts returns how many faults of each kind the plan has injected.
func (p *FaultPlan) Counts() (drops, transients, delays, partitions int64) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	c := p.count
	return c.drops, c.transients, c.delays, c.partitions
}

// Decide returns the fault outcome for one send attempt. batch is the
// batch's ordinal within its shipment and attempt the 1-based retry
// ordinal; together with the edge they fully determine the outcome, so
// replays under the same seed fail identically. Intra-site moves
// (from == to) never fault.
func (p *FaultPlan) Decide(from, to string, batch, attempt int) Verdict {
	if p == nil || from == to {
		return Verdict{}
	}
	f := p.Edge(from, to)
	if f.Zero() {
		return Verdict{}
	}
	var v Verdict
	if f.Partitioned {
		v.Partitioned = true
		p.bump(&p.count.partitions)
		return v
	}
	h := newFaultRNG(p.seed, edgeKey(from, to), batch, attempt)
	if h.uniform() < f.TransientProb {
		v.Transient = true
		p.bump(&p.count.transients)
		return v
	}
	if h.uniform() < f.DropProb {
		v.Drop = true
		p.bump(&p.count.drops)
		return v
	}
	if h.uniform() < f.DelayProb {
		v.ExtraDelayMS = f.DelayMS
		p.bump(&p.count.delays)
	}
	return v
}

// Jitter returns a deterministic uniform in [0,1) for backoff jitter,
// keyed like Decide so backoff schedules replay too.
func (p *FaultPlan) Jitter(from, to string, batch, attempt int) float64 {
	if p == nil {
		return 0
	}
	h := newFaultRNG(p.seed^0x9e3779b97f4a7c15, edgeKey(from, to), batch, attempt)
	return h.uniform()
}

func (p *FaultPlan) bump(c *int64) {
	p.mu.Lock()
	*c++
	p.mu.Unlock()
}

// faultRNG is a counter-based splitmix64 generator: seeded from the
// (seed, edge, batch, attempt) coordinates, it yields an independent
// uniform stream per send attempt with no shared state, which is what
// makes concurrent chaos runs replay exactly.
type faultRNG struct{ state uint64 }

func newFaultRNG(seed uint64, edge string, batch, attempt int) *faultRNG {
	// FNV-1a over the edge name, mixed with the coordinates.
	h := uint64(14695981039346656037)
	for i := 0; i < len(edge); i++ {
		h = (h ^ uint64(edge[i])) * 1099511628211
	}
	h ^= seed
	h = splitmix64(h + uint64(batch)*0x9e3779b97f4a7c15)
	h = splitmix64(h + uint64(attempt)*0xbf58476d1ce4e5b9)
	return &faultRNG{state: h}
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (r *faultRNG) next() uint64 {
	r.state = splitmix64(r.state)
	return r.state
}

// uniform returns the next value in [0,1).
func (r *faultRNG) uniform() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// RetryPolicy governs how executors retry failed send attempts: capped
// exponential backoff with deterministic jitter, and a per-attempt
// simulated time budget.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per batch (first send
	// included). Values < 1 mean 1: no retries.
	MaxAttempts int
	// BaseBackoff is the wall-clock wait before the second attempt;
	// each further attempt multiplies it by Multiplier, capped at
	// MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	Multiplier  float64
	// JitterFrac widens each backoff by up to ±JitterFrac of itself
	// (deterministically, via FaultPlan.Jitter).
	JitterFrac float64
	// TimeoutMS bounds one attempt's simulated wire time (the modeled
	// cost in ms plus any injected delay); an attempt over budget fails
	// with ErrShipTimeout and is retried. 0 disables the check.
	TimeoutMS float64
}

// DefaultRetryPolicy returns the retry configuration used when a fault
// plan is installed without an explicit policy: 4 attempts, 1ms..16ms
// exponential backoff with 20% jitter, no per-attempt timeout.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  16 * time.Millisecond,
		Multiplier:  2,
		JitterFrac:  0.2,
	}
}

// Attempts returns the effective attempt budget (always ≥ 1).
func (r RetryPolicy) Attempts() int {
	if r.MaxAttempts < 1 {
		return 1
	}
	return r.MaxAttempts
}

// Backoff computes the wall-clock wait after the given failed attempt
// (1-based), applying the exponential schedule, the cap, and jitter
// (a uniform in [0,1), e.g. from FaultPlan.Jitter).
func (r RetryPolicy) Backoff(attempt int, jitter float64) time.Duration {
	if r.BaseBackoff <= 0 {
		return 0
	}
	mult := r.Multiplier
	if mult < 1 {
		mult = 2
	}
	d := float64(r.BaseBackoff)
	for i := 1; i < attempt; i++ {
		d *= mult
		if r.MaxBackoff > 0 && d >= float64(r.MaxBackoff) {
			d = float64(r.MaxBackoff)
			break
		}
	}
	if r.MaxBackoff > 0 && d > float64(r.MaxBackoff) {
		d = float64(r.MaxBackoff)
	}
	if r.JitterFrac > 0 {
		// Spread over [1-J, 1+J) so retries desynchronize.
		d *= 1 - r.JitterFrac + 2*r.JitterFrac*jitter
	}
	return time.Duration(d)
}
