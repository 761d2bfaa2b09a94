package obs

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync"
	"time"

	"cgdqp/internal/plan"
)

// maxReportedOps bounds the per-query q-error list in a slow-query
// record (worst offenders first).
const maxReportedOps = 8

// OpQError is one operator's estimate-vs-actual outcome, as reported in
// the slow-query log.
type OpQError struct {
	Op     string  `json:"op"`
	Digest string  `json:"digest"` // short hash of the executed subtree's digest
	Est    float64 `json:"est"`
	Actual float64 `json:"actual"`
	QError float64 `json:"qerror"`
}

// QErrors walks an executed located plan with this profile and returns
// the worst per-operator q-errors, at most maxReportedOps, worst first.
// Rules that keep the actuals trustworthy:
//
//   - Ship and Project nodes pass their input's rows through and are not
//     reported.
//   - Subtrees under a Limit are skipped: early termination truncates
//     their actuals below the true cardinality.
//   - Re-opened operators (NL-join inner sides) accumulate rows across
//     opens, so the actual is normalized per open.
//   - An operator that never opened is not reported.
func (p *PlanProfile) QErrors(root *plan.Node) []OpQError {
	if p == nil || root == nil {
		return nil
	}
	type reported struct {
		n *plan.Node
		OpQError
	}
	var ops []reported
	var walk func(n *plan.Node, underLimit bool)
	walk = func(n *plan.Node, underLimit bool) {
		below := underLimit || n.Kind == plan.Limit || n.Kind == plan.LimitExec
		for _, c := range n.Children {
			walk(c, below)
		}
		switch n.Kind {
		case plan.Ship, plan.Project, plan.ProjectExec:
			return
		}
		st := p.lookup(n)
		if underLimit || st == nil || st.Opens.Load() == 0 {
			return
		}
		actual := float64(st.Rows.Load()) / float64(st.Opens.Load())
		ops = append(ops, reported{n, OpQError{Op: n.Kind.String(), Est: n.Card, Actual: actual, QError: qError(n.Card, actual)}})
	}
	walk(root, false)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].QError > ops[j].QError })
	if len(ops) > maxReportedOps {
		ops = ops[:maxReportedOps]
	}
	out := make([]OpQError, len(ops))
	for i, op := range ops {
		out[i] = op.OpQError
		out[i].Digest = ShortDigest(op.n.Digest())
	}
	return out
}

// qError is the symmetric cardinality error max(est/act, act/est), the
// standard misestimation measure; inputs are floored at 1 row so empty
// results do not blow up the ratio.
func qError(est, actual float64) float64 {
	est, actual = max(est, 1), max(actual, 1)
	return max(est/actual, actual/est)
}

// ShortDigest compresses a string — a statement's text, or a
// (potentially long) plan digest — into a fixed-width stable hash for
// log lines.
func ShortDigest(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// QueryRecord is a query's account, as the slow-query log writes it:
// what the query was, how it ended, what each cache did, where its time
// went and what it shipped. A failed or refused query has one too.
type QueryRecord struct {
	TS         string  `json:"ts,omitempty"` // RFC3339Nano wall time
	SQLDigest  string  `json:"sql_digest"`
	PlanDigest string  `json:"plan_digest"` // of the query's plan; "" without one
	LatencyMS  float64 `json:"latency_ms"`
	RowsOut    int64   `json:"rows_out"`
	ShipBytes  int64   `json:"ship_bytes"`
	ShipCostMS float64 `json:"ship_cost_ms"`
	Retries    int64   `json:"retries"`
	// Cache is the result cache's disposition: hit, miss, or off when
	// the query did not consult it.
	Cache string `json:"cache"`
	// Coalesced marks an optimization shared with an identical
	// in-flight one.
	Coalesced bool `json:"coalesced,omitempty"`
	// Outcome is how the query ended (see the Outcome constants); Error
	// says why one that failed did.
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
	// PlanCache is the plan cache's disposition (hit, miss or off), and
	// ExploreReused marks a miss that reused a cached exploration.
	PlanCache     string `json:"plan_cache"`
	ExploreReused bool   `json:"explore_reused,omitempty"`
	// PolicyVersion is the policy-catalog version the plan was made
	// under.
	PolicyVersion uint64 `json:"policy_version"`
	// EvalCalls, EvalHits and Eta are the policy evaluator's calls,
	// cache hits and policy expressions considered (η); Truncated marks
	// a search the memo budget cut short. On a plan-cache hit they
	// describe the optimization that filled the entry.
	EvalCalls int64      `json:"eval_calls"`
	EvalHits  int64      `json:"eval_hits"`
	Eta       int64      `json:"eta"`
	Truncated bool       `json:"truncated,omitempty"`
	Phases    Phases     `json:"phases"`
	QErrors   []OpQError `json:"qerrors,omitempty"`
}

// Phases are a query's stage times in milliseconds. A stage the query
// skipped reads 0: a plan-cache hit skips parse through site
// selection, a result served without executing skips execute.
type Phases struct {
	ParseMS      float64 `json:"parse_ms"`
	NormalizeMS  float64 `json:"normalize_ms"`
	ExploreMS    float64 `json:"explore_ms"`
	ImplementMS  float64 `json:"implement_ms"`
	SiteSelectMS float64 `json:"site_select_ms"`
	ExecuteMS    float64 `json:"execute_ms"`
	// QueueWaitMS is a served query's wait for a worker.
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`
}

// Cache dispositions for QueryRecord.Cache and PlanCache.
const (
	CacheHit  = "hit"
	CacheMiss = "miss"
	CacheOff  = "off"
)

// Outcomes for QueryRecord.Outcome. A query answered without executing
// is a cache_hit (from the result cache) or exec_coalesced (by an
// identical in-flight execution); refused means no compliant plan.
const (
	OutcomeOK            = "ok"
	OutcomeCacheHit      = "cache_hit"
	OutcomeExecCoalesced = "exec_coalesced"
	OutcomeRefused       = "refused"
	OutcomeError         = "error"
	OutcomeCancelled     = "cancelled"
)

// Millis converts a duration to the milliseconds a record carries.
func Millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// SlowQueryLog emits one JSON line — the query's account — per query
// whose end-to-end latency meets a threshold. A threshold of 0 logs every query. Safe for
// concurrent use; a nil log ignores everything.
type SlowQueryLog struct {
	mu        sync.Mutex
	w         io.Writer
	threshold time.Duration
	// now is swappable for deterministic tests; nil stamps wall time.
	now func() time.Time
}

// NewSlowQueryLog returns a log writing JSON lines to w for queries at
// or above threshold.
func NewSlowQueryLog(w io.Writer, threshold time.Duration) *SlowQueryLog {
	return &SlowQueryLog{w: w, threshold: threshold, now: time.Now}
}

// Maybe emits rec when the query's latency meets the threshold. The
// record's TS and LatencyMS are filled from lat.
func (l *SlowQueryLog) Maybe(lat time.Duration, rec QueryRecord) {
	if l == nil || lat < l.threshold {
		return
	}
	rec.LatencyMS = Millis(lat)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.now != nil {
		rec.TS = l.now().UTC().Format(time.RFC3339Nano)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	// A failed write loses one diagnostic line; the query it describes
	// has already ended, so there is no one to report it to.
	_, _ = l.w.Write(append(line, '\n'))
}
