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

// QueryRecord is one completed query as the slow-query log sees it.
type QueryRecord struct {
	TS         string     `json:"ts,omitempty"` // RFC3339Nano wall time
	SQLDigest  string     `json:"sql_digest"`
	PlanDigest string     `json:"plan_digest"`
	LatencyMS  float64    `json:"latency_ms"`
	RowsOut    int64      `json:"rows_out"`
	ShipBytes  int64      `json:"ship_bytes"`
	ShipCostMS float64    `json:"ship_cost_ms"`
	Retries    int64      `json:"retries"`
	Cache      string     `json:"cache"` // hit | miss | off
	Coalesced  bool       `json:"coalesced,omitempty"`
	QErrors    []OpQError `json:"qerrors,omitempty"`
}

// Cache dispositions for QueryRecord.Cache.
const (
	CacheHit  = "hit"
	CacheMiss = "miss"
	CacheOff  = "off"
)

// SlowQueryLog emits one JSON line per query whose end-to-end latency
// meets a threshold. A threshold of 0 logs every query. Safe for
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
	rec.LatencyMS = float64(lat.Nanoseconds()) / 1e6
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
	// has already succeeded, so there is no one to report it to.
	_, _ = l.w.Write(append(line, '\n'))
}
