package feedback

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

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
