package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// AuditRecord is one successful cross-site shipment: what relation data
// moved, along which edge, how much of it, and why it was legal. Records
// deliberately carry no wall-clock fields so that replays of the same
// deterministic run render byte-identical logs.
type AuditRecord struct {
	// From/To are the source and destination sites of the shipment.
	From, To string
	// Relations are the base tables whose data the shipped stream
	// derives from (sorted).
	Relations []string
	// Columns are the shipped output columns (qualified keys, sorted).
	Columns []string
	// Rows/Bytes/Batches are the delivered volume; Batches counts wire
	// frames of up to 1024 rows.
	Rows, Bytes, Batches int64
	// Justification states why the shipment was compliant: the shipping
	// trait the optimizer proved for the stream, or "unchecked" when the
	// plan was built without compliance annotation.
	Justification string
}

// key is the canonical sort key of the record: every field except the
// volumes participates so equal-shaped shipments order by volume last.
func (r AuditRecord) key() string {
	return fmt.Sprintf("%s\x00%s\x00%s\x00%s\x00%s\x00%020d\x00%020d",
		r.From, r.To, strings.Join(r.Relations, ","), strings.Join(r.Columns, ","),
		r.Justification, r.Rows, r.Bytes)
}

// String renders the record as one audit line.
func (r AuditRecord) String() string {
	cols := strings.Join(r.Columns, ",")
	if cols == "" {
		cols = "-"
	}
	rels := strings.Join(r.Relations, ",")
	if rels == "" {
		rels = "-"
	}
	return fmt.Sprintf("SHIP %s -> %s relations=%s columns=%s rows=%d bytes=%d batches=%d justification=%q",
		r.From, r.To, rels, cols, r.Rows, r.Bytes, r.Batches, r.Justification)
}

// AuditLog is the append-only compliance record of cross-site
// shipments. It is safe for concurrent appends; rendering sorts records
// canonically so parallel executions of the same run produce the same
// text regardless of goroutine interleaving.
type AuditLog struct {
	mu   sync.Mutex
	recs []AuditRecord
}

// NewAuditLog returns an empty audit log.
func NewAuditLog() *AuditLog { return &AuditLog{} }

// Record appends one shipment record; nil-safe no-op when disabled.
func (a *AuditLog) Record(r AuditRecord) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.recs = append(a.recs, r)
	a.mu.Unlock()
}

// Len returns the number of recorded shipments.
func (a *AuditLog) Len() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.recs)
}

// Reset drops all records.
func (a *AuditLog) Reset() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.recs = nil
	a.mu.Unlock()
}

// Records returns a canonically sorted copy of the log.
func (a *AuditLog) Records() []AuditRecord {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	out := append([]AuditRecord(nil), a.recs...)
	a.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].key() < out[j].key() })
	return out
}

// WriteText renders the log, one line per shipment, in canonical order.
// The rendering is deterministic: same shipments in, same bytes out.
func (a *AuditLog) WriteText(w io.Writer) error {
	for _, r := range a.Records() {
		if _, err := fmt.Fprintln(w, r.String()); err != nil {
			return err
		}
	}
	return nil
}

// String renders the log via WriteText.
func (a *AuditLog) String() string {
	var b strings.Builder
	_ = a.WriteText(&b)
	return b.String()
}
