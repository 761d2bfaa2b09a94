package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Attr is one span annotation.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanRec is one finished span: a named phase of the query lifecycle
// with its offset from the tracer's epoch, duration, and annotations.
type SpanRec struct {
	Name string `json:"name"`
	// StartUS/DurUS are microseconds since the tracer epoch / of the
	// span, respectively (JSON-friendly; see Start/Dur for durations).
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// Attr returns the value of the named annotation ("" when absent).
func (r SpanRec) Attr(key string) string {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Tracer records query-lifecycle spans. It is safe for concurrent use:
// spans are built privately by the goroutine that started them and
// appended under a mutex at End. A nil *Tracer is a valid disabled
// tracer: Start returns an inert Span and the whole path allocates
// nothing, which is what keeps tracing free when off.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []SpanRec
}

// NewTracer returns an empty tracer; span offsets are relative to now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Span is an in-progress span handle. The zero value (from a disabled
// tracer) is inert: Tag and End are no-ops.
type Span struct {
	t     *Tracer
	rec   *SpanRec
	start time.Time
}

// Start opens a span. On a nil tracer it returns an inert handle
// without allocating.
func (t *Tracer) Start(name string) Span {
	if t == nil {
		return Span{}
	}
	now := time.Now()
	return Span{
		t:     t,
		rec:   &SpanRec{Name: name, StartUS: now.Sub(t.epoch).Microseconds()},
		start: now,
	}
}

// Enabled reports whether the span records anything; hooks use it to
// skip building tag values the inert span would discard.
func (s Span) Enabled() bool { return s.rec != nil }

// Tag annotates the span. The span record is owned by the starting
// goroutine until End, so no locking is needed.
func (s Span) Tag(key, value string) Span {
	if s.rec != nil {
		s.rec.Attrs = append(s.rec.Attrs, Attr{Key: key, Value: value})
	}
	return s
}

// TagInt annotates the span with an integer value. The formatting is
// deferred behind the enabled check so disabled call sites pay nothing.
func (s Span) TagInt(key string, v int64) Span {
	if s.rec != nil {
		s.rec.Attrs = append(s.rec.Attrs, Attr{Key: key, Value: strconv.FormatInt(v, 10)})
	}
	return s
}

// End finishes the span and publishes it to the tracer.
func (s Span) End() {
	if s.rec == nil {
		return
	}
	s.rec.DurUS = time.Since(s.start).Microseconds()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, *s.rec)
	s.t.mu.Unlock()
}

// Spans returns a copy of the recorded spans ordered by start offset
// (ties by name) so concurrent recordings render stably.
func (t *Tracer) Spans() []SpanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]SpanRec(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].StartUS != out[j].StartUS {
			return out[i].StartUS < out[j].StartUS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Len returns how many spans have been recorded.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Reset drops all recorded spans and re-bases the epoch.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.epoch = time.Now()
	t.mu.Unlock()
}

// WriteJSON renders the spans as an indented JSON array.
func (t *Tracer) WriteJSON(w io.Writer) error {
	spans := t.Spans()
	if spans == nil {
		spans = []SpanRec{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spans)
}
