package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"cgdqp/internal/plan"
	"cgdqp/internal/schema"
)

// --- disabled path: nil receivers are inert and free ---------------------

func TestDisabledObserverIsInert(t *testing.T) {
	var o *Observer
	if o.Reg() != nil || o.AuditSink() != nil || o.Prof() != nil {
		t.Fatal("nil observer must expose nil sinks")
	}
	var c *Counter
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter should read 0")
	}
	var g *Gauge
	g.Set(1.5)
	if g.Value() != 0 {
		t.Fatal("nil gauge should read 0")
	}
	var h *Histogram
	h.Observe(0.2)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram should read 0")
	}
	var a *AuditLog
	a.Record(AuditRecord{From: "A", To: "B"})
	if a.Len() != 0 || a.Records() != nil {
		t.Fatal("nil audit log should stay empty")
	}
	var p *PlanProfile
	if p.Stats(&plan.Node{}) != nil {
		t.Fatal("nil profile should hand out nil stats")
	}
	var s *OpStats
	s.AddTime(time.Millisecond)
	if s.Time() != 0 {
		t.Fatal("nil op stats should read 0")
	}
}

func TestDisabledHooksAllocateNothing(t *testing.T) {
	var o *Observer
	var slow *SlowQueryLog
	allocs := testing.AllocsPerRun(200, func() {
		if m := o.Reg(); m != nil {
			m.Counter("cgdqp_ship_rows_total", "from", "EU", "to", "NA").Add(128)
		}
		o.AuditSink().Record(AuditRecord{})
		o.Prof().Stats(nil).AddTime(time.Microsecond)
		slow.Maybe(time.Second, QueryRecord{})
	})
	if allocs != 0 {
		t.Fatalf("disabled observability allocated %.1f per op, want 0", allocs)
	}
}

// WithProfile on a nil observer must still produce a working profile
// without enabling any other sink (the EXPLAIN ANALYZE path on a system
// with observability off).
func TestWithProfileOnNilObserver(t *testing.T) {
	var o *Observer
	p := NewPlanProfile()
	o2 := o.WithProfile(p)
	if o2.Prof() != p {
		t.Fatal("WithProfile should carry the profile")
	}
	if o2.Reg() != nil || o2.AuditSink() != nil {
		t.Fatal("WithProfile on nil observer must not enable other sinks")
	}
}

// --- metrics -------------------------------------------------------------

func TestRegistryGetOrCreate(t *testing.T) {
	m := NewRegistry()
	c1 := m.Counter("x_total", "edge", "EU->NA")
	c2 := m.Counter("x_total", "edge", "EU->NA")
	if c1 != c2 {
		t.Fatal("same name+labels must return the same counter")
	}
	c1.Add(2)
	c1.Inc()
	if got := m.CounterValue("x_total", "edge", "EU->NA"); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if got := m.CounterValue("x_total", "edge", "NA->EU"); got != 0 {
		t.Fatalf("unseen labels should read 0, got %d", got)
	}
	g := m.Gauge("queue_len")
	g.Set(4.5)
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", g.Value())
	}
	h := m.Histogram("lat_seconds")
	h.Observe(0.0003)
	h.Observe(2.0)
	if h.Count() != 2 || h.Sum() != 2.0003 {
		t.Fatalf("histogram count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestRegistryPrometheusFormat(t *testing.T) {
	m := NewRegistry()
	m.Counter("cgdqp_ship_rows_total", "from", "EU", "to", "NA").Add(150)
	m.Counter("cgdqp_ship_rows_total", "from", "AS", "to", "EU").Add(7)
	m.Gauge("cgdqp_plan_cache_len").Set(3)
	m.Histogram("cgdqp_optimize_seconds").Observe(0.004)
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE cgdqp_ship_rows_total counter",
		`cgdqp_ship_rows_total{from="AS",to="EU"} 7`,
		`cgdqp_ship_rows_total{from="EU",to="NA"} 150`,
		"# TYPE cgdqp_plan_cache_len gauge",
		"cgdqp_plan_cache_len 3",
		"# TYPE cgdqp_optimize_seconds histogram",
		`cgdqp_optimize_seconds_bucket{le="0.005"} 1`,
		`cgdqp_optimize_seconds_bucket{le="+Inf"} 1`,
		"cgdqp_optimize_seconds_sum 0.004",
		"cgdqp_optimize_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus text missing %q:\n%s", want, text)
		}
	}
	// Series within a family must be sorted (AS before EU).
	if strings.Index(text, `from="AS"`) > strings.Index(text, `from="EU"`) {
		t.Fatalf("series not sorted:\n%s", text)
	}
	// Rendering is deterministic.
	var buf2 bytes.Buffer
	_ = m.WritePrometheus(&buf2)
	if buf.String() != buf2.String() {
		t.Fatal("two renders of the same registry differ")
	}
}

func TestRegistryJSON(t *testing.T) {
	m := NewRegistry()
	m.Counter("a_total").Add(5)
	m.Gauge("g").Set(1.25)
	m.Histogram("h").Observe(0.05)
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters   map[string]int64   `json:"counters"`
		Gauges     map[string]float64 `json:"gauges"`
		Histograms map[string]struct {
			Count int64   `json:"count"`
			Sum   float64 `json:"sum"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	if doc.Counters["a_total"] != 5 || doc.Gauges["g"] != 1.25 {
		t.Fatalf("JSON values wrong: %+v", doc)
	}
	if h := doc.Histograms["h"]; h.Count != 1 || h.Sum != 0.05 {
		t.Fatalf("JSON histogram wrong: %+v", doc.Histograms)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	m := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.Counter("c_total", "g", string(rune('a'+g%4))).Inc()
				m.Gauge("g").Set(float64(i))
				m.Histogram("h").Observe(float64(i) / 1000)
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, l := range []string{"a", "b", "c", "d"} {
		total += m.CounterValue("c_total", "g", l)
	}
	if total != 8*500 {
		t.Fatalf("lost counter increments: %d", total)
	}
	if m.Histogram("h").Count() != 8*500 {
		t.Fatalf("lost observations: %d", m.Histogram("h").Count())
	}
}

// TestRegistrySnapshot: a disabled (nil) registry — what
// System.Metrics() returns without Options.Metrics — exports an empty
// document in both formats.
func TestRegistrySnapshot(t *testing.T) {
	var nilReg *Registry
	var buf bytes.Buffer
	if err := nilReg.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry Prometheus export: %q, %v", buf.String(), err)
	}
	if err := nilReg.WriteJSON(&buf); err != nil || buf.String() != "{}\n" {
		t.Fatalf("nil registry JSON export: %q, %v", buf.String(), err)
	}
}

// TestConcurrentSnapshotAndRecord renders both exports against live
// recording under the race detector, as a /metrics scrape during
// queries does: every series type is being created and written while
// the snapshot is taken.
func TestConcurrentSnapshotAndRecord(t *testing.T) {
	m := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m.Counter("c_total", "g", string(rune('a'+g)), "i", string(rune('a'+i%8))).Inc()
				m.Gauge("g").Set(float64(i))
				m.Histogram("h_seconds").Observe(float64(i%10) / 1000)
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		if err := m.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteJSON(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// --- audit log -----------------------------------------------------------

func TestAuditLogDeterministicOrder(t *testing.T) {
	recs := []AuditRecord{
		{From: "L3", To: "L1", Relations: []string{"orders"}, Columns: []string{"o.custkey"}, Rows: 10, Bytes: 80, Batches: 1, Justification: `ship-trait {L1, L3} permits L1`},
		{From: "L1", To: "L3", Relations: []string{"customer"}, Columns: []string{"c.name"}, Rows: 5, Bytes: 40, Batches: 1, Justification: `ship-trait {L1, L3} permits L3`},
		{From: "L3", To: "L1", Relations: []string{"lineitem"}, Columns: []string{"l.qty"}, Rows: 2, Bytes: 16, Batches: 2, Justification: "unchecked"},
	}
	render := func(order []int) string {
		a := NewAuditLog()
		var wg sync.WaitGroup
		for _, i := range order {
			wg.Add(1)
			go func(r AuditRecord) {
				defer wg.Done()
				a.Record(r)
			}(recs[i])
		}
		wg.Wait()
		return a.String()
	}
	r := rand.New(rand.NewSource(1))
	first := render([]int{0, 1, 2})
	for trial := 0; trial < 20; trial++ {
		order := r.Perm(len(recs))
		if got := render(order); got != first {
			t.Fatalf("insertion order %v changed rendering:\n%s\nvs\n%s", order, got, first)
		}
	}
	if !strings.Contains(first, `SHIP L1 -> L3 relations=customer columns=c.name rows=5 bytes=40 batches=1 justification="ship-trait {L1, L3} permits L3"`) {
		t.Fatalf("unexpected audit line format:\n%s", first)
	}
	// Canonical order: L1->L3 line precedes the L3->L1 lines.
	if strings.Index(first, "SHIP L1 ->") > strings.Index(first, "SHIP L3 ->") {
		t.Fatalf("records not canonically sorted:\n%s", first)
	}
}

// --- profile -------------------------------------------------------------

func TestPlanProfileFormat(t *testing.T) {
	scan := &plan.Node{Kind: plan.TableScan, Table: &schema.Table{Name: "customer"}, Alias: "c", FragIdx: -1, Loc: "L1"}
	root := &plan.Node{Kind: plan.Limit, LimitN: 5, Children: []*plan.Node{scan}, Loc: "L1"}
	p := NewPlanProfile()
	st := p.Stats(root)
	st.Rows.Add(5)
	st.Opens.Add(1)
	st.AddTime(3 * time.Millisecond)
	out := p.Format(root)
	if !strings.Contains(out, "(actual rows=5 batches=0 time=3.00ms)") {
		t.Fatalf("root annotation missing:\n%s", out)
	}
	if !strings.Contains(out, "(never executed)") {
		t.Fatalf("unopened child should say never executed:\n%s", out)
	}
	if p.Stats(root) != st {
		t.Fatal("Stats must be stable per node")
	}
}

// --- benchmarks ----------------------------------------------------------

// BenchmarkObsDisabledHooks measures the cost execution pays per Ship
// hook when observability is off — the zero-cost-when-disabled claim.
func BenchmarkObsDisabledHooks(b *testing.B) {
	var o *Observer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if m := o.Reg(); m != nil {
			m.Counter("cgdqp_ship_rows_total", "from", "EU", "to", "NA").Add(1)
		}
		o.AuditSink().Record(AuditRecord{})
	}
}
