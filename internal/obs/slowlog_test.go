package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"cgdqp/internal/expr"
	"cgdqp/internal/plan"
	"cgdqp/internal/schema"
)

func estScan(name string, est float64) *plan.Node {
	t := schema.NewTable(name, "db-1", "L1", int64(est),
		schema.Column{Name: "k", Type: expr.TInt})
	n := plan.NewScan(t, "", -1)
	n.Kind = plan.TableScan
	n.Card = est
	return n
}

func mark(prof *PlanProfile, n *plan.Node, rows, opens int64) {
	st := prof.Stats(n)
	st.Rows.Store(rows)
	st.Opens.Store(opens)
}

func TestQError(t *testing.T) {
	cases := []struct {
		est, act, want float64
	}{
		{100, 100, 1},
		{10, 100, 10},
		{100, 10, 10},
		{0, 0, 1},   // floored at 1 row each
		{0, 50, 50}, // empty estimate does not divide by zero
		{50, 0, 50}, // empty actual likewise
		{0.5, 2, 2}, // sub-row estimates floor to 1
	}
	for _, c := range cases {
		if got := qError(c.est, c.act); got != c.want {
			t.Errorf("qError(%v, %v) = %v, want %v", c.est, c.act, got, c.want)
		}
	}
}

func TestQErrorsReportExecutedSubtree(t *testing.T) {
	scan := estScan("t", 100)
	prof := NewPlanProfile()
	mark(prof, scan, 5000, 1)

	qerrs := prof.QErrors(scan)
	if len(qerrs) != 1 {
		t.Fatalf("qerrs = %d, want 1", len(qerrs))
	}
	want := OpQError{Op: "TableScan", Digest: ShortDigest(scan.Digest()), Est: 100, Actual: 5000, QError: 50}
	if qerrs[0] != want {
		t.Fatalf("qerror record: %+v, want %+v", qerrs[0], want)
	}
}

func TestQErrorsShipTransparent(t *testing.T) {
	scan := estScan("t", 10)
	ship := plan.NewShip(scan, "L1", "L2")
	prof := NewPlanProfile()
	mark(prof, scan, 800, 1)
	mark(prof, ship, 800, 1)

	// Only the scan is reported; the Ship passes its rows through.
	if qerrs := prof.QErrors(ship); len(qerrs) != 1 || qerrs[0].Op != "TableScan" || qerrs[0].Actual != 800 {
		t.Fatalf("qerrs = %+v, want one TableScan entry", qerrs)
	}
}

func TestQErrorsSkipsUnderLimit(t *testing.T) {
	scan := estScan("t", 10)
	limit := &plan.Node{Kind: plan.LimitExec, Children: []*plan.Node{scan},
		Cols: scan.Cols, LimitN: 5}
	limit.Card = 5
	prof := NewPlanProfile()
	// Early termination: the scan produced only 5 of its true rows.
	mark(prof, scan, 5, 1)
	mark(prof, limit, 5, 1)

	// The limit node itself is reported; the truncated scan is not.
	if qerrs := prof.QErrors(limit); len(qerrs) != 1 || qerrs[0].Op != "LimitExec" {
		t.Fatalf("qerrs = %+v, want one LimitExec entry", qerrs)
	}
}

func TestQErrorsNormalizesReopens(t *testing.T) {
	scan := estScan("t", 10)
	prof := NewPlanProfile()
	// NL inner side: opened 4 times, 100 rows per open accumulated.
	mark(prof, scan, 400, 4)

	if qerrs := prof.QErrors(scan); len(qerrs) != 1 || qerrs[0].Actual != 100 {
		t.Fatalf("per-open actual: %+v, want 100", qerrs)
	}
}

func TestQErrorsNeverExecutedAndNil(t *testing.T) {
	scan := estScan("t", 10)
	prof := NewPlanProfile() // no stats: operator never opened
	if qerrs := prof.QErrors(scan); len(qerrs) != 0 {
		t.Fatalf("never-executed operator reported: %+v", qerrs)
	}
	var none *PlanProfile
	if none.QErrors(scan) != nil {
		t.Fatal("nil profile not ignored")
	}
	if prof.QErrors(nil) != nil {
		t.Fatal("nil plan not ignored")
	}
}

// TestQErrorsWorstFirstCapped: a ten-input union reports its eight worst
// operators, worst first.
func TestQErrorsWorstFirstCapped(t *testing.T) {
	prof := NewPlanProfile()
	var kids []*plan.Node
	for i := 0; i < 10; i++ {
		s := estScan("t", 10)
		mark(prof, s, int64(10*(i%5+1)), 1) // q-errors 1..5, twice
		kids = append(kids, s)
	}
	qerrs := prof.QErrors(plan.NewUnion(kids...))
	want := []float64{5, 5, 4, 4, 3, 3, 2, 2}
	if len(qerrs) != len(want) {
		t.Fatalf("reported %d operators, want %d", len(qerrs), len(want))
	}
	for i, q := range qerrs {
		if q.QError != want[i] {
			t.Fatalf("entry %d q-error %v, want %v (%+v)", i, q.QError, want[i], qerrs)
		}
	}
}

func TestSlowQueryLogThreshold(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowQueryLog(&buf, 100*time.Millisecond)
	l.now = func() time.Time { return time.Date(2021, 6, 20, 12, 0, 0, 0, time.UTC) }

	l.Maybe(50*time.Millisecond, QueryRecord{SQLDigest: "fast"})
	if buf.Len() != 0 {
		t.Fatal("fast query logged below threshold")
	}

	l.Maybe(150*time.Millisecond, QueryRecord{
		SQLDigest:  "slow",
		PlanDigest: "plan",
		RowsOut:    7,
		ShipBytes:  1234,
		Retries:    2,
		Cache:      CacheMiss,
		QErrors: []OpQError{
			{Op: "HashJoin", Digest: "abc", Est: 10, Actual: 1000, QError: 100},
		},
	})
	line := buf.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("want exactly one newline-terminated line, got %q", line)
	}
	var rec QueryRecord
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("line is not valid JSON: %v", err)
	}
	if rec.SQLDigest != "slow" || rec.PlanDigest != "plan" || rec.RowsOut != 7 ||
		rec.ShipBytes != 1234 || rec.Retries != 2 || rec.Cache != CacheMiss {
		t.Fatalf("round-tripped record mismatch: %+v", rec)
	}
	if rec.LatencyMS != 150 {
		t.Fatalf("latency_ms = %v, want 150", rec.LatencyMS)
	}
	if rec.TS != "2021-06-20T12:00:00Z" {
		t.Fatalf("ts = %q", rec.TS)
	}
	if len(rec.QErrors) != 1 || rec.QErrors[0].QError != 100 {
		t.Fatalf("qerrors mismatch: %+v", rec.QErrors)
	}
}

func TestSlowQueryLogZeroThresholdLogsAll(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowQueryLog(&buf, 0)
	l.Maybe(0, QueryRecord{SQLDigest: "a"})
	l.Maybe(time.Nanosecond, QueryRecord{SQLDigest: "b"})
	if n := strings.Count(buf.String(), "\n"); n != 2 {
		t.Fatalf("emitted = %d, want 2", n)
	}
}

func TestSlowQueryLogNilSafe(t *testing.T) {
	var l *SlowQueryLog
	l.Maybe(time.Second, QueryRecord{}) // must not panic
}

func TestDigestHelpers(t *testing.T) {
	a, b := ShortDigest("SELECT 1"), ShortDigest("SELECT 2")
	if a == b {
		t.Fatal("distinct statements share a digest")
	}
	if len(a) != 16 || len(ShortDigest("x")) != 16 {
		t.Fatal("digests are not fixed-width")
	}
	if ShortDigest("SELECT 1") != a {
		t.Fatal("digest not stable")
	}
}
