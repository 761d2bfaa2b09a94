package feedback

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

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
			{Op: "Join", Digest: "abc", Est: 10, Actual: 1000, QError: 100},
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
