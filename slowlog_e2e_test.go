package cgdqp

// End-to-end tests of the structured slow-query log through the public
// API, over a workload whose statistics misestimate a filter.

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"cgdqp/internal/network"
	"cgdqp/internal/obs"
)

// misestimatedSystem builds a two-site workload whose statistics lie:
// half of bigfact carries status 'X', but the recorded column stats
// claim 500 distinct statuses, so the optimizer estimates the filter at
// ~10 rows and ships the (actually huge) filtered fact side: the slow
// query log's per-operator q-errors must expose the misestimate.
func misestimatedSystem(t *testing.T, opts Options) *System {
	t.Helper()
	// A homogeneous network where β·bytes dominates α: plan choice is
	// then driven by shipped volume, which the misestimate distorts.
	// (Under the default five-region WAN the per-shipment latencies
	// dwarf the byte costs at this data scale.)
	sys := NewSystemWith(opts)
	sys.Net = network.NewCostModel(1, 0.01)
	sys.MustDefineTable("bigfact", "db-e", "Europe", 20000,
		Col("k", TInt), Col("status", TString), Col("v", TFloat))
	sys.MustDefineTable("dim", "db-a", "Asia", 200,
		Col("k", TInt), Col("name", TString))
	sys.MustAddPolicy("ship * from bigfact to *")
	sys.MustAddPolicy("ship * from dim to *")

	var fRows []Row
	for i := 0; i < 20000; i++ {
		status := "X"
		if i%2 == 1 {
			status = "ok"
		}
		fRows = append(fRows, Row{Int(int64(i % 200)), String(status), Float(float64(i))})
	}
	var dRows []Row
	for i := 0; i < 200; i++ {
		dRows = append(dRows, Row{Int(int64(i)), String("name-" + strings.Repeat("x", i%7))})
	}
	sys.MustLoad("bigfact", fRows)
	sys.MustLoad("dim", dRows)

	// The lie: stats claim status is near-unique, so σ(status='X') ≈ 10
	// rows when the truth is 10000 — cheap enough to ship the filtered
	// fact side.
	if err := sys.SetColumnStats("bigfact", "status", 2000, String("A"), String("zz")); err != nil {
		t.Fatal(err)
	}
	return sys
}

// No aggregation: partial-aggregate pushdown would cap the shipped
// volume at the group count and hide the misestimate entirely.
const misestimatedQuery = `
	SELECT D.name, B.v
	FROM bigfact B, dim D
	WHERE B.k = D.k AND B.status = 'X'
	ORDER BY D.name, B.v`

// TestSlowQueryLogE2E pins the structured slow-query log through the
// public API: one parseable JSON line per query above the threshold,
// with digests, per-operator q-errors and the cache disposition — and
// one for a query that fails or is refused, saying so.
func TestSlowQueryLogE2E(t *testing.T) {
	// The second run is a result-cache hit; the slow log profiles the
	// first execution and reports its q-errors.
	var buf bytes.Buffer
	sys := misestimatedSystem(t, Options{
		SlowQueryLog:     &buf,
		ResultCacheBytes: 1 << 20, // exercise the hit/miss disposition too
	})
	for i := 0; i < 2; i++ {
		if _, err := sys.Query(misestimatedQuery); err != nil {
			t.Fatal(err)
		}
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("slow-log lines = %d, want 2:\n%s", len(lines), buf.String())
	}
	var recs []obs.QueryRecord
	for i, ln := range lines {
		var rec obs.QueryRecord
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, ln)
		}
		recs = append(recs, rec)
	}
	first, second := recs[0], recs[1]
	if first.SQLDigest == "" || first.PlanDigest == "" {
		t.Fatalf("missing digests: %+v", first)
	}
	if first.SQLDigest != second.SQLDigest {
		t.Fatal("same SQL produced different SQL digests")
	}
	if first.Cache != obs.CacheMiss {
		t.Fatalf("first run disposition %q, want %q", first.Cache, obs.CacheMiss)
	}
	if second.Cache != obs.CacheHit {
		t.Fatalf("second run disposition %q, want %q", second.Cache, obs.CacheHit)
	}
	if len(first.QErrors) == 0 {
		t.Fatal("first run carried no per-operator q-errors")
	}
	worst := first.QErrors[0].QError
	for _, q := range first.QErrors {
		if q.QError > worst {
			t.Fatal("q-errors not sorted worst-first")
		}
	}
	if worst < 100 {
		t.Fatalf("worst q-error %v, want the misestimate visible", worst)
	}
	if first.ShipBytes == 0 || first.LatencyMS <= 0 {
		t.Fatalf("record fields: %+v", first)
	}
	// Cache hits replay the filling run's shipping statistics.
	if second.ShipBytes != first.ShipBytes {
		t.Fatalf("hit replayed %d ship bytes, filling run had %d",
			second.ShipBytes, first.ShipBytes)
	}
	if first.Outcome != obs.OutcomeOK || second.Outcome != obs.OutcomeCacheHit || second.Phases.ExecuteMS != 0 {
		t.Fatalf("outcomes %q, %q; a hit executed for %v ms", first.Outcome, second.Outcome, second.Phases.ExecuteMS)
	}

	// Without either grant the two sites cannot meet: the query is
	// refused. A statement that does not parse is an error.
	buf.Reset()
	for _, id := range []string{"p1", "p2"} {
		if !sys.RemovePolicy(id) {
			t.Fatalf("no policy %s", id)
		}
	}
	if _, err := sys.Query(misestimatedQuery); !errors.Is(err, ErrNoCompliantPlan) {
		t.Fatalf("query without grants: %v, want ErrNoCompliantPlan", err)
	}
	if _, err := sys.Query("SELEC 1"); err == nil {
		t.Fatal("malformed statement ran")
	}
	lines = strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("failed queries logged %d lines, want 2:\n%s", len(lines), buf.String())
	}
	for i, want := range []string{obs.OutcomeRefused, obs.OutcomeError} {
		var rec obs.QueryRecord
		if err := json.Unmarshal([]byte(lines[i]), &rec); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, lines[i])
		}
		if rec.Outcome != want || rec.Error == "" || rec.SQLDigest == "" || rec.PlanDigest != "" || rec.LatencyMS <= 0 {
			t.Fatalf("failed query %d: want outcome %q with an error and no plan, got %s", i, want, lines[i])
		}
	}
}

// TestSlowQueryThresholdFilters pins that a high threshold suppresses
// fast queries entirely.
func TestSlowQueryThresholdFilters(t *testing.T) {
	var buf bytes.Buffer
	sys := misestimatedSystem(t, Options{
		SlowQueryLog:       &buf,
		SlowQueryThreshold: 10 * 60 * 1000 * 1000 * 1000, // 10 minutes
	})
	if _, err := sys.Query(misestimatedQuery); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("fast query logged below threshold:\n%s", buf.String())
	}
}
