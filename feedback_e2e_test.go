package cgdqp

// End-to-end tests of the execution-feedback loop through the public
// API: a misestimated workload whose first execution corrects the
// optimizer's cardinalities, the structured slow-query log, and the
// auto-applied wire calibration.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"cgdqp/internal/feedback"
	"cgdqp/internal/network"
)

// misestimatedSystem builds a two-site workload whose statistics lie:
// half of bigfact carries status 'X', but the recorded column stats
// claim 500 distinct statuses, so the optimizer estimates the filter at
// ~40 rows and ships the (actually huge) filtered fact side. One
// executed query teaches the feedback store the truth.
func misestimatedSystem(t *testing.T, opts Options) *System {
	t.Helper()
	// A homogeneous network where β·bytes dominates α: plan choice is
	// then driven by shipped volume, which is what the cardinality
	// feedback corrects. (Under the default five-region WAN the per-
	// shipment latencies dwarf the byte costs at this data scale.)
	sys := NewSystemWith(opts)
	sys.Net = network.UniformWAN(1, 0.01)
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
	// fact side, until feedback reveals the real cardinality.
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

// TestFeedbackCorrectsMisestimate is the headline loop: the first
// execution records observed cardinalities, bumps the feedback epoch,
// and the re-optimized second execution ships dramatically fewer bytes
// while returning the identical rows.
func TestFeedbackCorrectsMisestimate(t *testing.T) {
	// Control: without feedback the misestimated plan is re-served from
	// the plan cache and the shipped volume never moves.
	ctl := misestimatedSystem(t, Options{})
	ctlFirst, err := ctl.Query(misestimatedQuery)
	if err != nil {
		t.Fatal(err)
	}
	ctlSecond, err := ctl.Query(misestimatedQuery)
	if err != nil {
		t.Fatal(err)
	}
	if ctlFirst.ShippedBytes != ctlSecond.ShippedBytes {
		t.Fatalf("control drifted: %d then %d bytes",
			ctlFirst.ShippedBytes, ctlSecond.ShippedBytes)
	}

	sys := misestimatedSystem(t, Options{Feedback: true})
	if sys.Feedback() == nil {
		t.Fatal("Feedback store not constructed")
	}
	first, err := sys.Query(misestimatedQuery)
	if err != nil {
		t.Fatal(err)
	}
	sum := sys.Feedback().Summary()
	if sum.Tracked == 0 || sum.Queries != 1 {
		t.Fatalf("after one query: %+v", sum)
	}
	if sum.MaxQError < 100 {
		t.Fatalf("max q-error = %v, want the ~250x misestimate visible", sum.MaxQError)
	}
	if sum.Epoch == 0 {
		t.Fatal("gross misestimate did not bump the feedback epoch")
	}

	second, err := sys.Query(misestimatedQuery)
	if err != nil {
		t.Fatal(err)
	}
	if second.ShippedBytes >= first.ShippedBytes {
		t.Fatalf("feedback did not reduce shipping: %d then %d bytes",
			first.ShippedBytes, second.ShippedBytes)
	}
	if ratio := float64(first.ShippedBytes) / float64(second.ShippedBytes); ratio < 2 {
		t.Fatalf("shipping improvement %.2fx, want >= 2x (%d -> %d bytes)",
			ratio, first.ShippedBytes, second.ShippedBytes)
	}

	// Correctness is untouched: both executions and the control return
	// the same multiset of rows (the query is fully ordered).
	a, b, c := renderRows(first.Rows), renderRows(second.Rows), renderRows(ctlFirst.Rows)
	sort.Strings(a)
	sort.Strings(b)
	sort.Strings(c)
	if len(b) == 0 {
		t.Fatal("empty result exercises nothing")
	}
	for i := range a {
		if a[i] != b[i] || a[i] != c[i] {
			t.Fatalf("row %d diverged across plans:\nfirst  %s\nsecond %s\ncontrol %s",
				i, a[i], b[i], c[i])
		}
	}

	// Hints are permanent: the corrected plan keeps its corrected
	// estimate, so a third run must not oscillate back.
	third, err := sys.Query(misestimatedQuery)
	if err != nil {
		t.Fatal(err)
	}
	if third.ShippedBytes != second.ShippedBytes {
		t.Fatalf("plan oscillated: %d then %d bytes", second.ShippedBytes, third.ShippedBytes)
	}
}

// skewedChainSystem builds pick ⋈ mid ⋈ wide ⋈ tail over three sites
// with honest per-column statistics and a correlation they cannot see:
// every mid row that joins pick carries y = 0, and a fifth of wide does
// too. Each two-table join is estimated about right; pick ⋈ mid ⋈ wide
// is estimated at 1000 rows and is 40000.
func skewedChainSystem(t *testing.T, opts Options) *System {
	t.Helper()
	sys := NewSystemWith(opts)
	sys.Net = network.UniformWAN(1, 0.01)
	sys.MustDefineTable("pick", "db-e", "Europe", 10, Col("x", TInt))
	sys.MustDefineTable("mid", "db-e", "Europe", 2000, Col("x", TInt), Col("y", TInt), Col("v", TFloat))
	sys.MustDefineTable("wide", "db-a", "Asia", 2000, Col("y", TInt), Col("w", TInt), Col("note", TString))
	sys.MustDefineTable("tail", "db-n", "NorthAmerica", 5000, Col("w", TInt), Col("tag", TString))
	var pick, mid, wide, tail []Row
	for i := int64(0); i < 10; i++ {
		pick = append(pick, Row{Int(i)})
	}
	for i := int64(0); i < 2000; i++ {
		x, my, wy := i%200, 1+i%199, 1+i%199
		if x < 10 {
			my = 0
		}
		if i < 400 {
			wy = 0
		}
		mid = append(mid, Row{Int(x), Int(my), Float(float64(i))})
		wide = append(wide, Row{Int(wy), Int(i), String(fmt.Sprintf("note-%04d-%s", i, strings.Repeat("0123456789", 4)))})
	}
	for i := int64(0); i < 5000; i++ {
		tail = append(tail, Row{Int(i), String(fmt.Sprintf("t%d", i%7))})
	}
	for i, name := range []string{"pick", "mid", "wide", "tail"} {
		sys.MustAddPolicy("ship * from " + name + " to *")
		sys.MustLoad(name, [][]Row{pick, mid, wide, tail}[i])
	}
	for _, st := range []struct {
		table, col string
		distinct   int64
	}{{"pick", "x", 10}, {"mid", "x", 200}, {"mid", "y", 200}, {"wide", "y", 200}, {"wide", "w", 2000}, {"tail", "w", 5000}} {
		if err := sys.SetColumnStats(st.table, st.col, st.distinct, Int(0), Int(st.distinct-1)); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// TestFeedbackCorrectsReassociatedJoin: the misestimated subplan is a
// three-table join, and the FROM order is not the order that runs. The
// first plan builds pick ⋈ mid ⋈ wide in Asia and ships what it takes
// for 1000 rows to tail; the actual is filed under the join's identity,
// not its tree, so the memo group finds it whichever tree created the
// group, and the second plan joins wide with tail first.
func TestFeedbackCorrectsReassociatedJoin(t *testing.T) {
	const query = `
		SELECT T.tag, W.note, M.v
		FROM tail T, wide W, mid M, pick P
		WHERE P.x = M.x AND M.y = W.y AND W.w = T.w`
	sys := skewedChainSystem(t, Options{Feedback: true})
	before, err := sys.Explain(query)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sys.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	after, err := sys.Explain(query)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sys.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if first.ShippedBytes < 2*second.ShippedBytes {
		t.Fatalf("shipped %d then %d bytes, want >= 2x fewer once the join's actual is known\nfirst plan:\n%s\nsecond plan:\n%s",
			first.ShippedBytes, second.ShippedBytes, before, after)
	}
	a, b := renderRows(first.Rows), renderRows(second.Rows)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != 40000 || strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatalf("rows diverged across join orders: %d then %d rows", len(a), len(b))
	}
}

// TestEmptyIntermediateKeepsPlanCache: a filter that matches nothing
// against an estimate of thousands activates one hint on the first run;
// the re-planned second run and every run after it change nothing, so
// the third is a plan-cache hit.
func TestEmptyIntermediateKeepsPlanCache(t *testing.T) {
	const query = `SELECT D.name, B.v FROM bigfact B, dim D WHERE B.k = D.k AND B.v < 0`
	sys := misestimatedSystem(t, Options{Feedback: true})
	var hints [3]int
	for i := range hints {
		res, err := sys.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 0 {
			t.Fatalf("run %d returned %d rows, the fixture should match none", i, len(res.Rows))
		}
		hints[i] = sys.Feedback().Summary().ActiveHints
	}
	if hints[0] == 0 || hints[2] != hints[1] {
		t.Fatalf("active hints after each run: %v, want some after the first and no growth after the second", hints)
	}
	if hits := sys.PlanCacheStats().Hits; hits == 0 {
		t.Fatalf("third run re-planned: %+v, epoch %d", sys.PlanCacheStats(), sys.Feedback().Epoch())
	}
}

// TestSlowQueryLogE2E pins the structured slow-query log through the
// public API: one parseable JSON line per query above the threshold,
// with digests, per-operator q-errors and the cache disposition.
func TestSlowQueryLogE2E(t *testing.T) {
	// Feedback stays off so the plan is stable and the second run is a
	// result-cache hit; the slow log still profiles executions and
	// reports q-errors on its own.
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
	var recs []feedback.QueryRecord
	for i, ln := range lines {
		var rec feedback.QueryRecord
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
	if first.Cache != feedback.CacheMiss {
		t.Fatalf("first run disposition %q, want %q", first.Cache, feedback.CacheMiss)
	}
	if second.Cache != feedback.CacheHit {
		t.Fatalf("second run disposition %q, want %q", second.Cache, feedback.CacheHit)
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
	if first.ShipBytes == 0 || first.LatencyMS <= 0 || first.Engine != "seq" {
		t.Fatalf("record fields: %+v", first)
	}
	// Cache hits replay the filling run's shipping statistics.
	if second.ShipBytes != first.ShipBytes {
		t.Fatalf("hit replayed %d ship bytes, filling run had %d",
			second.ShipBytes, first.ShipBytes)
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

// TestEnableAutoCalibrationE2E arms every-frame calibration through the
// facade: after one executed query the calibrator has observed encoding
// frames and folded the measured ratio into the cost model.
func TestEnableAutoCalibrationE2E(t *testing.T) {
	sys := misestimatedSystem(t, Options{Feedback: true})
	cal := sys.EnableAutoCalibration(1)
	if cal == nil {
		t.Fatal("EnableAutoCalibration returned nil")
	}
	if _, err := sys.Query(misestimatedQuery); err != nil {
		t.Fatal(err)
	}
	if ratio := cal.EncodingRatio(); ratio <= 0 {
		t.Fatalf("encoding ratio = %v, want frames observed and a positive ratio", ratio)
	}
}
