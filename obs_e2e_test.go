package cgdqp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestSystemObservabilityEndToEnd drives one query through a fully
// observed system and checks every promised signal surfaces: lifecycle
// spans, the metric families of the acceptance criteria, and audit
// records carrying the shipping-trait justification.
func TestSystemObservabilityEndToEnd(t *testing.T) {
	sys := demoSystemWith(t, Options{Trace: true, Metrics: true, Audit: true})
	res, err := sys.Query(demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShippedBytes == 0 {
		t.Fatal("demo query should ship across borders")
	}

	names := map[string]bool{}
	for _, s := range sys.Tracer().Spans() {
		names[s.Name] = true
	}
	for _, want := range []string{"sql.parse_bind", "optimize", "optimize.site_select",
		"execute.sequential", "exec.fragment", "ship.batch"} {
		if !names[want] {
			t.Fatalf("missing %q span; got %v", want, names)
		}
	}

	var buf bytes.Buffer
	if err := sys.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`cgdqp_queries_total{status="ok"} 1`,
		`cgdqp_executions_total{engine="seq",status="ok"} 1`,
		"cgdqp_ship_rows_total{",
		"cgdqp_ship_bytes_total{",
		"cgdqp_plan_cache_misses 1",
		"cgdqp_policy_eval_calls",
		"cgdqp_optimize_seconds_count 1",
		`cgdqp_execute_seconds_count{engine="seq"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics export missing %q:\n%s", want, text)
		}
	}

	recs := sys.AuditLog().Records()
	if len(recs) == 0 {
		t.Fatal("audit log empty after cross-border query")
	}
	for _, r := range recs {
		if r.From == "" || r.To == "" || r.Rows <= 0 {
			t.Fatalf("malformed audit record: %+v", r)
		}
		if !strings.HasPrefix(r.Justification, "ship-trait ") ||
			!strings.Contains(r.Justification, "permits "+r.To) {
			t.Fatalf("compliant plan should justify by shipping trait: %+v", r)
		}
		if len(r.Relations) == 0 || len(r.Columns) == 0 {
			t.Fatalf("audit record missing provenance: %+v", r)
		}
	}
}

// TestSystemExplainAnalyze: the annotated plan carries per-operator
// actuals and the result still matches a plain Query.
func TestSystemExplainAnalyze(t *testing.T) {
	sys := demoSystem(t) // observability off: profiling must still work
	res, annotated, err := sys.ExplainAnalyze(demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	if !strings.Contains(annotated, "actual rows=") {
		t.Fatalf("no actuals in annotated plan:\n%s", annotated)
	}
	if strings.Contains(annotated, "(never executed)") {
		t.Fatalf("all operators should run for this query:\n%s", annotated)
	}
	plain, err := sys.Query(demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Rows) != len(res.Rows) {
		t.Fatalf("ExplainAnalyze rows %d != Query rows %d", len(res.Rows), len(plain.Rows))
	}
}

// TestExplainReportsTruncatedSearch: a search cut short by MaxExprs says
// so in one line under the EXPLAIN and EXPLAIN ANALYZE text — also when
// the plan comes from the plan cache — and an exhaustive search prints
// nothing extra.
func TestExplainReportsTruncatedSearch(t *testing.T) {
	full, err := demoSystem(t).Explain(demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.Truncated || strings.Contains(full.String(), "search:") {
		t.Fatalf("exhaustive search reported as truncated:\n%s", full)
	}
	budget := full.Stats.Exprs / 2
	sys := demoSystemWith(t, Options{MaxExprs: budget})
	for _, cached := range []bool{false, true} {
		p, err := sys.Explain(demoQuery)
		if err != nil {
			t.Fatal(err)
		}
		if p.Stats.PlanCacheHit != cached {
			t.Fatalf("plan-cache hit = %v, want %v", p.Stats.PlanCacheHit, cached)
		}
		want := fmt.Sprintf("search: truncated at MaxExprs=%d — groups %d, exprs %d; plan is compliant but may not be cheapest\n",
			budget, p.Stats.Groups, p.Stats.Exprs)
		if !strings.HasSuffix(p.String(), want) {
			t.Fatalf("EXPLAIN lacks %q:\n%s", want, p)
		}
		if _, annotated, err := sys.ExplainAnalyze(demoQuery); err != nil || !strings.HasSuffix(annotated, want) {
			t.Fatalf("EXPLAIN ANALYZE lacks %q (%v):\n%s", want, err, annotated)
		}
	}
}

// TestSystemAuditReplayDeterministic: two systems configured with the
// same chaos seed must render byte-identical audit logs — the log never
// leaks retry timing or goroutine interleaving.
func TestSystemAuditReplayDeterministic(t *testing.T) {
	run := func() string {
		sys := demoSystemWith(t, Options{
			Audit:    true,
			Parallel: true,
			Faults: NewFaultPlan(99).SetDefault(EdgeFaults{
				DropProb:      0.10,
				TransientProb: 0.10,
			}),
		})
		if _, err := sys.Query(demoQuery); err != nil {
			t.Fatalf("chaos query: %v", err)
		}
		return sys.AuditLog().String()
	}
	first := run()
	if first == "" {
		t.Fatal("audit log empty")
	}
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("replay %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
}

// TestPlanCacheStatsDisabled covers both cache configurations of the
// facade: the default cache records hits, and a disabled cache
// (PlanCacheSize < 0) keeps PlanCacheStats safe to call, returning the
// zero value.
func TestPlanCacheStatsDisabled(t *testing.T) {
	cached := demoSystemWith(t, Options{}) // PlanCacheSize 0 → default cache
	for i := 0; i < 2; i++ {
		if _, err := cached.Query(demoQuery); err != nil {
			t.Fatal(err)
		}
	}
	if st := cached.PlanCacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("default cache stats = %+v, want 1 hit / 1 miss", st)
	}

	off := demoSystemWith(t, Options{PlanCacheSize: -1})
	for i := 0; i < 2; i++ {
		if _, err := off.Query(demoQuery); err != nil {
			t.Fatal(err)
		}
	}
	if st := off.PlanCacheStats(); st != (PlanCacheStats{}) {
		t.Fatalf("disabled cache should report the zero value, got %+v", st)
	}
}
