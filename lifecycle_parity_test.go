package cgdqp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// lifecycleRun is what one front end observed for a statement sequence.
type lifecycleRun struct {
	answers []string // per statement: rows, shipping statistics, cache disposition
	audit   string
	slow    []string // slow-query lines minus the front-end-specific fields
	queries int64    // cgdqp_queries_total{status="ok"}
	pool    float64  // cgdqp_store_pool_hits + misses
}

// normalizeSlowLine drops the fields of a slow-query line that
// legitimately differ between front ends or runs.
func normalizeSlowLine(t *testing.T, line string) string {
	t.Helper()
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("slow-query line is not JSON: %v\n%s", err, line)
	}
	for _, k := range []string{"ts", "latency_ms", "engine", "coalesced"} {
		delete(rec, k)
	}
	out, err := json.Marshal(rec) // map keys marshal sorted
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func renderAnswer(rows []Row, bytes int64, cost float64, retries int64, cached bool) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintln(&b, r)
	}
	fmt.Fprintf(&b, "shipped=%d cost=%v retries=%d cached=%v", bytes, cost, retries, cached)
	return b.String()
}

// TestLifecycleParity pins that System.Query and a Server from
// System.Serve run one lifecycle: the same statements leave the same
// rows, statistics, cache dispositions, audit log, slow-query records
// and query/store metrics behind, with the result cache off, cold and
// warm, with and without the feedback loop.
func TestLifecycleParity(t *testing.T) {
	stmts := []string{rcJoinQuery, rcAggQuery, rcJoinQuery, rcLocalQuery, rcAggQuery, rcJoinQuery}
	observe := func(t *testing.T, opts Options, served bool) lifecycleRun {
		var slow bytes.Buffer
		opts.Audit, opts.Metrics, opts.SlowQueryLog = true, true, &slow
		opts.DataDir = t.TempDir()
		sys := rcFixture(t, opts)
		defer sys.Close()
		var run lifecycleRun
		if served {
			srv := sys.Serve(ServeOptions{MaxConcurrent: 1})
			defer srv.Close()
			for _, sql := range stmts {
				resp, err := srv.Do(context.Background(), sql)
				if err != nil {
					t.Fatalf("Do(%s): %v", sql, err)
				}
				if resp.Stats.RowsOut != int64(len(resp.Rows)) {
					t.Errorf("RowsOut %d for %d rows", resp.Stats.RowsOut, len(resp.Rows))
				}
				run.answers = append(run.answers, renderAnswer(resp.Rows,
					resp.Stats.ShippedBytes, resp.Stats.ShipCost, resp.Stats.Retries, resp.CacheHit))
			}
		} else {
			for _, sql := range stmts {
				res, err := sys.Query(sql)
				if err != nil {
					t.Fatalf("Query(%s): %v", sql, err)
				}
				run.answers = append(run.answers, renderAnswer(res.Rows,
					res.ShippedBytes, res.ShipCost, res.Retries, res.Cached))
			}
		}
		run.audit = sys.AuditLog().String()
		for _, line := range strings.Split(strings.TrimSpace(slow.String()), "\n") {
			run.slow = append(run.slow, normalizeSlowLine(t, line))
		}
		m := sys.Metrics()
		run.queries = m.CounterValue("cgdqp_queries_total", "status", "ok")
		run.pool = m.Gauge("cgdqp_store_pool_hits").Value() + m.Gauge("cgdqp_store_pool_misses").Value()
		return run
	}

	for _, cache := range []int64{0, 1 << 20} {
		for _, fb := range []bool{false, true} {
			t.Run(fmt.Sprintf("cache=%d/feedback=%v", cache, fb), func(t *testing.T) {
				opts := Options{ResultCacheBytes: cache, Feedback: fb}
				direct, served := observe(t, opts, false), observe(t, opts, true)
				for i := range stmts {
					if direct.answers[i] != served.answers[i] {
						t.Errorf("statement %d (%s):\nQuery:\n%s\nServe:\n%s", i, stmts[i], direct.answers[i], served.answers[i])
					}
				}
				if direct.audit == "" || direct.audit != served.audit {
					t.Errorf("audit logs differ:\nQuery:\n%s\nServe:\n%s", direct.audit, served.audit)
				}
				if len(direct.slow) != len(stmts) || len(served.slow) != len(stmts) {
					t.Fatalf("slow-query lines: Query %d, Serve %d, want %d", len(direct.slow), len(served.slow), len(stmts))
				}
				for i := range stmts {
					if direct.slow[i] != served.slow[i] {
						t.Errorf("slow-query record %d:\nQuery: %s\nServe: %s", i, direct.slow[i], served.slow[i])
					}
					if strings.Contains(served.slow[i], `"plan_digest":""`) {
						t.Errorf("served record %d has no plan digest: %s", i, served.slow[i])
					}
				}
				if direct.queries != int64(len(stmts)) || served.queries != direct.queries {
					t.Errorf("cgdqp_queries_total{ok}: Query %d, Serve %d, want %d", direct.queries, served.queries, len(stmts))
				}
				if direct.pool == 0 || served.pool == 0 {
					t.Errorf("store-pool gauges not published: Query %v, Serve %v", direct.pool, served.pool)
				}
				// The sequence repeats statements, so without feedback
				// re-planning the repeats are exactly the cache hits.
				if !fb {
					want := 0
					if cache > 0 {
						want = 3
					}
					if hits := strings.Count(strings.Join(served.answers, "\n"), "cached=true"); hits != want {
						t.Errorf("%d cache hits, want %d", hits, want)
					}
				}
			})
		}
	}
}

// TestServeExecOptionsKeyTheCache: no execution option changes rows,
// RunStats or audit log — so none of them keys the cache. Two lifecycles
// share one cache: a server on the row interpreter is served the entry a
// kernel execution filled, and when it executes for itself it reports
// the very same statistics.
func TestServeExecOptionsKeyTheCache(t *testing.T) {
	interp := Options{NoVectorKernels: true}
	sys := rcFixture(t, Options{ResultCacheBytes: 1 << 20})
	plain, err := sys.Query(rcJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	srv := rcFixture(t, interp).Serve(ServeOptions{ResultCache: sys.lc.Cache, CacheView: sys.lc.View})
	defer srv.Close()
	served, err := srv.Do(context.Background(), rcJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !served.CacheHit || served.Stats.ShippedBytes != plain.ShippedBytes {
		t.Errorf("interpreter server: hit=%v, %d bytes, want the kernel execution's entry with %d",
			served.CacheHit, served.Stats.ShippedBytes, plain.ShippedBytes)
	}

	uncached := rcFixture(t, interp).Serve(ServeOptions{})
	defer uncached.Close()
	fresh, err := uncached.Do(context.Background(), rcJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.CacheHit || fresh.Stats != served.Stats {
		t.Errorf("interpreter execution: hit=%v stats %+v, the shared entry replays %+v", fresh.CacheHit, fresh.Stats, served.Stats)
	}
}
