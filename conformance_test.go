package cgdqp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"cgdqp/internal/network"
	"cgdqp/internal/obs"
	"cgdqp/internal/refeval"
	"cgdqp/internal/tpch"
	"cgdqp/internal/workload"
)

// This file is the conformance oracle: one table-driven suite that runs
// every golden TPC-H query across the execution matrix — result cache
// cold, warm, disabled; observed or not — under a sweep of chaos seeds, and requires the
// rows the independent reference evaluator (internal/refeval) finds
// from the bound query, and byte-identical shipping statistics and
// audit logs against the fault-free, cache-less engine run. Any
// divergence between cache states, fault recoveries or the reference is
// a conformance bug, not an acceptable variation.

// conformOutcome is one observed query execution through the public API.
type conformOutcome struct {
	res *Result
	err error
}

// runConform executes one query with a deadlock watchdog: a run that
// neither returns nor errors within the budget fails the suite.
func runConform(t *testing.T, label string, sys *System, sql string) conformOutcome {
	t.Helper()
	done := make(chan conformOutcome, 1)
	go func() {
		res, err := sys.Query(sql)
		done <- conformOutcome{res: res, err: err}
	}()
	select {
	case out := <-done:
		return out
	case <-time.After(60 * time.Second):
		t.Fatalf("%s: execution hung past 60s (deadlock)", label)
		return conformOutcome{}
	}
}

// conformGolden is the reference for one query: the reference
// evaluator's canonical rows, and the shipping statistics and rendered
// audit log of a fault-free, cache-less engine run.
type conformGolden struct {
	rows  []string
	bytes int64
	cost  float64
	audit string
}

// conformCell is one column of the execution matrix. An observed cell
// turns every remaining observability sink on — metrics, and the
// slow-query log at threshold 0, so each query writes its account —
// besides the audit log every cell keeps.
type conformCell struct {
	cached, observed bool
}

// newConformSystem builds a fully loaded TPC-H system for one matrix
// cell; an observed cell's accounts go to slow. Each cell gets its own
// system over identically generated data so cells cannot contaminate
// each other through shared caches or epochs.
func newConformSystem(t *testing.T, cell conformCell, slow *bytes.Buffer) *System {
	t.Helper()
	opts := Options{Audit: true}
	if cell.cached {
		opts.ResultCacheBytes = 32 << 20
	}
	if cell.observed {
		opts.Metrics, opts.SlowQueryLog = true, slow
	}
	sys := NewSystemWith(opts)
	sys.Schema = tpch.NewCatalog(0.001)
	for _, tab := range sys.Schema.Tables() {
		sys.MustAddPolicy("ship * from " + tab.Name + " to *")
	}
	if err := tpch.Generate(sys.Schema, sys.Cluster()); err != nil {
		t.Fatal(err)
	}
	return sys
}

// newConformGolden runs sql on the fault-free, cache-less system ref and
// takes its rows from the reference evaluator.
func newConformGolden(t *testing.T, ref *System, label, sql string) *conformGolden {
	t.Helper()
	ref.AuditLog().Reset()
	out := runConform(t, label, ref, sql)
	if out.err != nil {
		t.Fatalf("%s: %v", label, out.err)
	}
	rows, err := refeval.Query(sql, ref.Schema, ref.Cluster())
	if err != nil {
		t.Fatalf("%s: reference evaluator: %v", label, err)
	}
	return &conformGolden{
		rows:  renderRows(rows),
		bytes: out.res.ShippedBytes,
		cost:  out.res.ShipCost,
		audit: ref.AuditLog().String(),
	}
}

// conformCompare asserts one successful run against the golden
// reference. Retries are not part of the contract under faults (they
// count repeated sends, which depend on the seed); everything else —
// rows, shipped bytes, shipping cost, the full audit text — must match
// byte for byte.
func conformCompare(t *testing.T, label string, out conformOutcome, auditText string, g *conformGolden) {
	t.Helper()
	got := renderRows(out.res.Rows)
	if len(got) != len(g.rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(g.rows))
	}
	for i := range g.rows {
		if got[i] != g.rows[i] {
			t.Fatalf("%s: row %d differs:\ngot  %s\nwant %s", label, i, got[i], g.rows[i])
		}
	}
	if out.res.ShippedBytes != g.bytes {
		t.Fatalf("%s: shipped %d bytes, want %d", label, out.res.ShippedBytes, g.bytes)
	}
	if out.res.ShipCost != g.cost {
		t.Fatalf("%s: ship cost %v, want %v", label, out.res.ShipCost, g.cost)
	}
	if auditText != g.audit {
		t.Fatalf("%s: audit log diverges from reference:\ngot:\n%swant:\n%s", label, auditText, g.audit)
	}
}

// conformAccount checks, and consumes, the one account line a run in an
// observed cell wrote: a failed run says so, and a successful one
// reports the run's shipped bytes and the digest of the plan it
// executed.
func conformAccount(t *testing.T, label string, slow *bytes.Buffer, out conformOutcome) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(slow.String()), "\n")
	slow.Reset()
	if len(lines) != 1 {
		t.Fatalf("%s: %d account lines, want 1", label, len(lines))
	}
	var rec obs.QueryRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("%s: account line: %v\n%s", label, err, lines[0])
	}
	if out.err != nil {
		if rec.Outcome != obs.OutcomeError || rec.Error == "" {
			t.Fatalf("%s: failed run accounted as %s", label, lines[0])
		}
		return
	}
	want := obs.OutcomeOK
	if out.res.Cached {
		want = obs.OutcomeCacheHit
	}
	if rec.Outcome != want || rec.ShipBytes != out.res.ShippedBytes ||
		rec.PlanDigest != obs.ShortDigest(out.res.Plan.Root.Digest()) {
		t.Fatalf("%s: account %s does not describe the run (outcome %s, %d bytes shipped)",
			label, lines[0], want, out.res.ShippedBytes)
	}
}

// TestConformanceMatrix is the acceptance oracle of the execution
// matrix. For every golden TPC-H query, every cell, and every chaos
// seed (seed 0 = fault-free), each run must either succeed
// byte-identical to the reference or fail with a typed
// *network.ShipError. Cache-enabled
// cells additionally pin the warm-hit contract: after a successful cold
// run the second run is served from the cache with the cold run's exact
// rows, statistics and replayed audit records. In the observed cell,
// observing changes none of that, and every run writes exactly one
// account of itself.
func TestConformanceMatrix(t *testing.T) {
	names := tpch.QueryNames()

	ref := newConformSystem(t, conformCell{}, nil)
	goldens := map[string]*conformGolden{}
	for _, name := range names {
		goldens[name] = newConformGolden(t, ref, "reference/"+name, tpch.Queries[name])
	}

	seeds := []int64{0, 1, 2, 3, 4, 5, 6, 7}
	if testing.Short() {
		seeds = seeds[:2]
	}
	retry := network.RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: 20 * time.Microsecond,
		MaxBackoff:  160 * time.Microsecond,
		Multiplier:  2,
		JitterFrac:  0.2,
	}

	recovered, failed, warmHits := 0, 0, 0
	for _, cell := range []conformCell{{}, {cached: true}, {cached: true, observed: true}} {
		cached := cell.cached
		var slow bytes.Buffer
		sys := newConformSystem(t, cell, &slow)
		cl := sys.Cluster()
		ok := 0 // successful runs
		for _, seed := range seeds {
			if seed == 0 {
				cl.SetFaults(nil)
			} else {
				cl.SetFaults(NewFaultPlan(seed).SetDefault(EdgeFaults{
					DropProb:      0.12,
					TransientProb: 0.06,
				}))
				cl.SetRetry(retry)
			}
			if cached {
				// Every seed starts cold: entries surviving from the
				// previous seed would mask the faulted execution path.
				sys.ResultCache().Purge()
			}
			for _, name := range names {
				g := goldens[name]
				label := fmt.Sprintf("cache=%v observed=%v seed=%d %s", cached, cell.observed, seed, name)

				sys.AuditLog().Reset()
				cold := runConform(t, label+" cold", sys, tpch.Queries[name])
				coldAudit := sys.AuditLog().String()
				if cell.observed {
					conformAccount(t, label+" cold", &slow, cold)
				}
				if cold.err != nil {
					var se *network.ShipError
					if !errors.As(cold.err, &se) {
						t.Fatalf("%s cold: untyped error: %v", label, cold.err)
					}
					failed++
				} else {
					if cold.res.Cached {
						t.Fatalf("%s cold: served from a purged cache", label)
					}
					conformCompare(t, label+" cold", cold, coldAudit, g)
					recovered++
				}

				if cold.err == nil {
					ok++
				}

				sys.AuditLog().Reset()
				warm := runConform(t, label+" warm", sys, tpch.Queries[name])
				warmAudit := sys.AuditLog().String()
				if cell.observed {
					conformAccount(t, label+" warm", &slow, warm)
				}
				if warm.err == nil {
					ok++
				}
				if cached && cold.err == nil {
					// The cold run filled the cache; the warm run must be a
					// hit regardless of the fault plan (hits do not touch
					// the WAN) and byte-identical to the cold run.
					if warm.err != nil {
						t.Fatalf("%s warm: cache-backed rerun failed: %v", label, warm.err)
					}
					if !warm.res.Cached {
						t.Fatalf("%s warm: not served from cache", label)
					}
					if warm.res.ShippedBytes != cold.res.ShippedBytes ||
						warm.res.ShipCost != cold.res.ShipCost ||
						warm.res.Retries != cold.res.Retries {
						t.Fatalf("%s warm: replayed stats diverge from the filling run:\nwarm %+v\ncold %+v",
							label, warm.res, cold.res)
					}
					conformCompare(t, label+" warm", warm, warmAudit, g)
					warmHits++
					continue
				}
				// Cache disabled (or the cold run failed before filling):
				// the second run is an independent execution under the same
				// contract.
				if warm.err != nil {
					var se *network.ShipError
					if !errors.As(warm.err, &se) {
						t.Fatalf("%s warm: untyped error: %v", label, warm.err)
					}
					failed++
					continue
				}
				if !cached && warm.res.Cached {
					t.Fatalf("%s warm: cache hit with the cache disabled", label)
				}
				conformCompare(t, label+" warm", warm, warmAudit, g)
				recovered++
			}
		}
		cl.SetFaults(nil)
		if cell.observed {
			if n := sys.Metrics().CounterValue("cgdqp_queries_total", "status", "ok"); n != int64(ok) {
				t.Errorf("observed cell counted %d successful queries, ran %d", n, ok)
			}
		}
	}
	if recovered == 0 {
		t.Error("no run exercised the parity comparison")
	}
	if warmHits == 0 {
		t.Error("no warm run was served from the cache")
	}
	if len(seeds) > 2 && failed == 0 {
		t.Error("no faulted run failed; fault rates too low to mean anything")
	}
	t.Logf("conformance: %d compared runs, %d warm cache hits, %d typed failures", recovered, warmHits, failed)
}

// newStoreConformSystem builds a fully loaded TPC-H system for one cell
// of the pager axis: dataDir "" keeps the pages in memory, anything
// else puts them in files under that directory. Every cell — including
// the memory-pager reference — declares the same B+ tree indexes so
// index access paths (IndexScan, IndexLookupJoin) are planned
// identically on both pagers.
func newStoreConformSystem(t *testing.T, dataDir string) *System {
	t.Helper()
	opts := Options{Audit: true, DataDir: dataDir}
	sys := NewSystemWith(opts)
	sys.Schema = tpch.NewCatalog(0.001)
	for _, tab := range sys.Schema.Tables() {
		sys.MustAddPolicy("ship * from " + tab.Name + " to *")
	}
	sys.MustDefineIndex("customer", "custkey")
	sys.MustDefineIndex("orders", "custkey", "orderdate")
	sys.MustDefineIndex("lineitem", "orderkey")
	if err := tpch.Generate(sys.Schema, sys.Cluster()); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestConformanceStoreAxis extends the conformance matrix along the
// pager axis: every golden TPC-H query runs with its pages on the file
// pager (a DataDir) across chaos seeds and must be byte-identical —
// shipping statistics, audit log — to a memory-pager run over the same
// data and the same declared indexes, with the reference evaluator's
// rows. The pager must be invisible to every
// layer above it: plan choice, shipping, compliance accounting.
func TestConformanceStoreAxis(t *testing.T) {
	names := tpch.QueryNames()

	ref := newStoreConformSystem(t, "")
	goldens := map[string]*conformGolden{}
	for _, name := range names {
		goldens[name] = newConformGolden(t, ref, "memory-pager reference/"+name, tpch.Queries[name])
	}

	seeds := []int64{0, 3, 5}
	if testing.Short() {
		seeds = seeds[:1]
	}
	retry := network.RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: 20 * time.Microsecond,
		MaxBackoff:  160 * time.Microsecond,
		Multiplier:  2,
		JitterFrac:  0.2,
	}
	compared := 0
	dir := t.TempDir()
	sys := newStoreConformSystem(t, dir)
	if pages, _ := filepath.Glob(filepath.Join(dir, "*", "*.tbl")); len(pages) == 0 {
		t.Fatal("pager axis cell wrote no page files")
	}
	cl := sys.Cluster()
	for _, seed := range seeds {
		if seed == 0 {
			cl.SetFaults(nil)
		} else {
			cl.SetFaults(NewFaultPlan(seed).SetDefault(EdgeFaults{
				DropProb:      0.08,
				TransientProb: 0.05,
			}))
			cl.SetRetry(retry)
		}
		for _, name := range names {
			label := fmt.Sprintf("file pager seed=%d %s", seed, name)
			sys.AuditLog().Reset()
			out := runConform(t, label, sys, tpch.Queries[name])
			if out.err != nil {
				var se *network.ShipError
				if !errors.As(out.err, &se) {
					t.Fatalf("%s: untyped error: %v", label, out.err)
				}
				continue
			}
			conformCompare(t, label, out, sys.AuditLog().String(), goldens[name])
			compared++
		}
	}
	cl.SetFaults(nil)
	if err := sys.Close(); err != nil {
		t.Fatalf("pager axis close: %v", err)
	}
	if compared == 0 {
		t.Error("no run exercised the pager-axis parity comparison")
	}
	t.Logf("pager axis: %d compared runs", compared)
}

// newFallbackSystem builds a two-site system loaded with NULL-heavy
// data of declared types: every column mixes in NULLs, and the idf and
// vali columns, NULL outside a band in the middle of Events (and a few
// Users rows), hold the other-lane values that fallbackViews swaps in —
// a DOUBLE id, an INTEGER val — so CASE coerces INTEGER values to its
// DOUBLE type in that band only: the regime the null-free TPC-H data
// never reaches.
func newFallbackSystem() *System {
	sys := NewSystemWith(Options{Audit: true})
	sys.MustDefineTable("Users", "db-n", "NorthAmerica", 150,
		Col("id", TInt), Col("name", TString), Col("idf", TFloat))
	sys.MustDefineTable("Events", "db-e", "Europe", 2600,
		Col("id", TInt), Col("grp", TString), Col("val", TFloat),
		Col("qty", TInt), Col("note", TString), Col("idf", TFloat), Col("vali", TInt))
	sys.MustAddPolicy("ship * from Users to *")
	sys.MustAddPolicy("ship * from Events to *")

	var uRows []Row
	for i := 0; i < 150; i++ {
		id, idf := Int(int64(i%97)), Null()
		switch {
		case i%10 == 0:
			id = Null()
		case i%19 == 0:
			idf = Float(float64(i % 97)) // float in the int lane
		}
		name := String(fmt.Sprintf("user-%03d", i%60))
		if i%8 == 0 {
			name = Null()
		}
		uRows = append(uRows, Row{id, name, idf})
	}
	notes := []string{"", "abc", "abcabc", "xbry", "zzz", "BRASS"}
	var eRows []Row
	for i := 0; i < 2600; i++ {
		mixed := i >= 900 && i < 1700 // middle chunks demote, outer ones stay columnar
		id, idf := Int(int64(i%97)), Null()
		switch {
		case i%11 == 0:
			id = Null()
		case mixed && i%13 == 0:
			idf = Float(float64(i % 97))
		}
		grp := String(fmt.Sprintf("g-%02d", i%23))
		if i%7 == 0 {
			grp = Null()
		}
		val, vali := Float(float64(i%50)/4), Null()
		switch {
		case i%5 == 0:
			val = Null()
		case mixed && i%17 == 0:
			vali = Int(int64(i % 50)) // int in the float lane
		}
		qty := Int(int64(i%9 - 4))
		if i%6 == 0 {
			qty = Null()
		}
		note := String(notes[i%len(notes)])
		if i%9 == 0 {
			note = Null()
		}
		eRows = append(eRows, Row{id, grp, val, qty, note, idf, vali})
	}
	sys.MustLoad("Users", uRows)
	sys.MustLoad("Events", eRows)
	return sys
}

// fallbackViews are the derived tables the fallback queries read: Users
// and Events with the idf and vali values swapped in where they are
// set, so the id and val columns mix lanes in the middle band.
const (
	fallbackUsers = `(SELECT CASE WHEN U0.idf IS NULL THEN U0.id ELSE U0.idf END AS id, U0.name AS name
		FROM Users U0) U`
	fallbackEvents = `(SELECT CASE WHEN E0.idf IS NULL THEN E0.id ELSE E0.idf END AS id, E0.grp AS grp,
		CASE WHEN E0.vali IS NULL THEN E0.val ELSE E0.vali END AS val, E0.qty AS qty, E0.note AS note
		FROM Events E0) E`
)

// TestConformanceFallbackParity pins the shapes where the engine's
// mechanisms meet their edge cases: NULL-heavy data, computed columns
// that coerce INTEGER to DOUBLE mid-stream, NULL join keys and group
// keys, aggregates over coerced lanes, a join fed directly by a partial
// aggregate, grouping on date arithmetic, and a CASE with no common type,
// which both the engine and the reference refuse at bind. Every run must
// match the reference byte for byte — rows, shipping statistics and the
// audit log — fault-free and under chaos seeds.
func TestConformanceFallbackParity(t *testing.T) {
	queries := []struct{ name, sql string }{
		{"filter-project", `SELECT E.id, E.val * 2 + 1 AS v, E.note FROM ` + fallbackEvents + `
			WHERE E.val > 3 AND E.note LIKE '%b%' ORDER BY E.id, v, E.note`},
		{"join-residual", `SELECT U.name, E.val FROM ` + fallbackUsers + `, ` + fallbackEvents + `
			WHERE U.id = E.id AND U.name > E.note ORDER BY U.name, E.val`},
		{"group-agg", `SELECT E.grp, SUM(E.val) AS s, COUNT(*) AS n, MIN(E.qty) AS lo,
			MAX(E.note) AS hi, AVG(E.val) AS a
			FROM ` + fallbackEvents + ` GROUP BY E.grp ORDER BY E.grp`},
		{"join-agg-limit", `SELECT U.name, SUM(E.val) AS s, COUNT(*) AS n FROM ` + fallbackUsers + `, ` + fallbackEvents + `
			WHERE U.id = E.id GROUP BY U.name ORDER BY U.name LIMIT 40`},
		{"join-over-partial-agg", `SELECT t.g, COUNT(*) AS n FROM (SELECT E0.qty AS g FROM Events E0) t, Users b
			WHERE t.g = b.id GROUP BY t.g`},
		{"group-by-date-arith", `SELECT DATE '1995-01-01' + E.qty AS d, COUNT(*) AS n, SUM(E.val) AS s
			FROM Events E GROUP BY DATE '1995-01-01' + E.qty`},
	}

	ref := newFallbackSystem()
	goldens := map[string]*conformGolden{}
	for _, q := range queries {
		goldens[q.name] = newConformGolden(t, ref, "reference/"+q.name, q.sql)
		if len(goldens[q.name].rows) == 0 {
			t.Fatalf("reference %s: empty result exercises nothing", q.name)
		}
	}
	mixedCase := `SELECT CASE WHEN E.qty > 0 THEN E.note ELSE E.qty END AS x FROM Events E`
	if _, err := ref.Query(mixedCase); !errors.Is(err, ErrIncomparable) {
		t.Errorf("a CASE of strings and integers: engine error %v, want ErrIncomparable", err)
	}
	if _, err := refeval.Query(mixedCase, ref.Schema, ref.Cluster()); !errors.Is(err, ErrIncomparable) {
		t.Errorf("a CASE of strings and integers: reference error %v, want ErrIncomparable", err)
	}

	seeds := []int64{0, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	retry := network.RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: 20 * time.Microsecond,
		MaxBackoff:  160 * time.Microsecond,
		Multiplier:  2,
		JitterFrac:  0.2,
	}
	compared := 0
	sys := newFallbackSystem()
	cl := sys.Cluster()
	for _, seed := range seeds {
		if seed == 0 {
			cl.SetFaults(nil)
		} else {
			cl.SetFaults(NewFaultPlan(seed).SetDefault(EdgeFaults{
				DropProb:      0.08,
				TransientProb: 0.05,
			}))
			cl.SetRetry(retry)
		}
		for _, q := range queries {
			label := fmt.Sprintf("seed=%d %s", seed, q.name)
			sys.AuditLog().Reset()
			out := runConform(t, label, sys, q.sql)
			if out.err != nil {
				var se *network.ShipError
				if !errors.As(out.err, &se) {
					t.Fatalf("%s: untyped error: %v", label, out.err)
				}
				continue
			}
			conformCompare(t, label, out, sys.AuditLog().String(), goldens[q.name])
			compared++
		}
	}
	cl.SetFaults(nil)
	if compared == 0 {
		t.Error("no run exercised the fallback parity comparison")
	}
	t.Logf("fallback parity: %d compared runs", compared)
}

// TestConformancePolicySets: under each of the four policy sets the
// compliance rewrites change plans, never answers — every golden TPC-H
// query the optimizer can place returns the reference evaluator's rows.
func TestConformancePolicySets(t *testing.T) {
	for _, set := range []workload.SetName{workload.SetT, workload.SetC, workload.SetCR, workload.SetCRA} {
		sys := NewSystemWith(Options{})
		sys.Schema = tpch.NewCatalog(0.001)
		pc := workload.TPCHSet(set)
		for _, db := range pc.Databases() {
			for _, e := range pc.ForDB(db) {
				sys.MustAddPolicy(e.String())
			}
		}
		if err := tpch.Generate(sys.Schema, sys.Cluster()); err != nil {
			t.Fatal(err)
		}
		for _, name := range tpch.QueryNames() {
			res, err := sys.Query(tpch.Queries[name])
			if errors.Is(err, ErrNoCompliantPlan) {
				continue
			}
			if err != nil {
				t.Fatalf("%s %s: %v", set, name, err)
			}
			want, err := refeval.Query(tpch.Queries[name], sys.Schema, sys.Cluster())
			if err != nil {
				t.Fatalf("%s %s: reference: %v", set, name, err)
			}
			if got, want := renderRows(res.Rows), renderRows(want); !slices.Equal(got, want) {
				t.Errorf("%s %s: %d rows differ from the reference's %d:\n%v\n%v", set, name, len(got), len(want), got, want)
			}
		}
	}
}
