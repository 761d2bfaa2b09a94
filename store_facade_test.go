package cgdqp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// These tests pin the public surface of the persistent storage engine:
// the optimizer plans B+ tree access paths (IndexScan, IndexLookupJoin)
// from declared indexes, plan choice and results are identical across
// the storage backends, and a persistent system reopened over its data
// directory recovers every row without reloading.

// newIndexedSystem builds a single-site system with a 50k-row fact
// table (B+ tree on key) and a 100-row dim table, identical data on
// either backend (dataDir "" = in-memory).
func newIndexedSystem(t *testing.T, dataDir string) *System {
	t.Helper()
	sys := NewSystemWith(Options{DataDir: dataDir})
	sys.MustDefineTable("fact", "db-e", "Europe", 50_000,
		Col("key", TInt), Col("val", TFloat), Col("tag", TString))
	sys.MustDefineTable("dim", "db-e", "Europe", 100,
		Col("fk", TInt), Col("name", TString))
	sys.MustDefineIndex("fact", "key")
	sys.MustAddPolicy("ship * from fact to *")
	sys.MustAddPolicy("ship * from dim to *")
	if err := sys.SetColumnStats("fact", "key", 50_000, Int(0), Int(49_999)); err != nil {
		t.Fatal(err)
	}

	facts := make([]Row, 0, 50_000)
	for i := 0; i < 50_000; i++ {
		facts = append(facts, Row{
			Int(int64(i)),
			Float(float64(i%977) / 4),
			String(fmt.Sprintf("t-%04d", i%4096)),
		})
	}
	sys.MustLoad("fact", facts)
	dims := make([]Row, 0, 100)
	for i := 0; i < 100; i++ {
		dims = append(dims, Row{Int(int64(i * 500)), String(fmt.Sprintf("d-%03d", i))})
	}
	sys.MustLoad("dim", dims)
	return sys
}

// TestIndexAccessPathsPlanned asserts the optimizer turns declared
// indexes into physical access paths — a range predicate on the indexed
// column becomes an IndexScan, an equi-join into the indexed table
// becomes an IndexLookupJoin — and that plan choice and results are
// byte-identical across the in-memory and persistent backends (costing
// depends on the configured pool budget, never on which backend runs).
func TestIndexAccessPathsPlanned(t *testing.T) {
	queries := []struct {
		name, sql, operator string
	}{
		{"range", `SELECT F.key, F.val FROM fact F WHERE F.key >= 1000 AND F.key < 1100 ORDER BY F.key`,
			"IndexScan"},
		// The join references every fact column: the inner side stays a
		// bare scan (no pruning Project), the shape the index-lookup-join
		// alternative matches.
		{"lookup-join", `SELECT D.name, F.key, F.val, F.tag FROM dim D, fact F WHERE D.fk = F.key ORDER BY D.name`,
			"IndexLookupJoin"},
	}

	mem := newIndexedSystem(t, "")
	per := newIndexedSystem(t, t.TempDir())
	defer per.Close()

	for _, q := range queries {
		memPlan, err := mem.Explain(q.sql)
		if err != nil {
			t.Fatalf("%s: explain (mem): %v", q.name, err)
		}
		perPlan, err := per.Explain(q.sql)
		if err != nil {
			t.Fatalf("%s: explain (persistent): %v", q.name, err)
		}
		memText, perText := memPlan.Root.Format(true), perPlan.Root.Format(true)
		if !strings.Contains(memText, q.operator) {
			t.Errorf("%s: optimizer did not plan %s:\n%s", q.name, q.operator, memText)
		}
		if memText != perText {
			t.Errorf("%s: plan choice depends on the storage backend:\n--- in-memory ---\n%s\n--- persistent ---\n%s",
				q.name, memText, perText)
		}

		memRes, err := mem.Query(q.sql)
		if err != nil {
			t.Fatalf("%s: query (mem): %v", q.name, err)
		}
		perRes, err := per.Query(q.sql)
		if err != nil {
			t.Fatalf("%s: query (persistent): %v", q.name, err)
		}
		a, b := renderRows(memRes.Rows), renderRows(perRes.Rows)
		if len(a) == 0 {
			t.Fatalf("%s: empty result exercises nothing", q.name)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: %d rows (mem) vs %d (persistent)", q.name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: row %d differs across backends:\nmem        %s\npersistent %s", q.name, i, a[i], b[i])
			}
		}
		if memRes.ShippedBytes != perRes.ShippedBytes || memRes.ShipCost != perRes.ShipCost {
			t.Errorf("%s: shipping stats differ across backends: mem (%d, %v) vs persistent (%d, %v)",
				q.name, memRes.ShippedBytes, memRes.ShipCost, perRes.ShippedBytes, perRes.ShipCost)
		}
	}
}

// TestPersistentReopen pins the facade's durability loop: a system
// closed cleanly and reopened over the same data directory reports its
// tables Loaded, serves byte-identical query results without any
// reload, accepts further appends, and keeps those appends across
// another reopen. The store gauges must surface in the metrics registry
// after a query on a persistent system.
func TestPersistentReopen(t *testing.T) {
	dir := t.TempDir()
	const q = `SELECT F.key, F.val FROM fact F WHERE F.key < 40 ORDER BY F.key`

	build := func() *System {
		sys := NewSystemWith(Options{DataDir: dir, Metrics: true})
		sys.MustDefineTable("fact", "db-e", "Europe", 5_000,
			Col("key", TInt), Col("val", TFloat))
		sys.MustDefineIndex("fact", "key")
		sys.MustAddPolicy("ship * from fact to *")
		if err := sys.Open(); err != nil {
			t.Fatal(err)
		}
		return sys
	}

	sys1 := build()
	if sys1.Loaded("fact") {
		t.Fatal("fresh directory reports fact loaded")
	}
	rows := make([]Row, 0, 5_000)
	for i := 0; i < 5_000; i++ {
		rows = append(rows, Row{Int(int64(i)), Float(float64(i) / 8)})
	}
	sys1.MustLoad("fact", rows)
	res1, err := sys1.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Rows) != 40 {
		t.Fatalf("first run: %d rows, want 40", len(res1.Rows))
	}
	if err := sys1.Close(); err != nil {
		t.Fatal(err)
	}

	sys2 := build()
	if !sys2.Loaded("fact") {
		t.Fatal("reopened directory does not report fact loaded")
	}
	res2, err := sys2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	a, b := renderRows(res1.Rows), renderRows(res2.Rows)
	if len(a) != len(b) {
		t.Fatalf("reopen: %d rows, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reopen: row %d differs:\nbefore %s\nafter  %s", i, a[i], b[i])
		}
	}
	var buf bytes.Buffer
	if err := sys2.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"cgdqp_store_pool_hits", "cgdqp_store_pool_misses", "cgdqp_store_pool_resident"} {
		if !strings.Contains(buf.String(), g) {
			t.Errorf("metrics: gauge %s missing after a persistent query", g)
		}
	}

	// Appends after reopen are accepted and survive another reopen.
	if err := sys2.Load("fact", []Row{{Int(-5), Float(1)}, {Int(-4), Float(2)}}); err != nil {
		t.Fatal(err)
	}
	res2b, err := sys2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2b.Rows) != 42 {
		t.Fatalf("after append: %d rows, want 42", len(res2b.Rows))
	}
	if err := sys2.Close(); err != nil {
		t.Fatal(err)
	}

	sys3 := build()
	res3, err := sys3.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Rows) != 42 {
		t.Fatalf("second reopen: %d rows, want 42 (append lost)", len(res3.Rows))
	}
	if err := sys3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenConfiguresCluster: a cluster created by an explicit Open is
// wired to the system's sinks and fault plan exactly as a lazily
// created one is.
func TestOpenConfiguresCluster(t *testing.T) {
	faults := NewFaultPlan(7)
	sys := NewSystemWith(Options{Metrics: true, Faults: faults})
	sys.MustDefineTable("a", "db-e", "Europe", 2, Col("k", TInt))
	sys.MustDefineTable("b", "db-a", "Asia", 2, Col("k", TInt))
	sys.MustAddPolicy("ship * from a to *")
	sys.MustAddPolicy("ship * from b to *")
	if err := sys.Open(); err != nil {
		t.Fatal(err)
	}
	sys.MustLoad("a", []Row{{Int(1)}, {Int(2)}})
	sys.MustLoad("b", []Row{{Int(2)}, {Int(3)}})
	if _, err := sys.Query("SELECT a.k FROM a, b WHERE a.k = b.k"); err != nil {
		t.Fatal(err)
	}
	if sys.Cluster().Faults() != faults {
		t.Error("fault plan not installed on an explicitly opened cluster")
	}
	var metrics bytes.Buffer
	if err := sys.Metrics().WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics.String(), "cgdqp_ship_batches_total") {
		t.Error("shipments of an explicitly opened cluster were not counted")
	}
}
