package cgdqp

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cgdqp/internal/cluster"
	"cgdqp/internal/executor"
	"cgdqp/internal/expr"
	"cgdqp/internal/plan"
	"cgdqp/internal/schema"
	"cgdqp/internal/store"
)

// These tests pin the public surface of the storage engine: the
// optimizer plans B+ tree access paths (IndexScan, IndexLookupJoin)
// from declared indexes, plan choice and results are identical across
// the memory and file pagers, and a persistent system reopened over its
// data directory recovers every row without reloading.

// newIndexedSystem builds a single-site system with a 50k-row fact
// table (B+ tree on key) and a 100-row dim table, identical data on
// either pager (dataDir "" = memory).
func newIndexedSystem(t *testing.T, dataDir string) *System {
	t.Helper()
	sys := defineIndexed(t, dataDir)

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

// defineIndexed declares newIndexedSystem's tables, index and policies
// without loading any rows.
func defineIndexed(t *testing.T, dataDir string) *System {
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
	return sys
}

// TestIndexRangeReadsFewerPages is the index access path's floor,
// counted rather than timed: on a reopened persistent store, a
// 0.1%-selectivity range over the B+ tree key returns the same rows as
// a filtered full scan with at least 10x fewer buffer-pool page
// requests. Over keys loaded shuffled, as lineitem's orderkeys are, the
// range pins each page holding a match about once — at most once per
// batch — rather than once per matched row, and still returns the
// filtered scan's rows in the same order.
func TestIndexRangeReadsFewerPages(t *testing.T) {
	dir := t.TempDir()
	if err := newIndexedSystem(t, dir).Close(); err != nil {
		t.Fatal(err)
	}
	sys := defineIndexed(t, dir)
	if err := sys.Open(); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if !sys.Loaded("fact") {
		t.Fatal("reopened store lost its rows")
	}
	cl := sys.Cluster()
	fact, _ := sys.Schema.Table("fact")
	scanPages, idxPages := rangePageRequests(t, cl, fact, 25_000, 25_050, 50) // 50 of 50k rows
	if idxPages == 0 || scanPages < 10*idxPages {
		t.Errorf("index range requested %d pages, full scan %d: want at least 10x fewer", idxPages, scanPages)
	}
	t.Logf("page requests: full scan %d, index range %d", scanPages, idxPages)

	shuf := NewSystemWith(Options{})
	defer shuf.Close()
	shuf.MustDefineTable("shuf", "db-e", "Europe", 20_000, Col("key", TInt), Col("val", TFloat))
	shuf.MustDefineIndex("shuf", "key")
	rows := make([]Row, 0, 20_000)
	for _, k := range rand.New(rand.NewSource(7)).Perm(20_000) {
		rows = append(rows, Row{Int(int64(k)), Float(float64(k) / 4)})
	}
	shuf.MustLoad("shuf", rows)
	tab, _ := shuf.Schema.Table("shuf")
	const lo, hi = 5_000, 7_000
	holding, batches := 0, (hi-lo+executor.BatchSize-1)/executor.BatchSize
	it, _, err := shuf.Cluster().FragmentBatches(tab, 0)
	if err != nil {
		t.Fatal(err)
	}
	for {
		var page expr.Batch
		more, err := it.NextBatch(&page)
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		for i := 0; i < page.Len(); i++ {
			if k := page.RowValue(i, 0).I; k >= lo && k < hi {
				holding++
				break
			}
		}
	}
	_, idxPages = rangePageRequests(t, shuf.Cluster(), tab, lo, hi, hi-lo)
	if idxPages > int64(holding+batches) {
		t.Errorf("shuffled keys: index range requested %d pages; %d pages hold its %d rows, in %d batches", idxPages, holding, hi-lo, batches)
	}
	t.Logf("shuffled keys: index range requested %d pages, %d hold matches", idxPages, holding)
}

// rangePageRequests runs [lo, hi) over tab's indexed key column as a
// filtered full scan and as an IndexScan, requires both to return the
// same want rows in the same order, and returns each one's buffer-pool
// page requests.
func rangePageRequests(t *testing.T, cl *cluster.Cluster, tab *schema.Table, lo, hi int64, want int) (scanPages, idxPages int64) {
	t.Helper()
	l, h := Int(lo), Int(hi)
	rangePred := func() expr.Expr {
		return expr.NewAnd(
			expr.NewCmp(expr.GE, expr.NewCol("F", "key"), expr.NewConst(l)),
			expr.NewCmp(expr.LT, expr.NewCol("F", "key"), expr.NewConst(h)))
	}
	fullScan := plan.NewFilter(plan.NewScan(tab, "F", 0), rangePred())
	indexRange := plan.NewScan(tab, "F", 0)
	indexRange.Kind = plan.IndexScan
	indexRange.Pred = rangePred()
	indexRange.IdxCol = "key"
	indexRange.IdxLo, indexRange.IdxHi = &l, &h
	indexRange.IdxLoInc = true

	run := func(root *plan.Node) (pages int64, rows []string) {
		t.Helper()
		before := cl.StoreStats()
		out, _, err := executor.Run(root, cl)
		if err != nil {
			t.Fatal(err)
		}
		after := cl.StoreStats()
		return after.Hits + after.Misses - before.Hits - before.Misses, renderRows(out)
	}
	scanPages, scanRows := run(fullScan)
	idxPages, idxRows := run(indexRange)
	if len(scanRows) != want || strings.Join(scanRows, "\n") != strings.Join(idxRows, "\n") {
		t.Fatalf("index range returned %d rows, full scan %d; want the same %d in the same order", len(idxRows), len(scanRows), want)
	}
	return scanPages, idxPages
}

// TestIndexAccessPathsPlanned asserts the optimizer turns declared
// indexes into physical access paths — a range predicate on the indexed
// column becomes an IndexScan, an equi-join into the indexed table
// becomes an IndexLookupJoin — and that plan choice and results are
// byte-identical across the memory and file pagers (costing depends on
// the configured pool budget, never on which pager runs).
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
	for _, g := range []string{"cgdqp_store_pool_hits", "cgdqp_store_pool_misses", "cgdqp_store_pool_resident", "cgdqp_store_pool_decode_hits"} {
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
	faults := NewFaultPlan(7).SetDefault(EdgeFaults{Partitioned: true})
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
	if _, err := sys.Query("SELECT a.k FROM a, b WHERE a.k = b.k"); !errors.Is(err, ErrPartitioned) {
		t.Errorf("query over a partitioned WAN: err = %v, want ErrPartitioned (fault plan not installed on an explicitly opened cluster)", err)
	}
	var metrics bytes.Buffer
	if err := sys.Metrics().WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics.String(), "cgdqp_ship_faults_total") {
		t.Error("faults of an explicitly opened cluster were not counted")
	}
}

// TestIndexReadOfCorruptPageFails: a flipped byte in a page file under
// an IndexScan and under an IndexLookupJoin fails the query with the
// checksum error instead of reporting the index unusable and falling
// back to a scan.
func TestIndexReadOfCorruptPageFails(t *testing.T) {
	dir := t.TempDir()
	sys := NewSystemWith(Options{DataDir: dir, BufferPoolBytes: 2 * store.PageSize})
	sys.MustDefineTable("fact", "db-e", "Europe", 5_000, Col("key", TInt), Col("val", TFloat), Col("tag", TString))
	sys.MustDefineTable("dim", "db-e", "Europe", 100, Col("fk", TInt), Col("name", TString))
	sys.MustDefineIndex("fact", "key")
	sys.MustAddPolicy("ship * from fact to *")
	sys.MustAddPolicy("ship * from dim to *")
	if err := sys.SetColumnStats("fact", "key", 5_000, Int(0), Int(4_999)); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	facts := make([]Row, 0, 5_000)
	for i := 0; i < 5_000; i++ {
		facts = append(facts, Row{Int(int64(i)), Float(float64(i) / 4), String(fmt.Sprintf("t-%04d", i))})
	}
	sys.MustLoad("fact", facts)
	dims := make([]Row, 0, 100)
	for i := 0; i < 100; i++ {
		dims = append(dims, Row{Int(int64(i * 50)), String(fmt.Sprintf("d-%03d", i))})
	}
	sys.MustLoad("dim", dims)

	// The pool holds two frames, so all but the last pages the load
	// touched are only on disk: flip one byte in every page.
	path := filepath.Join(dir, "Europe", "fact.tbl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := store.PageSize / 2; off < len(data); off += store.PageSize {
		data[off] ^= 0x5a
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	fact, _ := sys.Schema.Table("fact")
	lo, hi := Int(1000), Int(1100)
	if _, _, err := sys.Cluster().IndexRangeRows(fact, 0, "key", &lo, &hi, true, false); err == nil {
		t.Error("index range over a corrupt page: no error")
	}
	if _, _, err := sys.Cluster().IndexLookupRows(fact, 0, "key", Int(1000)); err == nil {
		t.Error("index lookup on a corrupt page: no error")
	}
	for _, q := range []struct{ sql, operator string }{
		{`SELECT F.key, F.val FROM fact F WHERE F.key >= 1000 AND F.key < 1100`, "IndexScan"},
		{`SELECT D.name, F.key, F.val, F.tag FROM dim D, fact F WHERE D.fk = F.key`, "IndexLookupJoin"},
	} {
		p, err := sys.Explain(q.sql)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(p.Root.Format(true), q.operator) {
			t.Fatalf("%s not planned:\n%s", q.operator, p.Root.Format(true))
		}
		if res, err := sys.Query(q.sql); err == nil {
			t.Errorf("%s over a corrupt page returned %d rows, want a checksum error", q.operator, len(res.Rows))
		} else if !strings.Contains(err.Error(), "checksum") {
			t.Errorf("%s over a corrupt page: %v, want a checksum error", q.operator, err)
		}
	}
}

// TestLoadRefusesBadRows: a row of the wrong width, or one whose
// encoding is wider than a page, is refused by Load with or without a
// DataDir, and the table stays empty.
func TestLoadRefusesBadRows(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		sys := NewSystemWith(Options{DataDir: dir})
		sys.MustDefineTable("t", "db-e", "Europe", 1, Col("k", TInt), Col("s", TString))
		for _, row := range []Row{{Int(1)}, {Int(1), String(strings.Repeat("x", store.PageSize))}} {
			if err := sys.Load("t", []Row{row}); err == nil {
				t.Errorf("DataDir %q: Load accepted a %d-column row of %d string bytes", dir, len(row), len(row[len(row)-1].S))
			}
		}
		if sys.Loaded("t") {
			t.Errorf("DataDir %q: a refused load left rows behind", dir)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
