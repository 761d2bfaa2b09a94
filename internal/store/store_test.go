package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cgdqp/internal/expr"
	"cgdqp/internal/leakcheck"
)

// No test may leave a goroutine of the engine running.
func TestMain(m *testing.M) { leakcheck.Main(m) }

func openTestEngine(t *testing.T, dir string, poolBytes int64) *Engine {
	t.Helper()
	e, err := Open(Options{Dir: dir, BufferPoolBytes: poolBytes})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Release crash-style, so a test that leaves its engine open on
	// purpose keeps its pages dirty until it ends; after Close this
	// finds nothing left to release.
	t.Cleanup(func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		e.release(false)
	})
	return e
}

func intRow(vals ...int64) expr.Row {
	r := make(expr.Row, len(vals))
	for i, v := range vals {
		r[i] = expr.NewInt(v)
	}
	return r
}

// mixedRows exercises every type plus typed NULLs.
func mixedRows(n int) []expr.Row {
	rows := make([]expr.Row, n)
	for i := 0; i < n; i++ {
		r := expr.Row{
			expr.NewInt(int64(i)),
			expr.NewFloat(float64(i) * 1.5),
			expr.NewString(string(rune('a' + i%26))),
			expr.NewBool(i%2 == 0),
			expr.NewDate(int64(10000 + i)),
		}
		if i%7 == 3 {
			r[1] = expr.TypedNull(expr.TFloat)
		}
		rows[i] = r
	}
	return rows
}

var mixedCols = []string{"id", "amount", "tag", "flag", "day"}
var mixedTypes = []expr.Type{expr.TInt, expr.TFloat, expr.TString, expr.TBool, expr.TDate}

func TestAppendScanRoundTrip(t *testing.T) {
	e := openTestEngine(t, t.TempDir(), 0)
	defer e.Close()
	tab, err := e.CreateTable("demo", mixedCols, mixedTypes, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Enough rows to span several pages.
	want := mixedRows(5000)
	if err := tab.Append(want[:1200]); err != nil {
		t.Fatal(err)
	}
	if err := tab.Append(want[1200:]); err != nil {
		t.Fatal(err)
	}
	if got := tab.RowCount(); got != 5000 {
		t.Fatalf("RowCount = %d, want 5000", got)
	}
	got, err := tab.ScanRows()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch (%d rows back)", len(got))
	}
}

func TestIteratorColumnarDecode(t *testing.T) {
	e := openTestEngine(t, t.TempDir(), 0)
	defer e.Close()
	tab, err := e.CreateTable("demo", mixedCols, mixedTypes, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := mixedRows(3000)
	if err := tab.Append(want); err != nil {
		t.Fatal(err)
	}
	it := tab.NewIterator()
	var b expr.Batch
	var got []expr.Row
	for {
		more, err := it.NextBatch(&b)
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		got = append(got, b.Rows()...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("iterator mismatch: got %d rows", len(got))
	}
}

// indexRange reads the rows of tab whose indexed column falls in
// [lo, hi] through a Gather; ok is false without a usable index.
func indexRange(tab *Table, col string, lo, hi *expr.Value, loInc, hiInc bool) ([]expr.Row, bool, error) {
	g := tab.NewGather(nil)
	if !g.Range(col, lo, hi, loInc, hiInc) {
		return nil, false, nil
	}
	rows, err := g.Rows()
	return rows, err == nil, err
}

// indexLookup reads the rows of tab whose indexed column equals key.
func indexLookup(tab *Table, col string, key expr.Value) ([]expr.Row, bool, error) {
	g := tab.NewGather(nil)
	if _, ok := g.Lookup(col, []expr.Value{key}); !ok {
		return nil, false, nil
	}
	rows, err := g.Rows()
	return rows, err == nil, err
}

func TestIndexRangeAndLookup(t *testing.T) {
	e := openTestEngine(t, t.TempDir(), 0)
	defer e.Close()
	tab, err := e.CreateTable("demo", []string{"k", "s", "v"},
		[]expr.Type{expr.TInt, expr.TString, expr.TInt}, []string{"k", "s"})
	if err != nil {
		t.Fatal(err)
	}
	var rows []expr.Row
	for i := 0; i < 500; i++ {
		rows = append(rows, expr.Row{
			expr.NewInt(int64(i % 50)), // duplicate keys, insertion order ties
			expr.NewString(string(rune('a' + i%10))),
			expr.NewInt(int64(i)),
		})
	}
	if err := tab.Append(rows); err != nil {
		t.Fatal(err)
	}
	lo, hi := expr.NewInt(10), expr.NewInt(12)
	got, ok, _ := indexRange(tab, "k", &lo, &hi, true, false)
	if !ok {
		t.Fatal("index range on k failed")
	}
	var want []expr.Row // index reads come in row-ID (insertion) order
	for _, r := range rows {
		if r[0].I >= 10 && r[0].I < 12 {
			want = append(want, r)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("range rows: got %d want %d", len(got), len(want))
	}
	sGot, ok, _ := indexLookup(tab, "s", expr.NewString("c"))
	if !ok {
		t.Fatal("index lookup on s failed")
	}
	var sWant []expr.Row
	for _, r := range rows {
		if r[1].S == "c" {
			sWant = append(sWant, r)
		}
	}
	if !reflect.DeepEqual(sGot, sWant) {
		t.Fatalf("lookup rows: got %d want %d", len(sGot), len(sWant))
	}
	if _, ok, _ := indexRange(tab, "v", &lo, &hi, true, true); ok {
		t.Fatal("unindexed column must report no index")
	}
	min, max, distinct, ok := tab.IndexStats("k")
	if !ok || min.I != 0 || max.I != 49 || distinct != 50 {
		t.Fatalf("IndexStats(k) = %v %v %d %v", min, max, distinct, ok)
	}
}

func TestBufferPoolEvictionAndStats(t *testing.T) {
	dir := t.TempDir()
	// Budget of 4 pages forces eviction + dirty writebacks on a table
	// that spans many pages.
	e := openTestEngine(t, dir, 4*PageSize)
	tab, err := e.CreateTable("demo", mixedCols, mixedTypes, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := mixedRows(20000)
	if err := tab.Append(want); err != nil {
		t.Fatal(err)
	}
	got, err := tab.ScanRows()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("scan through a tiny pool lost rows")
	}
	st := e.Stats()
	if st.Misses == 0 || st.Evictions == 0 || st.Writebacks == 0 {
		t.Fatalf("expected pool traffic, got %+v", st)
	}
	// A second scan over a warm... 4-page pool still misses, but a
	// second scan with a big pool should be all hits.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := openTestEngine(t, dir, 0)
	defer e2.Close()
	tab2, _ := e2.Table("demo")
	if _, err := tab2.ScanRows(); err != nil {
		t.Fatal(err)
	}
	before := e2.Stats()
	if _, err := tab2.ScanRows(); err != nil {
		t.Fatal(err)
	}
	after := e2.Stats()
	if after.Misses != before.Misses {
		t.Fatalf("warm scan should not miss: %+v -> %+v", before, after)
	}
	if after.Hits <= before.Hits {
		t.Fatalf("warm scan should hit: %+v -> %+v", before, after)
	}
}

func TestReopenPersistence(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir, 0)
	tab, err := e.CreateTable("demo", []string{"k", "v"},
		[]expr.Type{expr.TInt, expr.TString}, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	var want []expr.Row
	for i := 0; i < 1000; i++ {
		want = append(want, expr.Row{expr.NewInt(int64(i)), expr.NewString("v")})
	}
	if err := tab.Append(want); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := openTestEngine(t, dir, 0)
	defer e2.Close()
	tab2, ok := e2.Table("demo")
	if !ok {
		t.Fatal("table lost on reopen")
	}
	got, err := tab2.ScanRows()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("rows lost on reopen")
	}
	lo := expr.NewInt(500)
	rows, ok, _ := indexRange(tab2, "k", &lo, nil, true, true)
	if !ok || len(rows) != 500 {
		t.Fatalf("index rebuilt wrong: ok=%v n=%d", ok, len(rows))
	}
	// Re-declaring with the same shape returns the existing table;
	// a different shape errors.
	if _, err := e2.CreateTable("demo", []string{"k", "v"},
		[]expr.Type{expr.TInt, expr.TString}, []string{"k"}); err != nil {
		t.Fatalf("same-shape CreateTable on reopen: %v", err)
	}
	if _, err := e2.CreateTable("demo", []string{"x"}, []expr.Type{expr.TInt}, nil); err == nil {
		t.Fatal("shape mismatch must error")
	}
}

func TestWALCheckpointThreshold(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir, 0)
	defer e.Close()
	tab, err := e.CreateTable("demo", []string{"k"}, []expr.Type{expr.TInt}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Append([]expr.Row{intRow(1)}); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 0 {
		t.Fatalf("checkpoint left %d WAL bytes", st.Size())
	}
}

// TestAppendEnforcesColumnTypes: a batch holding a non-NULL value of
// another type than its column's is refused whole with ErrColumnType —
// no row reaches the WAL, the pages or the index — while an untyped
// NULL is stored, and read back, as a NULL of its column's type. A
// page whose lane bytes are not the declared types fails the reopen
// with ErrColumnType instead of being cut off as a torn tail.
func TestAppendEnforcesColumnTypes(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir, 0)
	tab, err := e.CreateTable("demo", []string{"id", "v"}, []expr.Type{expr.TInt, expr.TString}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	good := []expr.Row{{expr.NewInt(1), expr.NewString("a")}, {expr.NullValue(), expr.NewString("b")}}
	if err := tab.Append(good); err != nil {
		t.Fatal(err)
	}
	want := []expr.Row{good[0], {expr.TypedNull(expr.TInt), expr.NewString("b")}}
	bad := []expr.Row{{expr.NewInt(2), expr.NewString("c")}, {expr.NewFloat(77), expr.NewString("d")}}
	err = tab.Append(bad)
	if !errors.Is(err, ErrColumnType) {
		t.Fatalf("ill-typed append: %v, want ErrColumnType", err)
	}
	for _, part := range []string{"demo", "column id", "row 1", "DOUBLE", "INTEGER"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q does not name %q", err, part)
		}
	}
	check := func(tab *Table) {
		t.Helper()
		if got, err := tab.ScanRows(); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("rows after a refused batch: %v, %v; want %v", got, err, want)
		}
		for _, key := range []int64{2, 77} {
			if got, _, err := indexLookup(tab, "id", expr.NewInt(key)); err != nil || len(got) != 0 {
				t.Fatalf("index holds id %d of a refused batch: %v, %v", key, got, err)
			}
		}
	}
	check(tab)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e = openTestEngine(t, dir, 0) // the refused batch left nothing to replay
	tab, _ = e.Table("demo")
	check(tab)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Forge page 0 as an untyped store wrote it, an untyped NULL in
	// column id: lane byte poisoned, checksum valid.
	path := filepath.Join(dir, safeFileName("demo"))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[pageHdrSize] = 0xFF
	sealPage(raw[:PageSize])
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if e, err := Open(Options{Dir: dir}); !errors.Is(err, ErrColumnType) {
		if err == nil {
			e.Close()
		}
		t.Fatalf("reopen over a page of other lanes: %v, want ErrColumnType", err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != int64(len(raw)) {
		t.Fatalf("the refused page file was cut: %v, %v", st, err)
	}
}
