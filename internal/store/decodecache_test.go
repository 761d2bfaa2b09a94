package store

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"cgdqp/internal/expr"
)

// The tests in this file pin the lifetime of a frame's cached decode:
// every batch a scan returns must equal a direct decodePageInto of the
// bytes the frame holds, whether the scan copied the cache or decoded.

// scanChecked drains a scan of tab under need, checks every batch
// against a direct decode of its page's current bytes, and returns the
// number of rows scanned.
func scanChecked(tab *Table, need []bool) (int, error) {
	it := tab.NewIterator()
	it.SetNeeded(need)
	var b, want expr.Batch
	total := 0
	for {
		more, err := it.NextBatch(&b)
		if err != nil || !more {
			return total, err
		}
		pg := it.page - 1
		tab.mu.RLock()
		fr, _, err := tab.eng.pool.Pin(tab.file(), uint32(pg), false)
		if err == nil {
			err = decodePageInto(fr.buf, b.Len(), tab.types, need, &want)
			tab.eng.pool.Unpin(fr, false)
		}
		tab.mu.RUnlock()
		if err != nil {
			return total, fmt.Errorf("direct decode of page %d: %v", pg, err)
		}
		if want.Len() != b.Len() {
			return total, fmt.Errorf("page %d: scan returned %d rows, the page holds %d", pg, b.Len(), want.Len())
		}
		for i := 0; i < b.Len(); i++ {
			for c := range tab.cols {
				if need != nil && !need[c] {
					continue
				}
				if got, w := b.RowValue(i, c), want.RowValue(i, c); got != w {
					return total, fmt.Errorf("page %d row %d col %d: scan %+v, page bytes %+v", pg, i, c, got, w)
				}
			}
		}
		total += b.Len()
	}
}

// cachedDecode returns page pg's frame's cached decode.
func cachedDecode(t *testing.T, tab *Table, pg int) *pageDecode {
	t.Helper()
	fr, _, err := tab.eng.pool.Pin(tab.file(), uint32(pg), false)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.eng.pool.Unpin(fr, false)
	return fr.dec.Load()
}

func mustScan(t *testing.T, tab *Table, need []bool, want int) {
	t.Helper()
	got, err := scanChecked(tab, need)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("scanned %d rows, want %d", got, want)
	}
}

func TestDecodeCacheDroppedOnAppend(t *testing.T) {
	e := openTestEngine(t, t.TempDir(), 0)
	defer e.Close()
	tab, err := e.CreateTable("demo", mixedCols, mixedTypes, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := mixedRows(1510)
	if err := tab.Append(rows[:1500]); err != nil {
		t.Fatal(err)
	}
	mustScan(t, tab, nil, 1500) // resident pages: decoded and cached
	h0 := e.Stats().DecodeHits
	mustScan(t, tab, nil, 1500)
	pages := len(tab.pageStart)
	if got := e.Stats().DecodeHits - h0; got != int64(pages) {
		t.Fatalf("re-scan of %d resident pages served %d from the cache", pages, got)
	}
	if err := tab.Append(rows[1500:]); err != nil {
		t.Fatal(err)
	}
	if d := cachedDecode(t, tab, pages-1); d != nil {
		t.Fatalf("tail page kept a decode of %d rows after an append", d.n)
	}
	mustScan(t, tab, nil, 1510)
	mustScan(t, tab, []bool{true, false, true, false, false}, 1510)
}

func TestDecodeCacheDroppedOnRecycle(t *testing.T) {
	e := openTestEngine(t, t.TempDir(), PageSize) // one frame
	defer e.Close()
	// Two one-page tables of the same shape and row count, different
	// values: a decode that survived recycling would serve one table's
	// values as the other's.
	var tabs [2]*Table
	for k := range tabs {
		tab, err := e.CreateTable(fmt.Sprintf("t%d", k), []string{"a", "s"}, []expr.Type{expr.TInt, expr.TString}, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]expr.Row, 100)
		for i := range rows {
			rows[i] = expr.Row{expr.NewInt(int64(k*1000 + i)), expr.NewString(fmt.Sprintf("%d-%d", k, i))}
		}
		if err := tab.Append(rows); err != nil {
			t.Fatal(err)
		}
		tabs[k] = tab
	}
	h0 := e.Stats().DecodeHits
	for _, k := range []int{0, 0, 0, 1, 1, 1, 0, 1, 0, 0} {
		mustScan(t, tabs[k], nil, 100)
	}
	if e.Stats().DecodeHits == h0 {
		t.Fatal("no scan was served from a cached decode")
	}
}

// TestOversizeReadKeepsHotPages: repeated scans and index reads of a
// table with more pages than the pool has frames return the loaded
// rows, never serve a decode cached for another page, and leave a small
// table's resident pages resident: after its first scan, a scan of the
// small table misses nothing.
func TestOversizeReadKeepsHotPages(t *testing.T) {
	e := openTestEngine(t, t.TempDir(), 8*PageSize)
	big, err := e.CreateTable("big", mixedCols, mixedTypes, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	rows := mixedRows(8000)
	if err := big.Append(rows); err != nil {
		t.Fatal(err)
	}
	small, err := e.CreateTable("small", []string{"a", "s"}, []expr.Type{expr.TInt, expr.TString}, nil)
	if err != nil {
		t.Fatal(err)
	}
	smallRows := make([]expr.Row, 1200)
	for i := range smallRows {
		smallRows[i] = expr.Row{expr.NewInt(int64(-i)), expr.NewString(fmt.Sprintf("small-%d", i))}
	}
	if err := small.Append(smallRows); err != nil {
		t.Fatal(err)
	}
	if pages, smallPages := len(big.pageStart), len(small.pageStart); pages <= 8 || smallPages < 2 || smallPages > 3 {
		t.Fatalf("big table of %d pages, small of %d, under 8 frames", pages, smallPages)
	}
	mustScan(t, small, nil, len(smallRows))
	h0 := e.Stats().DecodeHits
	for pass := 0; pass < 4; pass++ {
		mustScan(t, big, nil, len(rows))
		mustScan(t, big, []bool{true, false, true, false, false}, len(rows))
		lo, hi := expr.NewInt(int64(1000*pass)), expr.NewInt(int64(1000*pass+3500))
		got, ok, err := indexRange(big, "id", &lo, &hi, true, false)
		if !ok || err != nil || !reflect.DeepEqual(got, rows[1000*pass:1000*pass+3500]) {
			t.Fatalf("pass %d: index range returned %d rows (%v), want rows %d..%d", pass, len(got), err, 1000*pass, 1000*pass+3500)
		}
		if got, err := big.ScanRows(); err != nil || !reflect.DeepEqual(got, rows) {
			t.Fatalf("pass %d: scan returned %d rows (%v), want %d", pass, len(got), err, len(rows))
		}
		m0 := e.Stats().Misses
		mustScan(t, small, nil, len(smallRows))
		if m := e.Stats().Misses - m0; m != 0 {
			t.Fatalf("pass %d: a scan of the small table missed %d pages after reads of the big one", pass, m)
		}
	}
	if e.Stats().DecodeHits == h0 {
		t.Fatal("no re-scan was served from a resident page's cached decode")
	}
}

func TestDecodeCacheConcurrentMasksAndAppends(t *testing.T) {
	e := openTestEngine(t, t.TempDir(), 0)
	defer e.Close()
	tab, err := e.CreateTable("demo", mixedCols, mixedTypes, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := mixedRows(2000)
	if err := tab.Append(rows[:1000]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var scans atomic.Int64
	stop := make(chan struct{})
	for _, need := range [][]bool{{true, false, true, false, false}, {false, true, false, true, true}, nil} {
		wg.Add(1)
		go func(need []bool) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := scanChecked(tab, need); err != nil {
					t.Error(err)
					return
				}
				scans.Add(1)
			}
		}(need)
	}
	for i := 1000; i < len(rows) && !t.Failed(); i += 50 {
		// Let every mask scan the pages between two appends.
		for s := scans.Load(); scans.Load() < s+3 && !t.Failed(); {
			runtime.Gosched()
		}
		if err := tab.Append(rows[i : i+50]); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	mustScan(t, tab, nil, len(rows))
}

func TestDecodeCacheNeverHoldsAFailedDecode(t *testing.T) {
	e := openTestEngine(t, t.TempDir(), 0)
	defer e.Close()
	tab, err := e.CreateTable("demo", mixedCols, mixedTypes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Append(mixedRows(50)); err != nil {
		t.Fatal(err)
	}
	mustScan(t, tab, nil, 50)
	if cachedDecode(t, tab, 0) == nil {
		t.Fatal("a scan of the resident page cached no decode")
	}
	// Corrupt the first cell's type tag in place, the way a write does:
	// under the table lock, released dirty.
	tab.mu.Lock()
	fr, _, err := e.pool.Pin(tab.file(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	fr.buf[pageSlot(fr.buf, 0)] = 0x7e
	e.pool.Unpin(fr, true)
	tab.mu.Unlock()

	h0 := e.Stats().DecodeHits
	for i := 0; i < 3; i++ {
		for _, need := range [][]bool{nil, {false, true, false, false, false}} {
			it := tab.NewIterator()
			it.SetNeeded(need)
			var b expr.Batch
			if _, err := it.NextBatch(&b); err == nil {
				t.Fatalf("scan %d (need %v) of a corrupt page succeeded", i, need)
			}
		}
	}
	if h := e.Stats().DecodeHits - h0; h != 0 || cachedDecode(t, tab, 0) != nil {
		t.Fatalf("corrupt page: %d cache hits, decode cached: %v", h, cachedDecode(t, tab, 0) != nil)
	}
}

// TestGatherReadsDecodeCache: an index read yields the loaded values —
// NULLs, bools, strings and dates included — of exactly the columns its
// need mask selects, whether the cell walker decodes its slots or, once
// a scan has cached the resident pages' decode, they are copied from
// the cache.
func TestGatherReadsDecodeCache(t *testing.T) {
	e := openTestEngine(t, t.TempDir(), 0)
	defer e.Close()
	tab, err := e.CreateTable("demo", mixedCols, mixedTypes, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	rows := mixedRows(3000)
	if err := tab.Append(rows); err != nil {
		t.Fatal(err)
	}
	lo, hi := expr.NewInt(500), expr.NewInt(2500)
	check := func(source string) {
		t.Helper()
		for _, need := range [][]bool{nil, {true, false, true, false, true}, {false, true, false, true, false}} {
			g := tab.NewGather(need)
			if !g.Range("id", &lo, &hi, true, false) {
				t.Fatal("no usable index on id")
			}
			got, err := g.Rows()
			if err != nil || len(got) != 2000 {
				t.Fatalf("%s, need %v: %d rows, %v; want 2000", source, need, len(got), err)
			}
			for i, r := range got {
				for c := range r {
					if (need == nil || need[c]) && r[c] != rows[500+i][c] {
						t.Fatalf("%s, need %v: row %d col %d = %+v, want %+v", source, need, 500+i, c, r[c], rows[500+i][c])
					}
				}
			}
		}
	}
	check("walker")
	mustScan(t, tab, nil, 3000) // resident pages: decoded and cached
	for pg := range tab.pageStart {
		if cachedDecode(t, tab, pg) == nil {
			t.Fatalf("page %d holds no cached decode after a scan", pg)
		}
	}
	check("decode cache")
}

// TestGatherAcrossPageShapes: a gather whose batches span pages of
// different shapes (a run of short rows, then long ones, so pages hold
// different row counts) over a column with NULLs yields column-backed
// batches with vectors as long as the batch, and every loaded row
// once, in row-ID order, each NULL back as a NULL of its column's type.
func TestGatherAcrossPageShapes(t *testing.T) {
	e := openTestEngine(t, t.TempDir(), 0)
	defer e.Close()
	tab, err := e.CreateTable("demo", []string{"k", "v", "s"}, []expr.Type{expr.TInt, expr.TFloat, expr.TString}, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]expr.Row, 6000)
	want := make([]expr.Row, len(rows))
	for i := range rows {
		v, s := expr.NewFloat(float64(i)/2), expr.NewString("")
		if i >= 2000 {
			s = expr.NewString(fmt.Sprintf("%040d", i))
		}
		rows[i] = expr.Row{expr.NewInt(int64(i)), v, s}
		want[i] = rows[i]
		if i >= 4000 && i%5 == 0 {
			rows[i] = expr.Row{expr.NewInt(int64(i)), expr.NullValue(), s}
			want[i] = expr.Row{expr.NewInt(int64(i)), expr.TypedNull(expr.TFloat), s}
		}
	}
	if err := tab.Append(rows); err != nil {
		t.Fatal(err)
	}
	g := tab.NewGather(nil)
	if !g.Range("k", nil, nil, true, true) {
		t.Fatal("no usable index on k")
	}
	var b expr.Batch
	for i := 0; ; {
		more, err := g.NextBatch(&b, 1500)
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			if i != len(rows) {
				t.Fatalf("gathered %d rows, want %d", i, len(rows))
			}
			return
		}
		for c := 0; c < b.Width(); c++ {
			if v, ok := b.ColVec(c); !ok || v.N != b.Len() {
				t.Fatalf("batch at row %d: column %d is not a vector as long as the batch (%d rows)", i, c, b.Len())
			}
		}
		for j, r := range b.Rows() {
			if !reflect.DeepEqual(r, want[i+j]) {
				t.Fatalf("row %d = %v, want %v", i+j, r, want[i+j])
			}
		}
		i += b.Len()
	}
}
