package store

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cgdqp/internal/expr"
)

// pagers opens one engine per pager — memory, then file — both with a
// two-page pool, so reads also go through evicted, written-back pages.
func pagers(t *testing.T) map[string]*Engine {
	t.Helper()
	out := map[string]*Engine{}
	for name, dir := range map[string]string{"memory": "", "file": t.TempDir()} {
		e, err := Open(Options{Dir: dir, BufferPoolBytes: 2 * PageSize})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		out[name] = e
	}
	return out
}

// TestIndexReadsMatchFilter loads rows with duplicate keys, NULLs, and
// int and string indexes, and requires every index read — range scans
// over each bound shape, point lookups, stats — to equal a brute-force
// filter over the inserted rows, in insertion (row-ID) order, on either
// pager.
func TestIndexReadsMatchFilter(t *testing.T) {
	var rows []expr.Row
	for i := 0; i < 3000; i++ {
		k := expr.NewInt(int64(i % 37)) // duplicates share keys
		if i%23 == 0 {
			k = expr.TypedNull(expr.TInt) // as the store returns it
		}
		rows = append(rows, expr.Row{k, expr.NewString(fmt.Sprintf("n-%02d", i%41)), expr.NewFloat(float64(i) / 8)})
	}
	// filter is the reference: rows whose column c lies in the bounds,
	// in insertion order.
	filter := func(c int, lo, hi *expr.Value, loInc, hiInc bool) []expr.Row {
		var out []expr.Row
		for _, r := range rows {
			v := r[c]
			if v.IsNull() {
				continue
			}
			if lo != nil {
				if cmp, _ := v.Compare(*lo); cmp < 0 || (cmp == 0 && !loInc) {
					continue
				}
			}
			if hi != nil {
				if cmp, _ := v.Compare(*hi); cmp > 0 || (cmp == 0 && !hiInc) {
					continue
				}
			}
			out = append(out, r)
		}
		return out
	}
	same := func(a, b []expr.Row) bool { return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b)) }
	iv := func(n int64) *expr.Value { v := expr.NewInt(n); return &v }
	sv := func(s string) *expr.Value { v := expr.NewString(s); return &v }
	ranges := []struct {
		label        string
		col          int
		lo, hi       *expr.Value
		loInc, hiInc bool
	}{
		{"int full", 0, nil, nil, true, true},
		{"int [5,20]", 0, iv(5), iv(20), true, true},
		{"int (5,20)", 0, iv(5), iv(20), false, false},
		{"int [-3,5)", 0, iv(-3), iv(5), true, false},
		{"int lower only", 0, iv(30), nil, true, true},
		{"int upper only", 0, nil, iv(4), true, false},
		{"int empty", 0, iv(50), iv(90), true, true},
		{"str [n-05,n-11]", 1, sv("n-05"), sv("n-11"), true, true},
		{"str (n-05,n-11)", 1, sv("n-05"), sv("n-11"), false, false},
		{"str upper only", 1, nil, sv("n-03"), true, true},
	}
	cols := []string{"k", "name", "val"}
	for pager, e := range pagers(t) {
		tab, err := e.CreateTable("T", cols, []expr.Type{expr.TInt, expr.TString, expr.TFloat}, []string{"k", "name"})
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Append(rows); err != nil {
			t.Fatal(err)
		}
		for _, r := range ranges {
			got, ok, err := indexRange(tab, cols[r.col], r.lo, r.hi, r.loInc, r.hiInc)
			if want := filter(r.col, r.lo, r.hi, r.loInc, r.hiInc); err != nil || !ok || !same(got, want) {
				t.Fatalf("%s: range %s: %d rows (ok=%v, err=%v), want %d", pager, r.label, len(got), ok, err, len(want))
			}
		}
		for _, key := range []expr.Value{expr.NewInt(7), expr.NewInt(99), expr.NullValue()} {
			got, ok, err := indexLookup(tab, "k", key)
			want := filter(0, &key, &key, true, true)
			if key.IsNull() {
				want = nil
			}
			if err != nil || !ok || !same(got, want) {
				t.Fatalf("%s: lookup k=%v: %d rows (ok=%v, err=%v), want %d", pager, key, len(got), ok, err, len(want))
			}
		}
		for c, want := range []struct {
			min, max expr.Value
			distinct int
		}{{expr.NewInt(0), expr.NewInt(36), 37}, {expr.NewString("n-00"), expr.NewString("n-40"), 41}} {
			min, max, distinct, ok := tab.IndexStats(cols[c])
			if !ok || min != want.min || max != want.max || distinct != want.distinct {
				t.Fatalf("%s: stats %s = (%v, %v, %d, %v), want (%v, %v, %d)", pager, cols[c], min, max, distinct, ok, want.min, want.max, want.distinct)
			}
		}
		if _, ok, err := indexRange(tab, "val", nil, nil, true, true); ok || err != nil {
			t.Errorf("%s: unindexed column served a range (err=%v)", pager, err)
		}
		if _, _, _, ok := tab.IndexStats("val"); ok {
			t.Errorf("%s: unindexed column reported stats", pager)
		}
	}
}

// TestConcurrentAppends: appends racing on one table all land, on
// either pager.
func TestConcurrentAppends(t *testing.T) {
	for pager, e := range pagers(t) {
		tab, err := e.CreateTable("t", []string{"a"}, []expr.Type{expr.TInt}, []string{"a"})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(base int) {
				defer wg.Done()
				for j := 0; j < 100; j++ {
					if err := tab.Append([]expr.Row{intRow(int64(base*100 + j))}); err != nil {
						t.Error(err)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		rows, err := tab.ScanRows()
		if err != nil || len(rows) != 800 || tab.RowCount() != 800 {
			t.Errorf("%s: %d rows scanned (%v), RowCount %d, want 800", pager, len(rows), err, tab.RowCount())
		}
		if _, _, distinct, _ := tab.IndexStats("a"); distinct != 800 {
			t.Errorf("%s: index holds %d keys, want 800", pager, distinct)
		}
	}
}

// TestIteratorIsASnapshot: rows appended after an iterator opens are
// not part of its scan, on either pager, and a row of the wrong width
// is refused.
func TestIteratorIsASnapshot(t *testing.T) {
	for pager, e := range pagers(t) {
		tab, err := e.CreateTable("t", []string{"a"}, []expr.Type{expr.TInt}, nil)
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]expr.Row, 3000)
		for i := range batch {
			batch[i] = intRow(int64(i))
		}
		if err := tab.Append(batch); err != nil {
			t.Fatal(err)
		}
		it := tab.NewIterator()
		if err := tab.Append(batch); err != nil {
			t.Fatal(err)
		}
		if err := tab.Append([]expr.Row{intRow(1, 2)}); err == nil {
			t.Errorf("%s: a two-column row was appended to a one-column table", pager)
		}
		n := 0
		var b expr.Batch
		for {
			more, err := it.NextBatch(&b)
			if err != nil {
				t.Fatal(err)
			}
			if !more {
				break
			}
			n += b.Len()
		}
		if n != 3000 || tab.RowCount() != 6000 {
			t.Errorf("%s: iterator saw %d rows (want 3000), table holds %d (want 6000)", pager, n, tab.RowCount())
		}
	}
}

// TestPoolShrinksBackAfterPinsDrain: a pool that grew past its budget
// while every frame was pinned shrinks back to it at the next
// allocation once the pins drain.
func TestPoolShrinksBackAfterPinsDrain(t *testing.T) {
	e := openTestEngine(t, t.TempDir(), 2*PageSize)
	defer e.Close()
	tab, err := e.CreateTable("demo", mixedCols, mixedTypes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Append(mixedRows(2000)); err != nil {
		t.Fatal(err)
	}
	var pinned []*frame
	for pg := uint32(0); pg < 3; pg++ {
		fr, _, err := e.pool.Pin(tab.file(), pg, false)
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, fr)
	}
	if got := e.Stats().Resident; got != 3 {
		t.Fatalf("%d frames resident with 3 pinned, want 3", got)
	}
	for _, fr := range pinned {
		e.pool.Unpin(fr, false)
	}
	fr, _, err := e.pool.Pin(tab.file(), 3, false)
	if err != nil {
		t.Fatal(err)
	}
	e.pool.Unpin(fr, false)
	if got := e.Stats().Resident; got != 2 {
		t.Fatalf("%d frames resident after the pins drained, want the budget's 2", got)
	}
}
