package store

import (
	"sort"
	"testing"

	"cgdqp/internal/expr"
)

// FuzzPageDecode throws arbitrary bytes at the page validator and the
// decoders: no input may panic, and a page that passes validation must
// decode without error through the row path; when the lane bytes claim
// purity, the columnar decode must materialize the same values as the
// row decode. A masked decode (the fuzzed bit set picks the needed
// columns) must fail exactly when the full decode of the same bytes
// fails and agree with it on every needed column.
func FuzzPageDecode(f *testing.F) {
	// Seed with a genuine page.
	seed := make([]byte, PageSize)
	initPage(seed, 3)
	for i := 0; i < 40; i++ {
		row := expr.Row{expr.NewInt(int64(i)), expr.NewString("seed"), expr.NewFloat(1.25)}
		enc := appendRow(nil, row)
		pageAppend(seed, enc, row)
	}
	sealPage(seed)
	f.Add(seed, uint8(3), uint8(0b101))
	f.Add(seed, uint8(3), uint8(0))
	f.Add(retaggedPage(), uint8(2), uint8(0b001))
	f.Add(make([]byte, PageSize), uint8(1), uint8(1))
	f.Add([]byte{1, 2, 3}, uint8(2), uint8(2))

	f.Fuzz(func(t *testing.T, data []byte, nColsRaw, mask uint8) {
		nCols := int(nColsRaw%8) + 1
		buf := make([]byte, PageSize)
		copy(buf, data)
		if !validPage(buf, nCols) {
			return
		}
		n := pageNRows(buf)
		if n > maxRowsPerPage {
			return
		}
		need := make([]bool, nCols)
		for c := range need {
			need[c] = mask>>c&1 != 0
		}
		lanes := make([]expr.Type, nCols)
		rows, rowErr := decodePageRows(buf, n, nCols, nil)
		var b, m expr.Batch
		colErr := decodePageInto(buf, n, lanes, nil, &b)
		maskErr := decodePageInto(buf, n, lanes, need, &m)
		if (maskErr != nil) != (colErr != nil) {
			t.Fatalf("masked decode error %v, full decode error %v", maskErr, colErr)
		}
		if rowErr != nil || colErr != nil {
			// Corrupt row payloads behind a forged checksum are allowed
			// to error — but both paths must agree that they error.
			return
		}
		if b.Len() != len(rows) || m.Len() != len(rows) {
			t.Fatalf("decoders disagree on row count: %d / %d masked vs %d", b.Len(), m.Len(), len(rows))
		}
		for i, r := range rows {
			got, masked := b.Row(i), m.Row(i)
			for c := range r {
				if got[c] != r[c] {
					t.Fatalf("row %d col %d: columnar %+v vs row %+v", i, c, got[c], r[c])
				}
				if need[c] && masked[c] != r[c] {
					t.Fatalf("row %d col %d: masked %+v vs row %+v", i, c, masked[c], r[c])
				}
			}
		}
	})
}

// decodePageInto is the tests' reference decode of a page's first limit
// rows into the batch, as a scan makes it: columnar (masked by need) for
// lane-pure pages, row-backed otherwise. lanes is scratch, one entry per
// table column.
func decodePageInto(buf []byte, limit int, lanes []expr.Type, need []bool, b *expr.Batch) error {
	if pagePure(buf, lanes) {
		return new(cellWalker).page(buf, limit, lanes, need, b)
	}
	rows, err := decodePageRows(buf, limit, len(lanes), make([]expr.Row, 0, limit))
	if err != nil {
		return err
	}
	b.SetRows(rows)
	return nil
}

// retaggedPage is a checksummed page whose header declares column 0 an
// int lane but whose row 8 tags that cell TBool over the same varint
// payload: the row decoder reads TRUE where a lane-trusting columnar
// decoder would read 8.
func retaggedPage() []byte {
	buf := make([]byte, PageSize)
	initPage(buf, 3)
	for i := 0; i < 16; i++ {
		row := expr.Row{expr.NewInt(int64(i)), expr.NewString("seed"), expr.NewFloat(1.25)}
		pageAppend(buf, appendRow(nil, row), row)
	}
	buf[pageSlot(buf, 8)] = byte(expr.TBool)
	sealPage(buf)
	return buf
}

// TestColumnarDecodeChecksCellTags: a cell whose tag disagrees with its
// column's lane byte fails the columnar decode under every need mask,
// including the ones that skip that column.
func TestColumnarDecodeChecksCellTags(t *testing.T) {
	buf := retaggedPage()
	if !validPage(buf, 3) {
		t.Fatal("retagged page does not validate")
	}
	lanes := make([]expr.Type, 3)
	if !pagePure(buf, lanes) || lanes[0] != expr.TInt {
		t.Fatalf("page lanes %v, want a pure int column 0", lanes)
	}
	masks := [][]bool{nil}
	for m := 0; m < 8; m++ {
		masks = append(masks, []bool{m&1 != 0, m&2 != 0, m&4 != 0})
	}
	for _, need := range masks {
		var b expr.Batch
		if err := decodePageInto(buf, pageNRows(buf), lanes, need, &b); err == nil {
			t.Errorf("need %v: columnar decode accepted a TBool cell in an int lane", need)
		}
	}
}

// FuzzBTreeOps drives the B+ tree with a fuzz-derived op sequence and
// cross-checks every lookup and range scan against a reference map.
func FuzzBTreeOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 250, 251, 252}, false)
	f.Add([]byte("hello world btree fuzzing"), true)

	f.Fuzz(func(t *testing.T, ops []byte, stringKeys bool) {
		tree := newBTree(stringKeys)
		ref := map[indexKey][]int32{}
		mkKey := func(b byte) indexKey {
			if stringKeys {
				return indexKey{S: string([]byte{'k', b}), Str: true}
			}
			return indexKey{I: int64(int8(b))}
		}
		var id int32
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			k := mkKey(arg)
			switch op % 3 {
			case 0, 1: // insert-heavy
				tree.Insert(k, id)
				ref[k] = append(ref[k], id)
				id++
			case 2: // point lookup
				got := tree.Lookup(k)
				want := ref[k]
				if len(got) != len(want) {
					t.Fatalf("lookup %v: got %d ids, want %d", k, len(got), len(want))
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("lookup %v: postings diverge at %d", k, j)
					}
				}
			}
		}
		if tree.Len() != len(ref) {
			t.Fatalf("distinct keys: tree %d, ref %d", tree.Len(), len(ref))
		}
		// Full-range walk must visit every key in sorted order with the
		// exact insertion-ordered postings.
		keys := make([]indexKey, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
		i := 0
		tree.Range(nil, nil, true, true, func(k indexKey, ids []int32) bool {
			if i >= len(keys) || !keyEq(k, keys[i]) {
				t.Fatalf("range walk out of order at %d: %v", i, k)
			}
			want := ref[k]
			if len(ids) != len(want) {
				t.Fatalf("range %v: got %d ids, want %d", k, len(ids), len(want))
			}
			i++
			return true
		})
		if i != len(keys) {
			t.Fatalf("range walk visited %d keys, want %d", i, len(keys))
		}
		// Bounded range against the reference.
		if len(keys) > 2 {
			lo, hi := keys[len(keys)/4], keys[3*len(keys)/4]
			var want []indexKey
			for _, k := range keys {
				if keyLess(k, lo) || keyLess(hi, k) || keyEq(k, hi) {
					continue
				}
				want = append(want, k)
			}
			var got []indexKey
			tree.Range(&lo, &hi, true, false, func(k indexKey, _ []int32) bool {
				got = append(got, k)
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("bounded range: got %d keys, want %d", len(got), len(want))
			}
		}
	})
}

// FuzzValueCodec round-trips fuzz-shaped values through the row codec.
func FuzzValueCodec(f *testing.F) {
	f.Add(uint8(1), false, int64(42), 3.14, "str")
	f.Fuzz(func(t *testing.T, typ uint8, null bool, i int64, fv float64, s string) {
		v := expr.Value{T: expr.Type(typ % 6), Null: null}
		switch v.T {
		case expr.TInt, expr.TDate:
			v.I = i
		case expr.TBool:
			v.I = i & 1
		case expr.TFloat:
			v.F = fv
		case expr.TString:
			v.S = s
		}
		if v.Null {
			v = expr.Value{T: v.T, Null: true}
		}
		enc := appendValue(nil, v)
		got, n, err := decodeValue(enc)
		if err != nil {
			t.Fatalf("decode(%+v): %v", v, err)
		}
		if n != len(enc) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(enc))
		}
		if v.T == expr.TNull && !v.Null {
			v.Null = false // TNull round-trips with Null bit clear
		}
		if got != v {
			t.Fatalf("round trip: %+v -> %+v", v, got)
		}
	})
}
