package store

import (
	"errors"
	"sort"
	"testing"

	"cgdqp/internal/expr"
)

// FuzzPageDecode throws arbitrary bytes at the page validator and the
// decoders under fuzzed declared column types: no input may panic, a
// page whose lane bytes are not the declared types is refused, and on a
// page that passes validation the row decoder and the columnar decode
// must fail together or materialize the same values. A masked decode
// (the fuzzed bit set picks the needed columns) must fail exactly when
// the full decode of the same bytes fails and agree with it on every
// needed column.
func FuzzPageDecode(f *testing.F) {
	seedTypes := []expr.Type{expr.TInt, expr.TString, expr.TFloat}
	seedLanes := []byte{byte(expr.TInt), byte(expr.TString), byte(expr.TFloat)}
	seed := make([]byte, PageSize)
	initPage(seed, seedTypes)
	for i := 0; i < 40; i++ {
		pageAppend(seed, encodeTyped(expr.Row{expr.NewInt(int64(i)), expr.NewString("seed"), expr.NewFloat(1.25)}, seedTypes))
	}
	sealPage(seed)
	f.Add(seed, seedLanes, uint8(0b101))
	f.Add(seed, []byte{byte(expr.TInt), byte(expr.TString), byte(expr.TInt)}, uint8(0))
	f.Add(retaggedPage(), seedLanes, uint8(0b001))
	f.Add(make([]byte, PageSize), []byte{byte(expr.TNull)}, uint8(1))
	f.Add([]byte{1, 2, 3}, []byte{byte(expr.TBool), byte(expr.TDate)}, uint8(2))

	f.Fuzz(func(t *testing.T, data, lanesRaw []byte, mask uint8) {
		if len(lanesRaw) == 0 || len(lanesRaw) > 8 {
			return
		}
		lanes := make([]expr.Type, len(lanesRaw))
		for c, l := range lanesRaw {
			if lanes[c] = expr.Type(l); lanes[c] > expr.TDate {
				return
			}
		}
		buf := make([]byte, PageSize)
		copy(buf, data)
		if validPage(buf, lanes) != nil {
			return
		}
		n := pageNRows(buf)
		if n > maxRowsPerPage {
			return
		}
		need := make([]bool, len(lanes))
		for c := range need {
			need[c] = mask>>c&1 != 0
		}
		rows, rowErr := decodePageRows(buf, n, lanes, nil)
		var b, m expr.Batch
		colErr := decodePageInto(buf, n, lanes, nil, &b)
		maskErr := decodePageInto(buf, n, lanes, need, &m)
		if (maskErr != nil) != (colErr != nil) || (rowErr != nil) != (colErr != nil) {
			t.Fatalf("row decode error %v, full decode error %v, masked decode error %v", rowErr, colErr, maskErr)
		}
		if rowErr != nil {
			// Corrupt cells behind a forged checksum are allowed to
			// error — but every path must agree that they error.
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

// encodeTyped encodes a row the way a table of the given column types
// stores it, NULLs under their column's type.
func encodeTyped(row expr.Row, types []expr.Type) []byte {
	var enc []byte
	for c, v := range row {
		if v.IsNull() {
			v = expr.TypedNull(types[c])
		}
		enc = appendValue(enc, v)
	}
	return enc
}

// decodePageInto is the tests' reference decode of a page's first limit
// rows into the batch, as a scan makes it: columnar on the table's
// column types, masked by need.
func decodePageInto(buf []byte, limit int, types []expr.Type, need []bool, b *expr.Batch) error {
	return new(cellWalker).page(buf, limit, types, need, b)
}

// retaggedPage is a checksummed page of an (INT, VARCHAR, DOUBLE)
// table whose row 8 tags its first cell TBool over the same varint
// payload: a row decoder that trusted the tag would read TRUE where the
// int lane holds 8.
func retaggedPage() []byte {
	types := []expr.Type{expr.TInt, expr.TString, expr.TFloat}
	buf := make([]byte, PageSize)
	initPage(buf, types)
	for i := 0; i < 16; i++ {
		pageAppend(buf, encodeTyped(expr.Row{expr.NewInt(int64(i)), expr.NewString("seed"), expr.NewFloat(1.25)}, types))
	}
	buf[pageSlot(buf, 8)] = byte(expr.TBool)
	sealPage(buf)
	return buf
}

// TestColumnarDecodeChecksCellTags: a cell whose tag disagrees with its
// column's type fails the columnar decode under every need mask,
// including the ones that skip that column, and the row decode, with
// ErrColumnType.
func TestColumnarDecodeChecksCellTags(t *testing.T) {
	buf := retaggedPage()
	types := []expr.Type{expr.TInt, expr.TString, expr.TFloat}
	if err := validPage(buf, types); err != nil {
		t.Fatalf("retagged page does not validate: %v", err)
	}
	masks := [][]bool{nil}
	for m := 0; m < 8; m++ {
		masks = append(masks, []bool{m&1 != 0, m&2 != 0, m&4 != 0})
	}
	for _, need := range masks {
		var b expr.Batch
		if err := decodePageInto(buf, pageNRows(buf), types, need, &b); !errors.Is(err, ErrColumnType) {
			t.Errorf("need %v: columnar decode of a TBool cell in an int lane: %v, want ErrColumnType", need, err)
		}
	}
	if _, err := decodePageRows(buf, pageNRows(buf), types, nil); !errors.Is(err, ErrColumnType) {
		t.Errorf("row decode of a TBool cell in an int column: %v, want ErrColumnType", err)
	}
	if err := validPage(buf, []expr.Type{expr.TInt, expr.TString, expr.TInt}); !errors.Is(err, ErrColumnType) {
		t.Errorf("page validated under other declared types: %v", err)
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
