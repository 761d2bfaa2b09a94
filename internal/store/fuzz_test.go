package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"testing"

	"cgdqp/internal/colcodec"
	"cgdqp/internal/expr"
)

// testPage encodes rows as a sealed page of a table of the given column
// types, as an append writes it.
func testPage(types []expr.Type, rows []expr.Row) []byte {
	tab := &Table{types: types, cols: make([]string, len(types))}
	rec, err := tab.layout(rows)
	if err != nil || len(tab.chunks) != 1 {
		panic(fmt.Sprintf("%d rows on %d pages: %v", len(rows), len(tab.chunks), err))
	}
	buf := make([]byte, PageSize)
	writePage(buf, types, len(rows), tab.offs, rec[tab.chunks[0].body:])
	sealPage(buf)
	return buf
}

// decodePageInto is the tests' reference decode of a page's first limit
// rows into the batch, as a scan makes it: columnar on the table's
// column types, masked by need.
func decodePageInto(buf []byte, limit int, types []expr.Type, need []bool, b *expr.Batch) error {
	startBatch(b, types, need, limit)
	err := decodePage(buf, types, need, nil, b, 0, new(colcodec.Decoder))
	return err
}

// pageSeeds are pages of every minipage shape: plain and dictionary
// strings, all-NULL columns, bools, NULL bitmaps, an all-NULL TNull
// column; each with its column types.
func pageSeeds() (pages [][]byte, types [][]expr.Type) {
	add := func(ts []expr.Type, n int, row func(i int) expr.Row) {
		rows := make([]expr.Row, n)
		for i := range rows {
			rows[i] = row(i)
		}
		pages, types = append(pages, testPage(ts, rows)), append(types, ts)
	}
	add([]expr.Type{expr.TInt, expr.TString, expr.TFloat}, 40, func(i int) expr.Row {
		return expr.Row{expr.NewInt(int64(i)), expr.NewString(fmt.Sprintf("plain-%d", i)), expr.NewFloat(1.25)}
	})
	add([]expr.Type{expr.TString, expr.TBool, expr.TDate}, 70, func(i int) expr.Row {
		r := expr.Row{expr.NewString([]string{"AIR", "RAIL", "SHIP"}[i%3]), expr.NewBool(i%3 == 0), expr.NewDate(int64(9000 - i))}
		if i%4 == 1 {
			r[0], r[1] = expr.TypedNull(expr.TString), expr.TypedNull(expr.TBool)
		}
		return r
	})
	add([]expr.Type{expr.TFloat, expr.TString, expr.TNull, expr.TInt}, 9, func(i int) expr.Row {
		return expr.Row{expr.TypedNull(expr.TFloat), expr.TypedNull(expr.TString), expr.NullValue(), expr.NewInt(-int64(i))}
	})
	return pages, types
}

func laneBytes(types []expr.Type) []byte {
	out := make([]byte, len(types))
	for c, t := range types {
		out[c] = byte(t)
	}
	return out
}

// forged returns page with its bytes at off replaced by b and the
// checksum stamped again.
func forged(page []byte, off int, b ...byte) []byte {
	out := append([]byte(nil), page...)
	copy(out[off:], b)
	sealPage(out)
	return out
}

// FuzzPageDecode stamps a valid checksum on arbitrary bytes and throws
// them at the page validator and the decoders under fuzzed declared
// column types. No input may panic, and every failure is typed
// (ErrCorrupt or ErrColumnType). Each column is decoded on its own as
// the reference: a masked decode (the fuzzed bit set picks the needed
// columns; all of them is the full decode) fails exactly when a needed
// column does and otherwise agrees with each, and a decode of the slots
// the fuzzed bits pick succeeds and agrees wherever the columns it reads
// decode. A masked decode does not fail on a column it skips: data it
// never reads cannot reach a result.
func FuzzPageDecode(f *testing.F) {
	pages, types := pageSeeds()
	for k, page := range pages {
		f.Add(page, laneBytes(types[k]), uint8(0b101), uint64(0x9249249249249249))
	}
	p0, l0 := pages[0], laneBytes(types[0])
	f.Add(retaggedPage(), l0, uint8(0b001), uint64(1<<8))
	f.Add(p0, []byte{byte(expr.TInt), byte(expr.TString), byte(expr.TInt)}, uint8(0), uint64(0))
	f.Add(forged(p0, pageSlot(p0, 1), 0xff, 0x00), l0, uint8(0b111), uint64(3))                        // forged offset
	f.Add(forged(p0, 4, 1, 0), l0, uint8(0b111), uint64(1))                                            // another format version
	f.Add(forged(p0, 6, 0xff, 0x7f), l0, uint8(0b110), uint64(7))                                      // forged row count
	f.Add(forged(pages[1], pageOffset(pages[1], 0)+4, 0x7f), laneBytes(types[1]), uint8(1), uint64(5)) // dictionary
	f.Add(make([]byte, PageSize), []byte{byte(expr.TNull)}, uint8(1), uint64(1))

	f.Fuzz(func(t *testing.T, data, lanesRaw []byte, mask uint8, pick uint64) {
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
		sealPage(buf)
		typed := func(what string, err error) {
			if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrColumnType) {
				t.Fatalf("%s: untyped error %v", what, err)
			}
		}
		err := validPage(buf, lanes)
		typed("validPage", err)
		if err != nil {
			return
		}
		n := pageNRows(buf)
		ref := make([]expr.Batch, len(lanes))
		refErr := make([]error, len(lanes))
		for c := range lanes {
			only := make([]bool, len(lanes))
			only[c] = true
			refErr[c] = decodePageInto(buf, n, lanes, only, &ref[c])
			typed("column decode", refErr[c])
		}
		need := make([]bool, len(lanes))
		needOK := true
		for c := range need {
			need[c] = mask>>c&1 != 0
			needOK = needOK && (!need[c] || refErr[c] == nil)
		}
		var sel []int32 // a lookup of several keys may fetch a row twice
		for i := 0; i < n; i++ {
			if pick>>(i%64)&1 != 0 {
				sel = append(sel, int32(i))
			}
			if pick>>(i%64)&3 == 3 {
				sel = append(sel, int32(i))
			}
		}
		for _, m := range [][]bool{nil, need} {
			var b expr.Batch
			err := decodePageInto(buf, n, lanes, m, &b)
			typed("masked decode", err)
			ok := needOK
			if m == nil {
				ok = !slicesAny(refErr)
			}
			if (err == nil) != ok {
				t.Fatalf("need %v: decode error %v, column errors %v", m, err, refErr)
			}
			if err == nil {
				sameCols(t, &b, ref, m, nil)
			}
		}
		var g expr.Batch
		startBatch(&g, lanes, need, len(sel))
		err = decodePage(buf, lanes, need, sel, &g, 0, new(colcodec.Decoder))
		typed("slot decode", err)
		if needOK && err != nil {
			t.Fatalf("slots %v: %v, though every needed column decodes", sel, err)
		}
		if err == nil && needOK {
			sameCols(t, &g, ref, need, sel)
		}
	})
}

func slicesAny(errs []error) bool {
	for _, err := range errs {
		if err != nil {
			return true
		}
	}
	return false
}

// sameCols checks that every column need selects (nil: all) of b holds
// the values of ref[c] at the slots sel (nil: every row).
func sameCols(t *testing.T, b *expr.Batch, ref []expr.Batch, need []bool, sel []int32) {
	t.Helper()
	for c := range ref {
		if need != nil && !need[c] {
			continue
		}
		for j := 0; j < b.Len(); j++ {
			i := j
			if sel != nil {
				i = int(sel[j])
			}
			if got, want := b.RowValue(j, c), ref[c].RowValue(i, c); got != want {
				t.Fatalf("column %d, row %d (slot %d): %+v, column decode %+v", c, j, i, got, want)
			}
		}
	}
}

// retaggedPage is a checksummed page of an (INT, VARCHAR, DOUBLE) table
// whose int minipage is tagged TBool over the same varint payload: a
// decoder that trusted the tag would read TRUE where the int lane holds
// 8.
func retaggedPage() []byte {
	pages, _ := pageSeeds()
	return forged(pages[0], pageOffset(pages[0], 0), byte(expr.TBool))
}

// TestColumnarDecodeChecksCellTags: a minipage whose tag disagrees with
// its column's type fails every decode that reads it — full, masked or
// by slots — with ErrColumnType; a decode that skips it succeeds; and
// the page fails validation under other declared types.
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
		var b, g expr.Batch
		err := decodePageInto(buf, pageNRows(buf), types, need, &b)
		startBatch(&g, types, need, 1)
		gerr := decodePage(buf, types, need, []int32{8}, &g, 0, new(colcodec.Decoder))
		if reads := need == nil || need[0]; reads {
			if !errors.Is(err, ErrColumnType) || !errors.Is(gerr, ErrColumnType) {
				t.Errorf("need %v: decode of a TBool minipage in an int column: %v, slot decode %v; want ErrColumnType", need, err, gerr)
			}
		} else if err != nil || gerr != nil {
			t.Errorf("need %v skips the retagged column: decode %v, slot decode %v", need, err, gerr)
		}
	}
	if err := validPage(buf, []expr.Type{expr.TInt, expr.TString, expr.TInt}); !errors.Is(err, ErrColumnType) {
		t.Errorf("page validated under other declared types: %v", err)
	}
}

// walSeedTypes are FuzzWALRecord's tables.
var walSeedTypes = map[string][]expr.Type{
	"demo": mixedTypes,
	"n":    {expr.TNull, expr.TString},
}

// walRecordOf encodes rows as the record an append of them to a table
// of afterRows-len(rows) rows and no open tail page writes, or fails as
// the append would.
func walRecordOf(table string, afterRows uint64, rows []expr.Row) ([]byte, error) {
	types := walSeedTypes[table]
	tab := &Table{name: table, cols: make([]string, len(types)), types: types, nRows: int64(afterRows) - int64(len(rows))}
	rec, err := tab.layout(rows)
	return stamp(rec), err
}

// reencode encodes a decoded record's rows again, chunk by chunk.
func reencode(rec walRecord) []byte {
	var b colcodec.Builder
	out := walHeader(rec.table, rec.afterRows, len(rec.rows))
	pos := 0
	for _, m := range rec.chunks {
		out = binary.LittleEndian.AppendUint16(out, uint16(m))
		for c := range walSeedTypes[rec.table] {
			out = b.AppendRows(out, rec.rows[pos:pos+m], c)
		}
		pos += m
	}
	return stamp(out)
}

// restamp returns rec with its CRC computed again over its payload.
func restamp(rec []byte) []byte {
	out := append([]byte(nil), rec...)
	if len(out) >= 8 {
		if plen := int(binary.LittleEndian.Uint32(out[0:4])); plen <= len(out)-8 {
			binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(out[8:8+plen]))
		}
	}
	return out
}

// FuzzWALRecord stamps a valid CRC on arbitrary bytes and decodes them
// as a WAL record: every input is a torn tail, a typed error
// (ErrCorrupt, ErrColumnType), or a record whose rows re-encode, chunk
// by chunk, to exactly the record's bytes.
func FuzzWALRecord(f *testing.F) {
	mixed, _ := walRecordOf("demo", 7, mixedRows(7))
	dict := make([]expr.Row, 40)
	for i := range dict {
		dict[i] = expr.Row{expr.NullValue(), expr.NewString([]string{"EU", "ASIA"}[i%2])}
	}
	nulls, _ := walRecordOf("n", 40, dict)
	f.Add(mixed)
	f.Add(nulls)
	f.Add(mixed[:len(mixed)-3])
	op1 := append([]byte(nil), mixed...)
	op1[8] = 1 // the row codec's insert
	f.Add(restamp(op1))
	f.Add(restamp(bytes.Replace(mixed, []byte("demo"), []byte("gone"), 1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = restamp(data)
		rec, n, err := decodeWALRecord(data, func(name string) []expr.Type { return walSeedTypes[name] })
		switch {
		case errors.Is(err, errTornRecord):
		case err != nil:
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrColumnType) {
				t.Fatalf("untyped error %v", err)
			}
		default:
			if again := reencode(rec); !bytes.Equal(again, data[:n]) {
				t.Fatalf("the decoded rows re-encode to %x, the record is %x", again, data[:n])
			}
		}
	})
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
