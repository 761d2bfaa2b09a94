package network

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cgdqp/internal/colcodec"
	"cgdqp/internal/expr"
)

var updateGolden = flag.Bool("update", false, "rewrite wire-format golden fixtures")

// sameValue compares values bitwise (float payloads included) so a
// round-trip must preserve type, NULL-ness and exact payload.
func sameValue(a, b expr.Value) bool {
	return a.T == b.T && a.Null == b.Null && a.I == b.I && a.S == b.S &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

func roundTrip(t *testing.T, name string, rows []expr.Row) []byte {
	t.Helper()
	frame := EncodeBatch(rows, WireOptions{})
	got, err := DecodeBatch(frame)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if len(got) != len(rows) {
		t.Fatalf("%s: %d rows decoded, want %d", name, len(got), len(rows))
	}
	for i := range rows {
		for c := range rows[i] {
			if !sameValue(got[i][c], rows[i][c]) {
				t.Fatalf("%s: row %d col %d: got %#v want %#v", name, i, c, got[i][c], rows[i][c])
			}
		}
	}
	return frame
}

func checkGolden(t *testing.T, name string, frame []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".wire")
	if *updateGolden {
		if err := os.WriteFile(path, frame, 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden %s missing (run with -update): %v", path, err)
	}
	if !bytes.Equal(frame, want) {
		t.Fatalf("%s: encoding drifted from golden fixture (%d vs %d bytes); "+
			"re-run with -update only if the format change is intentional",
			name, len(frame), len(want))
	}
}

func fixtureRows(name string) []expr.Row {
	switch name {
	case "empty":
		return nil
	case "typical":
		rows := make([]expr.Row, 0, 64)
		for i := 0; i < 64; i++ {
			r := expr.Row{
				expr.NewInt(int64(i * 37)),
				expr.NewFloat(float64(i) / 8),
				expr.NewString([]string{"BRASS", "COPPER", "NICKEL"}[i%3]),
				expr.NewBool(i%2 == 0),
				expr.NewDate(int64(10000 + i)),
			}
			if i%11 == 0 {
				r[0] = expr.TypedNull(expr.TInt)
			}
			rows = append(rows, r)
		}
		return rows
	case "all_null":
		rows := make([]expr.Row, 8)
		for i := range rows {
			rows[i] = expr.Row{expr.TypedNull(expr.TString), expr.NullValue(), expr.NewInt(int64(i))}
		}
		return rows
	case "dict_overflow":
		// Every string distinct: the dictionary must be abandoned.
		rows := make([]expr.Row, 128)
		for i := range rows {
			rows[i] = expr.Row{expr.NewString(fmt.Sprintf("supplier-%04d", i))}
		}
		return rows
	case "mixed":
		return []expr.Row{
			{expr.NewInt(1), expr.NewString("x")},
			{expr.NewString("two"), expr.TypedNull(expr.TFloat)},
			{expr.NewFloat(-0.0), expr.NewBool(true)},
			{expr.NullValue(), expr.NewDate(-40000)},
		}
	case "mixed_between":
		// A mixed column between two lane-pure ones, typed NULLs in all
		// three: the frame decodes by columns and keeps every type tag.
		return []expr.Row{
			{expr.NewInt(7), expr.NewString("x"), expr.NewString("EU")},
			{expr.TypedNull(expr.TInt), expr.TypedNull(expr.TDate), expr.NewString("AS")},
			{expr.NewInt(-7), expr.NewFloat(2.5), expr.TypedNull(expr.TString)},
			{expr.NewInt(0), expr.NullValue(), expr.NewString("EU")},
		}
	}
	return nil
}

// TestWireRoundTripGolden round-trips each fixture and pins its exact
// encoded bytes under testdata/.
func TestWireRoundTripGolden(t *testing.T) {
	for _, name := range []string{"empty", "typical", "all_null", "dict_overflow", "mixed", "mixed_between"} {
		checkGolden(t, name, roundTrip(t, name, fixtureRows(name)))
	}
}

// TestWireDictionaryChosen: a low-cardinality string column must be
// strictly smaller than the same column encoded with distinct strings.
func TestWireDictionaryChosen(t *testing.T) {
	low := make([]expr.Row, 256)
	for i := range low {
		low[i] = expr.Row{expr.NewString([]string{"EUROPE", "ASIA"}[i%2])}
	}
	frame := EncodeBatch(low, WireOptions{})
	// tag, flags at body start after uvarint counts; flags must carry the
	// dict bit. Parse minimally: body starts after magic+ver+flags+len.
	rows, err := DecodeBatch(frame)
	if err != nil || len(rows) != 256 {
		t.Fatalf("decode: %v", err)
	}
	if len(frame) > 2+256*2 {
		t.Fatalf("dictionary encoding too large: %d bytes for 256 two-value strings", len(frame))
	}
}

// TestWireEncoderReuse: the streaming encoder must produce the same
// bytes as the one-shot helper for consecutive different batches.
func TestWireEncoderReuse(t *testing.T) {
	var enc WireEncoder
	for _, name := range []string{"typical", "dict_overflow", "mixed", "mixed_between", "empty", "all_null"} {
		rows := fixtureRows(name)
		got := enc.Encode(rows)
		want := EncodeBatch(rows, WireOptions{})
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: reused encoder diverged (%d vs %d bytes)", name, len(got), len(want))
		}
	}
}

// compressedFlagged returns the frame with flags bit 0 set: what an
// encoder with body compression would send, which this version has none
// of and must refuse rather than parse the body as columns.
func compressedFlagged(frame []byte) []byte {
	out := append([]byte(nil), frame...)
	out[2] |= wireFlagCompressed
	return out
}

// TestWireDecodeCorrupt: truncations, bit flips and the reserved
// compression flag must error, never panic or return wrong rows silently.
func TestWireDecodeCorrupt(t *testing.T) {
	frame := EncodeBatch(fixtureRows("typical"), WireOptions{})
	if _, err := DecodeBatch(nil); err == nil {
		t.Fatal("nil frame decoded")
	}
	if _, err := DecodeBatch(compressedFlagged(frame)); !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("frame flagged compressed: err = %v, want ErrWireCorrupt", err)
	}
	for cut := 0; cut < len(frame); cut += 7 {
		if _, err := DecodeBatch(frame[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	for i := 0; i < len(frame); i += 11 {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		rows, err := DecodeBatch(mut)
		if err == nil && rows == nil {
			t.Fatalf("flip at %d: nil rows with nil error", i)
		}
	}
}

// checkEncodeCols decodes a frame into column vectors and, unless it
// holds a mixed column (which has none), requires encoding those vectors to produce the bytes
// that encoding the batch's rows does — shipped bytes are billed by
// frame length, so the columnar encoder may not differ by a byte.
func checkEncodeCols(t *testing.T, frame []byte) {
	t.Helper()
	var b expr.Batch
	if err := DecodeBatchCols(frame, &b); err != nil {
		return
	}
	cols := make([]expr.Vec, b.Width())
	for c := range cols {
		v, ok := b.ColVec(c)
		if !ok {
			t.Fatalf("decoded column %d is not served columnar", c)
		}
		cols[c] = *v
	}
	var colEnc, rowEnc WireEncoder
	want := rowEnc.Encode(b.Rows())
	// Twice into one buffer, after a prefix: the second frame starts
	// where the first one's header length left it.
	prefix := []byte("prefix")
	got := colEnc.EncodeCols(append([]byte(nil), prefix...), cols, b.Len())
	got = colEnc.EncodeCols(got, cols, b.Len())
	if !bytes.Equal(got, append(append(prefix, want...), want...)) {
		t.Fatalf("EncodeCols wrote %d bytes after a %d-byte prefix, Encode of the same batch's rows twice %d:\n%x\n%x", len(got), len(prefix), 2*len(want), got, want)
	}
}

// TestWireEncodeColsMatchesRows runs checkEncodeCols over every fixture.
// A frame with a mixed column decodes to rows only: DecodeBatchCols
// refuses it with ErrWireMixed.
func TestWireEncodeColsMatchesRows(t *testing.T) {
	for _, name := range []string{"typical", "dict_overflow", "mixed", "mixed_between", "empty", "all_null"} {
		frame := EncodeBatch(fixtureRows(name), WireOptions{})
		checkEncodeCols(t, frame)
		var b expr.Batch
		err := DecodeBatchCols(frame, &b)
		if rows, rerr := DecodeBatch(frame); rerr != nil || len(rows) != len(fixtureRows(name)) {
			t.Fatalf("%s: DecodeBatch: %d rows, %v", name, len(rows), rerr)
		}
		if mixed := name == "mixed" || name == "mixed_between"; mixed != errors.Is(err, ErrWireMixed) {
			t.Errorf("%s: DecodeBatchCols error %v", name, err)
		}
	}
}

// FuzzWireDecode throws arbitrary bytes at the decoder.
func FuzzWireDecode(f *testing.F) {
	for _, name := range []string{"empty", "typical", "mixed", "mixed_between"} {
		frame := EncodeBatch(fixtureRows(name), WireOptions{})
		f.Add(frame)
		f.Add(compressedFlagged(frame))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := DecodeBatch(data)
		if err == nil {
			// Whatever decoded must re-encode and decode to the same shape.
			again, err2 := DecodeBatch(EncodeBatch(rows, WireOptions{}))
			if err2 != nil || len(again) != len(rows) {
				t.Fatalf("re-encode of decoded rows failed: %v", err2)
			}
			checkEncodeCols(t, data)
		}
	})
}

// TestFrameReuseKeepsDecodedValues: a frame buffer may be overwritten
// once DecodeBatchCols returns — by junk or by the next frame encoded
// into it — without moving a decoded value, plain and dictionary
// strings included; one encoder's frames shrinking and growing between
// header lengths stay the bytes Encode writes.
func TestFrameReuseKeepsDecodedValues(t *testing.T) {
	col := func(n int, val func(i int) expr.Value) expr.Vec {
		var v expr.Vec
		v.Reset(val(0).T, 0)
		for i := 0; i < n; i++ {
			v.Append(val(i))
		}
		return v
	}
	batch := func(n int) []expr.Vec {
		return []expr.Vec{
			col(n, func(i int) expr.Value { return expr.NewString(fmt.Sprintf("plain-%d", i)) }),
			col(n, func(i int) expr.Value { return expr.NewString(fmt.Sprintf("dict-%d", i%3)) }),
			col(n, func(i int) expr.Value { return expr.NewInt(int64(i)) }),
		}
	}
	var enc WireEncoder
	var buf []byte
	for _, n := range []int{2000, 3, 700, 2000, 1} {
		cols := batch(n)
		buf = enc.EncodeCols(buf[:0], cols, n)
		var b expr.Batch
		if err := DecodeBatchCols(buf, &b); err != nil {
			t.Fatalf("%d rows: %v", n, err)
		}
		if flags := columnFlags(t, buf); flags[0]&dictFlag != 0 || (n >= 4) != (flags[1]&dictFlag != 0) {
			t.Fatalf("%d rows: column flags %v", n, flags)
		}
		want := b.Rows()
		var rowEnc WireEncoder
		if frame := rowEnc.Encode(want); !bytes.Equal(frame, buf) {
			t.Fatalf("%d rows: EncodeCols and Encode differ (%d vs %d bytes)", n, len(buf), len(frame))
		}
		before := make([]expr.Row, len(want))
		for i, r := range want {
			before[i] = r.Clone()
			for c := range r {
				before[i][c].S = strings.Clone(r[c].S)
			}
		}
		for i := range buf {
			buf[i] = 'x'
		}
		buf = enc.EncodeCols(buf[:0], batch(n+1), n+1)
		for i := range before {
			for c := range before[i] {
				if got := b.RowValue(i, c); !sameValue(got, before[i][c]) {
					t.Fatalf("%d rows: row %d col %d moved to %#v from %#v", n, i, c, got, before[i][c])
				}
			}
		}
	}
}

// dictFlag is colcodec's flag of a dictionary-encoded string column.
const dictFlag = 0x02

// columnFlags returns the flags byte of every column of a frame.
func columnFlags(t *testing.T, frame []byte) []byte {
	t.Helper()
	body, err := decodeBody(frame)
	if err != nil {
		t.Fatal(err)
	}
	nRows, nCols, pos, err := dims(body)
	if err != nil {
		t.Fatal(err)
	}
	var d colcodec.Decoder
	var flags []byte
	for c := 0; c < nCols; c++ {
		flags = append(flags, body[pos+1])
		var v expr.Vec
		used, err := d.Decode(body[pos:], nRows, &v)
		if err != nil {
			t.Fatal(err)
		}
		pos += used
	}
	return flags
}
