package network

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"cgdqp/internal/expr"
)

var updateGolden = flag.Bool("update", false, "rewrite wire-format golden fixtures")

// sameValue compares values bitwise (float payloads included) so a
// round-trip must preserve type, NULL-ness and exact payload.
func sameValue(a, b expr.Value) bool {
	return a.T == b.T && a.Null == b.Null && a.I == b.I && a.S == b.S &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

func roundTrip(t *testing.T, name string, rows []expr.Row, opt WireOptions) []byte {
	t.Helper()
	frame := EncodeBatch(rows, opt)
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
	}
	return nil
}

// TestWireRoundTripGolden round-trips each fixture and pins its exact
// encoded bytes under testdata/.
func TestWireRoundTripGolden(t *testing.T) {
	for _, name := range []string{"empty", "typical", "all_null", "dict_overflow", "mixed"} {
		frame := roundTrip(t, name, fixtureRows(name), WireOptions{})
		checkGolden(t, name, frame)
		cframe := roundTrip(t, name+"_compressed", fixtureRows(name), WireOptions{Compress: true})
		checkGolden(t, name+"_compressed", cframe)
	}
}

// TestWireCompressionShrinksRepetitive: a repetitive batch must get
// smaller under the compression option, and an incompressible tiny one
// must fall back to the stored form (flag byte 0).
func TestWireCompressionShrinksRepetitive(t *testing.T) {
	rows := make([]expr.Row, 512)
	for i := range rows {
		rows[i] = expr.Row{expr.NewString("ABABABABABABABAB"), expr.NewInt(7)}
	}
	plain := EncodeBatch(rows, WireOptions{})
	comp := EncodeBatch(rows, WireOptions{Compress: true})
	if len(comp) >= len(plain) {
		t.Fatalf("compressed %d >= plain %d", len(comp), len(plain))
	}
	tiny := []expr.Row{{expr.NewInt(1)}}
	ct := EncodeBatch(tiny, WireOptions{Compress: true})
	if ct[2]&wireFlagCompressed != 0 {
		t.Fatalf("tiny incompressible frame was flagged compressed")
	}
	if _, err := DecodeBatch(ct); err != nil {
		t.Fatalf("decode stored-mode frame: %v", err)
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
	for _, name := range []string{"typical", "dict_overflow", "mixed", "empty", "all_null"} {
		rows := fixtureRows(name)
		got := enc.Encode(rows)
		want := EncodeBatch(rows, WireOptions{})
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: reused encoder diverged (%d vs %d bytes)", name, len(got), len(want))
		}
	}
}

// TestWireDecodeCorrupt: truncations and bit flips must error, never
// panic or return wrong rows silently.
func TestWireDecodeCorrupt(t *testing.T) {
	frame := EncodeBatch(fixtureRows("typical"), WireOptions{Compress: true})
	if _, err := DecodeBatch(nil); err == nil {
		t.Fatal("nil frame decoded")
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

// checkEncodeCols decodes a frame into column vectors and, when it has
// a vector form, requires encoding those vectors to produce the bytes
// that encoding the batch's rows does — shipped bytes are billed by
// frame length, so the columnar encoder may not differ by a byte.
func checkEncodeCols(t *testing.T, frame []byte, opt WireOptions) {
	t.Helper()
	var b expr.Batch
	if err := DecodeBatchCols(frame, &b); err != nil || b.RowBacked() {
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
	colEnc, rowEnc := WireEncoder{Opt: opt}, WireEncoder{Opt: opt}
	got := colEnc.EncodeCols(cols, b.Len())
	if want := rowEnc.Encode(b.Rows()); !bytes.Equal(got, want) {
		t.Fatalf("EncodeCols wrote %d bytes, Encode of the same batch's rows %d:\n%x\n%x", len(got), len(want), got, want)
	}
}

// TestWireEncodeColsMatchesRows runs checkEncodeCols over every fixture.
func TestWireEncodeColsMatchesRows(t *testing.T) {
	for _, name := range []string{"typical", "dict_overflow", "mixed", "empty", "all_null"} {
		for _, opt := range []WireOptions{{}, {Compress: true}} {
			checkEncodeCols(t, EncodeBatch(fixtureRows(name), opt), opt)
		}
	}
}

// FuzzWireDecode throws arbitrary bytes at the decoder.
func FuzzWireDecode(f *testing.F) {
	for _, name := range []string{"empty", "typical", "mixed"} {
		f.Add(EncodeBatch(fixtureRows(name), WireOptions{}))
		f.Add(EncodeBatch(fixtureRows(name), WireOptions{Compress: true}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := DecodeBatch(data)
		if err == nil {
			// Whatever decoded must re-encode and decode to the same shape.
			again, err2 := DecodeBatch(EncodeBatch(rows, WireOptions{}))
			if err2 != nil || len(again) != len(rows) {
				t.Fatalf("re-encode of decoded rows failed: %v", err2)
			}
			checkEncodeCols(t, data, WireOptions{})
		}
	})
}

// TestLZRoundTrip exercises the compressor on edge shapes directly.
func TestLZRoundTrip(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},
		[]byte("abc"),
		bytes.Repeat([]byte("x"), 100000),
		bytes.Repeat([]byte("abcd1234"), 997),
		func() []byte {
			b := make([]byte, 4096)
			for i := range b {
				b[i] = byte(i * 131)
			}
			return b
		}(),
	}
	for i, c := range cases {
		out, err := lzDecompress(lzCompress(nil, c))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(out, c) {
			t.Fatalf("case %d: round trip mismatch", i)
		}
	}
}

// TestCalibratorFit: the least-squares fit must recover an exact affine
// relation, and Apply must install the observed encoding ratio.
func TestCalibratorFit(t *testing.T) {
	cal := NewCalibrator()
	if _, _, ok := cal.FitEdge("EU", "AS"); ok {
		t.Fatal("fit with no samples")
	}
	for _, b := range []int64{100, 1000, 5000, 20000} {
		cal.ObserveShip("EU", "AS", b, 180+0.02*float64(b))
	}
	a, bta, ok := cal.FitEdge("EU", "AS")
	if !ok || math.Abs(a-180) > 1e-6 || math.Abs(bta-0.02) > 1e-9 {
		t.Fatalf("fit = %v %v %v, want 180 0.02 true", a, bta, ok)
	}
	cal.ObserveEncoding(1000, 700)
	cal.ObserveEncoding(1000, 500)
	if r := cal.EncodingRatio(); math.Abs(r-0.6) > 1e-9 {
		t.Fatalf("ratio = %v, want 0.6", r)
	}
	m := NewCostModel(10, 0.5)
	cal.Apply(m)
	if got := m.EstShipCost("EU", "AS", 1000); math.Abs(got-(10+0.5*600)) > 1e-9 {
		t.Fatalf("EstShipCost = %v", got)
	}
	if got, want := m.ShipCost("EU", "AS", 1000), 10+0.5*1000.0; got != want {
		t.Fatalf("ShipCost changed under calibration: %v want %v", got, want)
	}
	if es := cal.Edges(); len(es) != 1 || es[0] != "EU>AS" {
		t.Fatalf("edges = %v", es)
	}
}
