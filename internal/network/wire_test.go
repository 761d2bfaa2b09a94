package network

import (
	"bytes"
	"errors"
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

// checkEncodeCols decodes a frame into column vectors and, when it has
// a vector form, requires encoding those vectors to produce the bytes
// that encoding the batch's rows does — shipped bytes are billed by
// frame length, so the columnar encoder may not differ by a byte.
func checkEncodeCols(t *testing.T, frame []byte) {
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
	var colEnc, rowEnc WireEncoder
	got := colEnc.EncodeCols(cols, b.Len())
	if want := rowEnc.Encode(b.Rows()); !bytes.Equal(got, want) {
		t.Fatalf("EncodeCols wrote %d bytes, Encode of the same batch's rows %d:\n%x\n%x", len(got), len(want), got, want)
	}
}

// TestWireEncodeColsMatchesRows runs checkEncodeCols over every fixture.
func TestWireEncodeColsMatchesRows(t *testing.T) {
	for _, name := range []string{"typical", "dict_overflow", "mixed", "mixed_between", "empty", "all_null"} {
		checkEncodeCols(t, EncodeBatch(fixtureRows(name), WireOptions{}))
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
