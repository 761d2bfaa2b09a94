package colcodec

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"cgdqp/internal/expr"
)

// randomVec returns a vector of n values of lane t, as a table column
// holds them: NULLs (at the given rate) of type t, strings drawn from an
// alphabet of the given size.
func randomVec(rng *rand.Rand, t expr.Type, n int, nullRate float64, alphabet int) *expr.Vec {
	v := new(expr.Vec)
	v.Reset(t, n)
	for i := 0; i < n; i++ {
		if t == expr.TNull || rng.Float64() < nullRate {
			v.EnsureNull().Set(i)
			continue
		}
		switch t {
		case expr.TInt, expr.TDate:
			v.I[i] = rng.Int63n(1<<uint(rng.Intn(62))) - 1<<20
		case expr.TFloat:
			v.F[i] = rng.NormFloat64()
		case expr.TString:
			if v.S[i] = fmt.Sprint(rng.Intn(alphabet)); rng.Intn(4) == 0 {
				v.S[i] = ""
			}
		case expr.TBool:
			if rng.Intn(2) == 0 {
				v.B.Set(i)
			}
		}
	}
	return v
}

// TestBuilderLenAndUndo: after each value a Builder takes, and after
// taking one back, its Len is the length of what it appends, and that
// is what AppendVec writes for the same values — dictionary strings,
// all-NULL and TNull columns included; the encoding decodes back to the
// same values, whole and at every other slot, each taken twice.
func TestBuilderLenAndUndo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var b, e Builder
	var d Decoder
	for trial := 0; trial < 200; trial++ {
		lane := expr.Type(rng.Intn(int(expr.TDate) + 1))
		nullRate := []float64{0, 0.3, 1}[rng.Intn(3)]
		v := randomVec(rng, lane, 1+rng.Intn(300), nullRate, []int{2, 40, 5000}[rng.Intn(3)])
		b.Reset()
		for n := 1; n <= v.N; n++ {
			b.Add(v.Value(n - 1))
			check := func(n int) {
				enc := e.AppendVec(nil, v, n)
				if got := b.Append(nil); b.Len() != len(got) || !bytes.Equal(got, enc) {
					t.Fatalf("trial %d (%s, %d values): Len %d, Append %x, AppendVec %x", trial, lane, n, b.Len(), got, enc)
				}
			}
			if rng.Intn(3) == 0 {
				b.Undo(v.Value(n - 1))
				check(n - 1)
				if j := rng.Intn(n); v.Value(j).T == v.Value(n-1).T {
					b.Add(v.Value(j)) // some other value of the column, then back
					b.Undo(v.Value(j))
				}
				b.Add(v.Value(n - 1))
			}
			check(n)
		}
		enc := e.AppendVec(nil, v, v.N)
		var got, odd expr.Vec
		if used, err := d.Decode(enc, v.N, &got); err != nil || used != len(enc) {
			t.Fatalf("trial %d: decode read %d of %d bytes: %v", trial, used, len(enc), err)
		}
		var sel []int32
		for i := 1; i < v.N; i += 2 {
			sel = append(sel, int32(i), int32(i)) // each odd slot twice
		}
		odd.Reset(got.T, len(sel))
		odd.NullT = got.NullT
		if _, err := d.DecodeInto(enc, v.N, sel, &odd, 0); err != nil {
			t.Fatalf("trial %d: slot decode: %v", trial, err)
		}
		for i := 0; i < v.N; i++ {
			if got.Value(i) != v.Value(i) || i%2 == 1 && (odd.Value(i-1) != v.Value(i) || odd.Value(i) != v.Value(i)) {
				t.Fatalf("trial %d, value %d: decoded %+v, at odd slots %+v, want %+v", trial, i, got.Value(i), odd.Value(i), v.Value(i))
			}
		}
	}
}
