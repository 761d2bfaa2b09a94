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

// garble sets random bits where a vector's bitmaps may hold anything:
// the bool lane under NULLs, and both bitmaps past N.
func garble(rng *rand.Rand, v *expr.Vec) {
	for w := range v.B {
		if v.Null != nil {
			v.B[w] |= rng.Uint64() & v.Null[w]
		}
		v.B[w] |= rng.Uint64() &^ lowBits(v.N-64*w)
	}
	for w := range v.Null {
		v.Null[w] |= rng.Uint64() &^ lowBits(v.N-64*w)
	}
}

// distinctVec returns values non-NULL strings taking exactly d distinct
// values, and nulls NULLs, in random order.
func distinctVec(rng *rand.Rand, values, nulls, d int) *expr.Vec {
	v := new(expr.Vec)
	v.Reset(expr.TString, values+nulls)
	perm := rng.Perm(v.N)
	for k, i := range perm {
		switch {
		case k < d:
			v.S[i] = fmt.Sprintf("w%d", k)
		case k < values:
			v.S[i] = fmt.Sprintf("w%d", rng.Intn(d))
		default:
			v.EnsureNull().Set(i)
		}
	}
	return v
}

// addEncoding is the oracle: the encoding Add and Append write for the
// first n values v.Value materializes.
func addEncoding(b *Builder, v *expr.Vec, n int) []byte {
	b.Reset()
	for i := 0; i < n; i++ {
		b.Add(v.Value(i))
	}
	return b.Append(nil)
}

// TestBuilderLenAndUndo: after each value a Builder takes, and after
// taking one back, its Len is the length of what it appends, and that
// is what AppendVec writes for the same values — dictionary strings,
// all-NULL and TNull columns, untyped NULLs and garbage bits under NULLs
// and past N included; the encoding decodes back to the same values,
// whole and at every other slot, each taken twice. Vectors of 1,024 rows
// and more, and string columns either side of the dictionary rule's
// edges (3/4 of the values, 4,096 entries), are checked at a few
// prefixes against the Add path.
func TestBuilderLenAndUndo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var b, e Builder
	var d Decoder
	roundTrip := func(label string, v *expr.Vec) {
		t.Helper()
		enc := e.AppendVec(nil, v, v.N)
		var got, odd expr.Vec
		if used, err := d.Decode(enc, v.N, &got); err != nil || used != len(enc) {
			t.Fatalf("%s: decode read %d of %d bytes: %v", label, used, len(enc), err)
		}
		var sel []int32
		for i := 1; i < v.N; i += 2 {
			sel = append(sel, int32(i), int32(i)) // each odd slot twice
		}
		odd.Reset(got.T, len(sel))
		odd.NullT = got.NullT
		if _, err := d.DecodeInto(enc, v.N, sel, &odd, 0); err != nil {
			t.Fatalf("%s: slot decode: %v", label, err)
		}
		for i := 0; i < v.N; i++ {
			if got.Value(i) != v.Value(i) || i%2 == 1 && (odd.Value(i-1) != v.Value(i) || odd.Value(i) != v.Value(i)) {
				t.Fatalf("%s, value %d: decoded %+v, at odd slots %+v, want %+v", label, i, got.Value(i), odd.Value(i), v.Value(i))
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		lane := expr.Type(rng.Intn(int(expr.TDate) + 1))
		nullRate := []float64{0, 0.3, 1}[rng.Intn(3)]
		v := randomVec(rng, lane, 1+rng.Intn(300), nullRate, []int{2, 40, 5000}[rng.Intn(3)])
		if rng.Intn(2) == 0 {
			v.NullT = expr.TNull
		}
		garble(rng, v)
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
		roundTrip(fmt.Sprintf("trial %d", trial), v)
	}
	var long []*expr.Vec
	for lane := expr.TInt; lane <= expr.TDate; lane++ {
		for _, nullRate := range []float64{0, 0.3} {
			long = append(long, randomVec(rng, lane, 1024+rng.Intn(2000), nullRate, 3000))
		}
	}
	for _, vd := range [][2]int{{400, 300}, {400, 301}, {6000, 4096}, {6000, 4097}, {1024, 1024}} {
		for _, nulls := range []int{0, 150} {
			long = append(long, distinctVec(rng, vd[0], nulls, vd[1]))
		}
	}
	for i, v := range long {
		if i%2 == 1 {
			v.NullT = expr.TNull
		}
		garble(rng, v)
		for _, n := range []int{v.N, v.N - 1, 1 + rng.Intn(v.N), 64, 65} {
			if want, got := addEncoding(&b, v, n), e.AppendVec(nil, v, n); !bytes.Equal(got, want) {
				t.Fatalf("vector %d (%s, %d of %d values): AppendVec %d bytes, Add %d", i, v.T, n, v.N, len(got), len(want))
			}
		}
		roundTrip(fmt.Sprintf("vector %d", i), v)
	}
}
