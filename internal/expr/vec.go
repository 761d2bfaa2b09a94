package expr

import "slices"

// Columnar value vectors. A Vec is the column-at-a-time counterpart of a
// Row slice: one typed lane (int64/float64/string/bool) plus a null
// bitmap. Vectors are the currency of the compiled expression kernels
// (see compile.go); the executor builds them lazily from row batches and
// caches them per batch so a filter and the projection behind it share
// one row-to-column conversion.

// Bitmap is a fixed-size bitset backed by 64-bit words. Bits beyond the
// logical length may hold garbage; all readers index individual bits.
type Bitmap []uint64

// bitmapWords returns the number of words needed for n bits.
func bitmapWords(n int) int { return (n + 63) / 64 }

// Get reports bit i.
func (b Bitmap) Get(i int) bool { return b[i>>6]>>(uint(i)&63)&1 != 0 }

// Set sets bit i.
func (b Bitmap) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// grow returns a zeroed bitmap with capacity for n bits, reusing the
// receiver's storage when possible.
func (b Bitmap) grow(n int) Bitmap {
	w := bitmapWords(n)
	if cap(b) < w {
		return make(Bitmap, w)
	}
	b = b[:w]
	for i := range b {
		b[i] = 0
	}
	return b
}

// extend lengthens the bitmap to hold n bits, the new words zeroed.
func (b Bitmap) extend(n int) Bitmap {
	for w := bitmapWords(n); len(b) < w; {
		b = append(b, 0)
	}
	return b
}

// word returns word w of the bitmap, treating a nil bitmap as all-zero.
func (b Bitmap) word(w int) uint64 {
	if b == nil {
		return 0
	}
	return b[w]
}

// Vec is a column vector: N values of lane type T. Integer-class values
// (TInt, TDate) live in I, floats in F, strings in S and booleans in B.
// Null is nil when no value is null. NullT is the type that materialized
// NULLs carry (kernels fix it per operator, mirroring the interpreter's
// TypedNull results); it is only meaningful for computed vectors.
type Vec struct {
	T     Type
	NullT Type
	N     int
	I     []int64
	F     []float64
	S     []string
	B     Bitmap
	Null  Bitmap
	// Exact reports that Value(i) reproduces the source value bit for bit
	// for every element. Kernel-computed vectors are always exact (what
	// Value materializes IS the result); vectors built from rows lose
	// exactness when a NULL carried a different type tag than the lane or
	// a value carried payload residue outside its lane. Operators that
	// forward column data without re-evaluating (projection passthrough)
	// require exactness for row/columnar parity.
	Exact bool
}

// reset prepares the vector to hold n values of lane type t, reusing
// existing storage. The null bitmap is cleared (nil).
func (v *Vec) reset(t Type, n int) {
	v.T = t
	v.NullT = t
	v.N = n
	v.Null = nil
	v.Exact = true
	switch t {
	case TInt, TDate:
		if cap(v.I) < n {
			v.I = make([]int64, n)
		} else {
			v.I = v.I[:n]
		}
	case TFloat:
		if cap(v.F) < n {
			v.F = make([]float64, n)
		} else {
			v.F = v.F[:n]
		}
	case TString:
		if cap(v.S) < n {
			v.S = make([]string, n)
		} else {
			v.S = v.S[:n]
		}
	case TBool:
		v.B = v.B.grow(n)
	}
}

// Reset prepares the vector to hold n values of lane type t, reusing
// existing storage; exported for columnar producers outside the package
// (the wire decoder, the executor's columnar projection).
func (v *Vec) Reset(t Type, n int) { v.reset(t, n) }

// EnsureNull makes sure the null bitmap is allocated (and zeroed) for N
// bits, returning it; exported for columnar producers.
func (v *Vec) EnsureNull() Bitmap { return v.ensureNull() }

// ensureNull makes sure the null bitmap is allocated (and zeroed) for N
// bits, returning it.
func (v *Vec) ensureNull() Bitmap {
	if v.Null == nil {
		v.Null = make(Bitmap, bitmapWords(v.N))
	}
	return v.Null
}

// IsNullAt reports whether value i is NULL.
func (v *Vec) IsNullAt(i int) bool { return v.Null != nil && v.Null.Get(i) }

// Value materializes element i. NULLs come back as TypedNull(NullT),
// matching what the row interpreter would have produced for the operator
// that computed the vector.
func (v *Vec) Value(i int) Value {
	if v.IsNullAt(i) {
		if v.NullT == TNull {
			return NullValue()
		}
		return TypedNull(v.NullT)
	}
	switch v.T {
	case TInt:
		return NewInt(v.I[i])
	case TDate:
		return NewDate(v.I[i])
	case TFloat:
		return NewFloat(v.F[i])
	case TString:
		return NewString(v.S[i])
	case TBool:
		return NewBool(v.B.Get(i))
	}
	return NullValue()
}

// BuildColVec converts column idx of rows into a vector with declared
// lane type t. It reports false when the column is not lane-pure: some
// row is too narrow, or a non-NULL value's runtime type differs from t.
// NULL values of any type set the null bit (their payload is ignored by
// every kernel). Callers fall back to the row interpreter for the whole
// batch when conversion fails.
func BuildColVec(rows []Row, idx int, t Type, v *Vec) bool {
	n := len(rows)
	v.reset(t, n)
	v.NullT = t
	exact := true
	var nulls Bitmap
	for i, r := range rows {
		if idx < 0 || idx >= len(r) {
			return false
		}
		val := r[idx]
		if val.IsNull() {
			if nulls == nil {
				nulls = v.ensureNull()
			}
			nulls.Set(i)
			if exact && val != (Value{T: t, Null: true}) {
				exact = false
			}
			continue
		}
		if val.T != t {
			return false
		}
		switch t {
		case TInt, TDate:
			v.I[i] = val.I
			if exact && (val.F != 0 || val.S != "") {
				exact = false
			}
		case TFloat:
			v.F[i] = val.F
			if exact && (val.I != 0 || val.S != "") {
				exact = false
			}
		case TString:
			v.S[i] = val.S
			if exact && (val.I != 0 || val.F != 0) {
				exact = false
			}
		case TBool:
			if val.I != 0 {
				v.B.Set(i)
			}
			if exact && ((val.I != 0 && val.I != 1) || val.F != 0 || val.S != "") {
				exact = false
			}
		}
	}
	v.Exact = exact
	return true
}

// CopyFrom makes v an owned deep copy of src: lane contents, null
// bitmap, null-materialization type and exactness.
func (v *Vec) CopyFrom(src *Vec) {
	v.reset(src.T, src.N)
	v.NullT = src.NullT
	v.Exact = src.Exact
	switch src.T {
	case TInt, TDate:
		copy(v.I, src.I[:src.N])
	case TFloat:
		copy(v.F, src.F[:src.N])
	case TString:
		copy(v.S, src.S[:src.N])
	case TBool:
		copy(v.B, src.B[:bitmapWords(src.N)])
	}
	if src.Null != nil {
		copy(v.ensureNull(), src.Null[:bitmapWords(src.N)])
	}
}

// GatherFrom makes v the selection-ordered gather of src: element j of v
// is element sel[j] of src. A nil selection copies src densely.
func (v *Vec) GatherFrom(src *Vec, sel []int32) {
	if sel == nil {
		v.CopyFrom(src)
		return
	}
	v.reset(src.T, 0)
	v.NullT = src.NullT
	v.Exact = src.Exact
	v.AppendGather(src, sel)
}

// AppendGather appends element sel[j] of src — every element, in
// order, when sel is nil — to v, which must hold src's lane type (and
// materialize NULLs as src does, if src has any). It is how the joins
// grow a build side chunk by chunk and fill an output batch from
// several probe chunks.
func (v *Vec) AppendGather(src *Vec, sel []int32) {
	base, k := v.N, len(sel)
	if sel == nil {
		k = src.N
	}
	at := func(j int) int {
		if sel == nil {
			return j
		}
		return int(sel[j])
	}
	v.N = base + k
	switch src.T {
	case TInt, TDate:
		v.I = appendLane(v.I, src.I[:src.N], sel)
	case TFloat:
		v.F = appendLane(v.F, src.F[:src.N], sel)
	case TString:
		v.S = appendLane(v.S, src.S[:src.N], sel)
	case TBool:
		v.B = v.B.extend(v.N)
		for j := 0; j < k; j++ {
			if src.B.Get(at(j)) {
				v.B.Set(base + j)
			}
		}
	}
	if v.Null != nil {
		v.Null = v.Null.extend(v.N)
	}
	if src.Null != nil {
		for j := 0; j < k; j++ {
			if src.Null.Get(at(j)) {
				v.ensureNull().Set(base + j)
			}
		}
	}
}

func appendLane[T any](dst, src []T, sel []int32) []T {
	if sel == nil {
		return append(dst, src...)
	}
	base := len(dst)
	dst = slices.Grow(dst, len(sel))[:base+len(sel)]
	for j, si := range sel {
		dst[base+j] = src[si]
	}
	return dst
}

// Broadcast fills v with n copies of val. Exactness is computed from
// whether materializing an element reproduces val bit for bit (a NULL
// or bool carrying payload residue canonicalizes, for example).
func (v *Vec) Broadcast(val Value, n int) {
	v.reset(val.T, n)
	v.NullT = val.T
	if val.IsNull() {
		nulls := v.ensureNull()
		for i := range nulls {
			nulls[i] = ^uint64(0)
		}
	} else {
		switch val.T {
		case TInt, TDate:
			for i := range v.I {
				v.I[i] = val.I
			}
		case TFloat:
			for i := range v.F {
				v.F[i] = val.F
			}
		case TString:
			for i := range v.S {
				v.S[i] = val.S
			}
		case TBool:
			if val.I != 0 {
				for i := range v.B {
					v.B[i] = ^uint64(0)
				}
			}
		}
	}
	v.Exact = n == 0 || v.Value(0) == val
}
