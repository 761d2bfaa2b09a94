package expr

import "slices"

// Columnar value vectors. A Vec is the column-at-a-time counterpart of a
// Row slice: one typed lane (int64/float64/string/bool) plus a null
// bitmap. Vectors are the executor's one data form and the currency of
// the compiled expression kernels (see compile.go).

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
// TypedNull results): one per vector.
type Vec struct {
	T     Type
	NullT Type
	N     int
	I     []int64
	F     []float64
	S     []string
	B     Bitmap
	Null  Bitmap
}

// reset prepares the vector to hold n values of lane type t, reusing
// existing storage. The null bitmap is cleared (nil).
func (v *Vec) reset(t Type, n int) {
	v.T = t
	v.NullT = t
	v.N = n
	v.Null = nil
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

// allNull reports whether every element is NULL.
func (v *Vec) allNull() bool {
	if v.Null == nil {
		return v.N == 0
	}
	for i := 0; i < v.N; i++ {
		if !v.Null.Get(i) {
			return false
		}
	}
	return true
}

// Append appends x, a NULL or a value of v's lane type, and reports
// whether it could: a value of another type has no place in the lane.
// The first NULL sets the type the vector's NULLs carry.
func (v *Vec) Append(x Value) bool {
	if !x.IsNull() && x.T != v.T {
		return false
	}
	i := v.N
	v.N++
	switch v.T {
	case TInt, TDate:
		v.I = append(v.I, x.I)
	case TFloat:
		v.F = append(v.F, x.F)
	case TString:
		v.S = append(v.S, x.S)
	case TBool:
		v.B = v.B.extend(v.N)
		if x.I != 0 && !x.IsNull() {
			v.B.Set(i)
		}
	}
	if v.Null != nil {
		v.Null = v.Null.extend(v.N)
	}
	if x.IsNull() {
		if v.Null == nil {
			v.NullT = x.T
		}
		v.ensureNull()
		v.Null = v.Null.extend(v.N)
		v.Null.Set(i)
	}
	return true
}

// CopyFrom makes v an owned deep copy of src: lane contents, null
// bitmap and null-materialization type.
func (v *Vec) CopyFrom(src *Vec) {
	v.reset(src.T, src.N)
	v.NullT = src.NullT
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
	v.AppendGather(src, sel)
}

// AppendGather appends element sel[j] of src — every element, in
// order, when sel is nil — to v, which must hold src's lane type. NULLs
// keep the type v's NULLs carry, src's when v has none yet. It is how
// the joins grow a build side chunk by chunk and fill an output batch
// from several probe chunks.
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
		if v.Null == nil {
			v.NullT = src.NullT
		}
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

// Broadcast fills v with n copies of val.
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
}
