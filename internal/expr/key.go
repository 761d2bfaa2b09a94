package expr

import (
	"encoding/binary"
	"math"
)

// Binary grouping keys. Hash aggregation identifies a group by the
// concatenated AppendKey encodings of its key values. The
// encoding is type-tagged and length-prefixed, so distinct value lists
// can never collide, and the vectorized AppendKeyAt produces byte-for-
// byte the same encoding from a column vector that AppendKey produces
// from the materialized Value — grouping identity is independent of the
// evaluation path. All NULLs encode identically regardless of their
// type tag, preserving SQL's NULL-groups-together rule.

const (
	keyNull   = 0x00
	keyInt    = 0x01
	keyFloat  = 0x02
	keyString = 0x03
	keyBool   = 0x04
	keyDate   = 0x05
)

// AppendKey appends the grouping-key encoding of v to dst.
func AppendKey(dst []byte, v Value) []byte {
	if v.IsNull() {
		return append(dst, keyNull)
	}
	switch v.T {
	case TInt:
		dst = append(dst, keyInt)
		return binary.LittleEndian.AppendUint64(dst, uint64(v.I))
	case TFloat:
		dst = append(dst, keyFloat)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
	case TString:
		dst = append(dst, keyString)
		dst = binary.AppendUvarint(dst, uint64(len(v.S)))
		return append(dst, v.S...)
	case TBool:
		b := byte(0)
		if v.I != 0 {
			b = 1
		}
		return append(dst, keyBool, b)
	case TDate:
		dst = append(dst, keyDate)
		return binary.LittleEndian.AppendUint64(dst, uint64(v.I))
	}
	return append(dst, keyNull)
}

// AppendKeyAt appends the grouping-key encoding of element i of the
// vector to dst, identical to AppendKey(dst, v.Value(i)).
func (v *Vec) AppendKeyAt(dst []byte, i int) []byte {
	if v.IsNullAt(i) {
		return append(dst, keyNull)
	}
	switch v.T {
	case TInt:
		dst = append(dst, keyInt)
		return binary.LittleEndian.AppendUint64(dst, uint64(v.I[i]))
	case TFloat:
		dst = append(dst, keyFloat)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F[i]))
	case TString:
		dst = append(dst, keyString)
		dst = binary.AppendUvarint(dst, uint64(len(v.S[i])))
		return append(dst, v.S[i]...)
	case TBool:
		b := byte(0)
		if v.B.Get(i) {
			b = 1
		}
		return append(dst, keyBool, b)
	case TDate:
		dst = append(dst, keyDate)
		return binary.LittleEndian.AppendUint64(dst, uint64(v.I[i]))
	}
	return append(dst, keyNull)
}

// HashAt returns Value.Hash of element i of the vector without
// materializing the Value: identical bytes feed the same FNV-1a mix.
func (v *Vec) HashAt(i int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	if v.IsNullAt(i) {
		return (h ^ 0xff) * prime64
	}
	switch v.T {
	case TString:
		s := v.S[i]
		for j := 0; j < len(s); j++ {
			h = (h ^ uint64(s[j])) * prime64
		}
	case TBool:
		b := uint64(0)
		if v.B.Get(i) {
			b = 1
		}
		h = (h ^ b) * prime64
	default:
		var f float64
		if v.T == TFloat {
			f = v.F[i]
		} else {
			f = float64(v.I[i])
		}
		bits := math.Float64bits(f)
		for j := 0; j < 8; j++ {
			h = (h ^ uint64(byte(bits>>(8*j)))) * prime64
		}
	}
	return h
}
