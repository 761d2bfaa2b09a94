// Package store implements the persistent per-site storage engine: a
// slotted-page pager over one file per table, a pin/unpin LRU buffer
// pool with a byte budget, a redo-only write-ahead log that makes loads
// crash-recoverable, and B+ tree secondary indexes over int64 and
// dictionary-interned string keys. The in-memory row store
// (internal/storage) fronts this engine when a data directory is
// configured; plans and results are byte-identical across the two
// backends, so the in-memory store stays the parity oracle.
package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"cgdqp/internal/expr"
)

// Value codec: each value is one tag byte (low bits: expr.Type, high
// bit: NULL) followed by a type-dependent payload. The codec stores the
// canonical representation of a value — the typed payload lane plus the
// NULL flag — so every value produced by the loaders and parsers
// round-trips exactly (cross-lane residue on hand-crafted Values is not
// representable, matching the exactness rules of expr.BuildColVec).
const nullBit = 0x80

// appendValue encodes v onto buf and returns the extended slice.
func appendValue(buf []byte, v expr.Value) []byte {
	tag := byte(v.T) & 0x7f
	if v.Null {
		buf = append(buf, tag|nullBit)
		return buf
	}
	buf = append(buf, tag)
	switch v.T {
	case expr.TNull:
		// No payload: TNull is NULL by definition.
	case expr.TInt, expr.TDate, expr.TBool:
		buf = binary.AppendVarint(buf, v.I)
	case expr.TFloat:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.F))
		buf = append(buf, b[:]...)
	case expr.TString:
		buf = binary.AppendUvarint(buf, uint64(len(v.S)))
		buf = append(buf, v.S...)
	default:
		// Unknown future type: store as NULL of that type so decode
		// stays well-formed.
		buf[len(buf)-1] = tag | nullBit
	}
	return buf
}

// decodeValue decodes one value from buf, returning the value and the
// number of bytes consumed.
func decodeValue(buf []byte) (expr.Value, int, error) { return decodeCell(buf, true) }

// skipValue returns the encoded length of the value at the head of buf,
// rejecting exactly what decodeValue rejects — a scan skips the columns
// no consumer reads, and must fail on a corrupt page whether or not it
// reads the corrupt cell — but allocating no string for it.
func skipValue(buf []byte) (int, error) {
	_, n, err := decodeCell(buf, false)
	return n, err
}

// decodeCell is decodeValue; with str false a string's bytes are
// checked but not copied out (S stays empty).
func decodeCell(buf []byte, str bool) (expr.Value, int, error) {
	if len(buf) == 0 {
		return expr.Value{}, 0, fmt.Errorf("store: truncated value")
	}
	tag := buf[0]
	t := expr.Type(tag & 0x7f)
	if t > expr.TDate {
		return expr.Value{}, 0, fmt.Errorf("store: invalid type tag %d", t)
	}
	if tag&nullBit != 0 {
		return expr.Value{T: t, Null: true}, 1, nil
	}
	switch t {
	case expr.TNull:
		return expr.Value{T: expr.TNull}, 1, nil
	case expr.TInt, expr.TDate, expr.TBool:
		i, n := binary.Varint(buf[1:])
		if n <= 0 {
			return expr.Value{}, 0, fmt.Errorf("store: bad varint payload")
		}
		return expr.Value{T: t, I: i}, 1 + n, nil
	case expr.TFloat:
		if len(buf) < 9 {
			return expr.Value{}, 0, fmt.Errorf("store: truncated float payload")
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(buf[1:9]))
		return expr.Value{T: t, F: f}, 9, nil
	case expr.TString:
		l, n := binary.Uvarint(buf[1:])
		if n <= 0 || l > uint64(len(buf)-1-n) {
			return expr.Value{}, 0, fmt.Errorf("store: bad string payload")
		}
		v := expr.Value{T: t}
		if str {
			v.S = string(buf[1+n : 1+n+int(l)])
		}
		return v, 1 + n + int(l), nil
	}
	return expr.Value{}, 0, fmt.Errorf("store: unreachable type tag %d", t)
}

// appendRow encodes every value of the row back-to-back.
func appendRow(buf []byte, row expr.Row) []byte {
	for _, v := range row {
		buf = appendValue(buf, v)
	}
	return buf
}

// decodeRow decodes nCols values from buf into a fresh row.
func decodeRow(buf []byte, nCols int) (expr.Row, int, error) {
	row := make(expr.Row, nCols)
	off := 0
	for i := 0; i < nCols; i++ {
		v, n, err := decodeValue(buf[off:])
		if err != nil {
			return nil, 0, err
		}
		row[i] = v
		off += n
	}
	return row, off, nil
}

// laneOf classifies a value for per-page lane purity tracking. A column
// is lane-pure when every value shares one concrete lane type, NULLs
// are typed NULLs of that lane, and no value carries cross-lane residue
// — exactly the conditions under which a column vector materializes
// the identical values (see expr.BuildColVec). laneImpure poisons the
// column; the decoder then takes the always-correct row path.
const (
	laneUnset  = 0xFE
	laneImpure = 0xFF
)

// mergeLane folds value v into the column's current lane byte.
func mergeLane(lane byte, v expr.Value) byte {
	if lane == laneImpure {
		return lane
	}
	t := v.T
	if v.Null {
		if lane == laneUnset {
			// A typed NULL seeds the lane; an untyped NULL poisons it
			// (TNull is not a vector lane).
			if t == expr.TNull {
				return laneImpure
			}
			return byte(t)
		}
		if byte(t) != lane {
			return laneImpure
		}
		return lane
	}
	pure := false
	switch t {
	case expr.TInt, expr.TDate:
		pure = v.F == 0 && v.S == ""
	case expr.TFloat:
		pure = v.I == 0 && v.S == ""
	case expr.TString:
		pure = v.I == 0 && v.F == 0
	case expr.TBool:
		pure = (v.I == 0 || v.I == 1) && v.F == 0 && v.S == ""
	}
	if !pure {
		return laneImpure
	}
	if lane == laneUnset {
		return byte(t)
	}
	if byte(t) != lane {
		return laneImpure
	}
	return lane
}
