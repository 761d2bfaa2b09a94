// Package store implements the per-site storage engine: slotted,
// checksummed pages behind one pager per table, a pin/unpin LRU buffer
// pool with a byte budget, and B+ tree secondary indexes over int64 and
// dictionary-interned string keys. With a data directory the pager is
// one file per table and a redo-only write-ahead log makes loads
// crash-recoverable; without one the pages live on a memory pager and
// there is nothing to recover. Everything above the pager is shared, so
// plans and results do not depend on which pager runs.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"cgdqp/internal/expr"
)

// Value codec: each value is one tag byte (low bits: expr.Type, high
// bit: NULL) followed by a type-dependent payload. The codec stores the
// canonical representation of a value — the typed payload lane plus the
// NULL flag, a BOOL as 0 or 1 — so every value produced by the loaders
// and parsers round-trips exactly (cross-lane residue on hand-crafted
// Values is not representable, matching the exactness rules of
// expr.BuildColVec). A table stores every value, NULLs included, under
// its column's declared type.
const nullBit = 0x80

// ErrColumnType marks a value, a page or a cell whose type is not its
// column's declared type: a refused load batch or an unreadable page.
var ErrColumnType = errors.New("store: value does not match its column type")

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
	case expr.TInt, expr.TDate:
		buf = binary.AppendVarint(buf, v.I)
	case expr.TBool:
		b := int64(0)
		if v.I != 0 {
			b = 1
		}
		buf = binary.AppendVarint(buf, b)
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
func decodeValue(buf []byte) (expr.Value, int, error) {
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
		return expr.Value{T: t, S: string(buf[1+n : 1+n+int(l)])}, 1 + n + int(l), nil
	}
	return expr.Value{}, 0, fmt.Errorf("store: unreachable type tag %d", t)
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
