// Package colcodec is the system's one column encoding. A wire frame
// carries a batch as one encoding per column, a page stores one per
// column (its minipages), and a WAL insert record carries the appended
// rows so, per page they land on; this package holds the only encoder
// and the only decoder of that format.
//
// One column of n values:
//
//	byte tag    lane of the non-NULL values (the expr.Type of TInt,
//	            TFloat, TString, TBool or TDate), 0 for a column with no
//	            non-NULL value, or TagMixed (0x0F) when the values
//	            disagree on their runtime type
//	byte flags  bit0: the column has NULLs; bit1: strings are
//	            dictionary-encoded
//	[byte nullT, NULL bitmap]  when bit0 is set: the type tag the NULLs
//	            carry (0 for an untyped NULL) and n bits, 1 = NULL
//	payload
//
// Lane payloads hold the non-NULL values only, in order: zig-zag
// varints for ints and dates, 8-byte little-endian IEEE floats, an n-bit
// map for booleans (NULL slots zero), and strings either plain (uvarint
// length + bytes each) or as a first-appearance dictionary (uvarint
// entry count, the entries, then one uvarint index per value). The
// dictionary is abandoned for plain strings when it grows past 4096
// entries or past 3/4 of the value count: it would cost more than it
// saves. Bitmaps are packed little-endian, bit i of byte i/8.
//
// A mixed column is the only per-value form: one byte per value, the
// type tag (0x80|type for a NULL of that type), then the non-NULL
// value's payload (a bool as one byte).
//
// Decoding reproduces each value exactly — type, NULL-ness and payload —
// so a decoded batch is indistinguishable from the encoded one.
package colcodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"cgdqp/internal/expr"
)

const (
	tagAllNull = 0x00
	// TagMixed tags a column in the per-value form, which has no vector.
	TagMixed = 0x0F

	flagNulls = 0x01
	flagDict  = 0x02

	dictMax = 4096 // entries; past it a string column is plain
)

var (
	// ErrCorrupt reports bytes that are not a column encoding.
	ErrCorrupt = errors.New("colcodec: corrupt column encoding")
	// ErrLane reports a well-formed column of another lane or NULL type
	// than the vector it is decoded into.
	ErrLane = errors.New("colcodec: column of another lane")
)

// Builder encodes one column grown a value at a time; Len is at every
// point the length Append writes, so a page fills exactly. Not safe for
// concurrent use.
type Builder struct {
	n, values, nulls  int
	lane, nullT       expr.Type // of the non-NULL values, of the NULLs
	mixed             bool      // the values disagree on their type
	nullBits, boolBit []byte
	payload           []byte // ints, dates, floats; strings plain
	dict              map[string]int
	words             []string
	idx               []byte // each string's dictionary index, a uvarint
	dictLen           int
	overflow          bool   // the dictionary grew past dictMax
	wordAt            int    // the count of values once the last entry came
	last              [2]int // payload and idx lengths before the last Add
}

// Reset empties b.
func (b *Builder) Reset() {
	if b.dict == nil {
		b.dict = make(map[string]int)
	}
	clear(b.dict)
	clear(b.words)
	*b = Builder{nullBits: b.nullBits[:0], boolBit: b.boolBit[:0], payload: b.payload[:0],
		dict: b.dict, words: b.words[:0], idx: b.idx[:0]}
}

// Add appends value x.
func (b *Builder) Add(x expr.Value) {
	b.last = [2]int{len(b.payload), len(b.idx)}
	if b.n%8 == 0 {
		b.nullBits, b.boolBit = append(b.nullBits, 0), append(b.boolBit, 0)
	}
	bit := byte(1) << uint(b.n%8)
	b.n++
	if x.IsNull() {
		b.mixed = b.mixed || b.nulls > 0 && x.T != b.nullT
		b.nulls++
		b.nullT = x.T
		b.nullBits[len(b.nullBits)-1] |= bit
		return
	}
	b.mixed = b.mixed || b.values > 0 && x.T != b.lane || x.T < expr.TInt || x.T > expr.TDate
	b.values++
	b.lane = x.T
	if x.T != expr.TBool {
		b.payload = appendPayload(b.payload, x)
	} else if x.I != 0 {
		b.boolBit[len(b.boolBit)-1] |= bit
	}
	if x.T != expr.TString || b.overflow {
		return
	}
	ix, ok := b.dict[x.S]
	if !ok {
		if ix = len(b.words); ix >= dictMax {
			b.overflow = true
			return
		}
		b.dict[x.S] = ix
		b.words, b.wordAt = append(b.words, x.S), b.n
		b.dictLen += uvarintLen(uint64(len(x.S))) + len(x.S)
	}
	b.idx = binary.AppendUvarint(b.idx, uint64(ix))
}

// Undo takes back the last Add, of x, to a lane-pure column of at most
// dictMax values.
func (b *Builder) Undo(x expr.Value) {
	n := b.n - 1
	b.nullBits[n/8] &^= 1 << uint(n%8)
	b.boolBit[n/8] &^= 1 << uint(n%8)
	b.nullBits, b.boolBit, b.n = b.nullBits[:(n+7)/8], b.boolBit[:(n+7)/8], n
	b.payload, b.idx = b.payload[:b.last[0]], b.idx[:b.last[1]]
	if x.IsNull() {
		b.nulls--
	} else {
		b.values--
	}
	if b.wordAt == n+1 {
		delete(b.dict, x.S)
		b.words, b.wordAt = b.words[:len(b.words)-1], 0
		b.dictLen -= uvarintLen(uint64(len(x.S))) + len(x.S)
	}
}

// Len returns the length of the encoding Append writes.
func (b *Builder) Len() int {
	size := 2
	if b.nulls > 0 {
		size += 1 + len(b.nullBits)
	}
	switch {
	case b.values == 0:
	case b.lane == expr.TBool:
		size += len(b.boolBit)
	case b.dictWins():
		size += uvarintLen(uint64(len(b.words))) + b.dictLen + len(b.idx)
	default:
		size += len(b.payload)
	}
	return size
}

// dictWins is the dictionary rule: the distinct strings of a string
// column are its encoding when at most dictMax of them take at most 3/4
// of its non-NULL values.
func (b *Builder) dictWins() bool {
	return b.lane == expr.TString && !b.overflow && len(b.words)*4 <= b.values*3
}

// Append appends the encoding of the values added to a lane-pure
// column.
func (b *Builder) Append(dst []byte) []byte {
	lane, flags := b.lane, byte(0)
	if b.values == 0 {
		lane = expr.TNull // tagAllNull
	}
	if b.nulls > 0 {
		flags |= flagNulls
	}
	if b.values > 0 && b.dictWins() {
		flags |= flagDict
	}
	dst = append(dst, byte(lane), flags)
	if b.nulls > 0 {
		dst = append(append(dst, byte(b.nullT)), b.nullBits...)
	}
	switch {
	case lane == expr.TBool:
		return append(dst, b.boolBit...)
	case flags&flagDict != 0:
		dst = binary.AppendUvarint(dst, uint64(len(b.words)))
		for _, w := range b.words {
			dst = appendString(dst, w)
		}
		return append(dst, b.idx...)
	case lane != expr.TNull:
		return append(dst, b.payload...)
	}
	return dst
}

// AppendVec appends the encoding of v's first n values: the bytes Add
// and Append write for the values v.Value(i) materializes, encoded
// straight from the lanes. NULL slots and bits past n of v's bitmaps
// may hold anything.
func (b *Builder) AppendVec(dst []byte, v *expr.Vec, n int) []byte {
	if v.T < expr.TInt || v.T > expr.TDate {
		return b.appendEach(dst, n, v.Value) // every value NULL
	}
	nulls := 0
	for i := 0; v.Null != nil && i < n; i += 64 {
		nulls += bits.OnesCount64(v.Null[i/64] & lowBits(n-i))
	}
	values, null := n-nulls, v.Null
	if nulls == 0 {
		null = nil
	}
	lane, flags := v.T, byte(0)
	if values == 0 {
		lane = expr.TNull // tagAllNull
	}
	if nulls > 0 {
		flags |= flagNulls
	}
	dst = append(dst, byte(lane), flags)
	flagAt := len(dst) - 1
	if nulls > 0 {
		dst = appendBits(append(dst, byte(v.NullT)), null, nil, n)
	}
	switch {
	case values == 0:
	case v.T == expr.TBool:
		dst = appendBits(dst, v.B, null, n)
	case v.T == expr.TFloat:
		for i := 0; i < n; i++ {
			if null == nil || !null.Get(i) {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F[i]))
			}
		}
	case v.T == expr.TString && b.dictOf(v.S, null, n, values):
		dst[flagAt] |= flagDict
		dst = binary.AppendUvarint(dst, uint64(len(b.words)))
		for _, w := range b.words {
			dst = appendString(dst, w)
		}
		dst = append(dst, b.idx...)
	case v.T == expr.TString:
		for i := 0; i < n; i++ {
			if null == nil || !null.Get(i) {
				dst = appendString(dst, v.S[i])
			}
		}
	default: // TInt, TDate
		for i := 0; i < n; i++ {
			if null == nil || !null.Get(i) {
				dst = binary.AppendUvarint(dst, uint64(v.I[i]<<1)^uint64(v.I[i]>>63))
			}
		}
	}
	return dst
}

// dictOf builds in b the dictionary of the first n strings of s, values
// of them not NULL, and reports whether the dictionary rule keeps it. It
// gives up at the first entry past what the rule allows.
func (b *Builder) dictOf(s []string, null expr.Bitmap, n, values int) bool {
	b.Reset()
	limit := min(dictMax, values*3/4)
	for i := 0; i < n; i++ {
		if null != nil && null.Get(i) {
			continue
		}
		ix, ok := b.dict[s[i]]
		if !ok {
			if ix = len(b.words); ix == limit {
				return false
			}
			b.dict[s[i]] = ix
			b.words = append(b.words, s[i])
		}
		b.idx = binary.AppendUvarint(b.idx, uint64(ix))
	}
	return true
}

// appendBits appends the first n bits of bm, cleared where clear (if
// not nil) is set, as (n+7)/8 packed bytes.
func appendBits(dst []byte, bm, clear expr.Bitmap, n int) []byte {
	for i := 0; i < n; i += 64 {
		x := bm[i/64] & lowBits(n-i)
		if clear != nil {
			x &^= clear[i/64]
		}
		if n-i >= 64 {
			dst = binary.LittleEndian.AppendUint64(dst, x)
			continue
		}
		for k := n - i; k > 0; k -= 8 {
			dst, x = append(dst, byte(x)), x>>8
		}
	}
	return dst
}

// lowBits returns a word of the low min(k, 64) bits set.
func lowBits(k int) uint64 {
	if k >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(k) - 1
}

// AppendRows appends the encoding of column c of rows, a row too short
// to reach it contributing an untyped NULL.
func (b *Builder) AppendRows(dst []byte, rows []expr.Row, c int) []byte {
	return b.appendEach(dst, len(rows), func(i int) expr.Value {
		if c < len(rows[i]) {
			return rows[i][c]
		}
		return expr.NullValue()
	})
}

// appendEach appends the encoding of n values: lane-pure, or else in
// the mixed form.
func (b *Builder) appendEach(dst []byte, n int, at func(int) expr.Value) []byte {
	b.Reset()
	for i := 0; i < n; i++ {
		b.Add(at(i))
	}
	if !b.mixed {
		return b.Append(dst)
	}
	dst = append(dst, TagMixed, 0)
	for i := 0; i < n; i++ {
		x := at(i)
		if x.IsNull() {
			dst = append(dst, 0x80|byte(x.T))
			continue
		}
		dst = appendPayload(append(dst, byte(x.T)), x)
	}
	return dst
}

// appendPayload appends a non-NULL value's payload: a zig-zag varint, 8
// IEEE bytes, a length and the bytes, or a bool as one byte.
func appendPayload(dst []byte, x expr.Value) []byte {
	switch x.T {
	case expr.TInt, expr.TDate:
		return binary.AppendUvarint(dst, uint64(x.I<<1)^uint64(x.I>>63))
	case expr.TFloat:
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(x.F))
	case expr.TString:
		return appendString(dst, x.S)
	case expr.TBool:
		if x.I != 0 {
			return append(dst, 1)
		}
		return append(dst, 0)
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// ---- decoding ----

type reader struct {
	b   []byte
	pos int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

func (r *reader) byte() byte {
	if r.err != nil || r.pos >= len(r.b) {
		r.fail("truncated")
		return 0
	}
	r.pos++
	return r.b[r.pos-1]
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.pos += n
	return x
}

func (r *reader) bytes(n uint64) []byte {
	if r.err != nil || n > uint64(len(r.b)-r.pos) {
		r.fail("truncated")
		return nil
	}
	r.pos += int(n)
	return r.b[r.pos-int(n) : r.pos]
}

func (r *reader) zigzag() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *reader) float() float64 {
	if b := r.bytes(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// bitAt reports bit i of a packed bitmap.
func bitAt(b []byte, i int) bool { return b[i>>3]>>uint(i&7)&1 != 0 }

// Decoder decodes column encodings, reusing its scratch across calls.
// Not safe for concurrent use.
type Decoder struct {
	words []string // a full decode's dictionary
	spans []int    // a selective decode's dictionary: entry bounds in b
}

// Decode decodes the lane-pure column encoding of n values at the start
// of b into v, reset to the column's lane and NULL type, and returns its
// length.
func (d *Decoder) Decode(b []byte, n int, v *expr.Vec) (int, error) {
	var hdr [3]byte // DecodeInto fails a shorter b
	copy(hdr[:], b)
	lane, nullT := expr.Type(hdr[0]), expr.TNull
	if hdr[1]&flagNulls != 0 {
		nullT = expr.Type(hdr[2])
	}
	if hdr[0] == tagAllNull {
		lane = nullT
	}
	v.Reset(lane, n)
	v.NullT = nullT
	return d.DecodeInto(b, n, nil, v, 0)
}

// DecodeInto decodes the column encoding of n values at the start of b
// into v, which holds its lane and its NULLs' type already: v's element
// base+j gets the value at position sel[j] (sel non-decreasing), or at
// position j when sel is nil, for every element up to v.N. A column of
// another lane or NULL type fails with ErrLane. It returns the bytes
// read, the encoding's length once every one of its n values is.
// Strings are allocated for the values taken only, a dictionary entry
// once per full decode.
func (d *Decoder) DecodeInto(b []byte, n int, sel []int32, v *expr.Vec, base int) (int, error) {
	r := &reader{b: b}
	tag, flags := r.byte(), r.byte()
	var nulls []byte
	if flags&flagNulls != 0 {
		if t := expr.Type(r.byte()); r.err == nil && t != v.NullT {
			return 0, fmt.Errorf("%w: NULLs of type %s in a column of %s", ErrLane, t, v.NullT)
		}
		nulls = r.bytes(uint64(n+7) / 8)
	}
	if r.err != nil {
		return 0, r.err
	}
	if tag != byte(v.T) && tag != tagAllNull {
		return 0, fmt.Errorf("%w: tag %#x in a %s column", ErrLane, tag, v.T)
	}
	k := v.N - base
	if sel != nil {
		k = len(sel)
	}
	if sel == nil && k > n || k > 0 && sel != nil && int(sel[k-1]) >= n {
		return 0, fmt.Errorf("%w: %d values wanted of %d", ErrCorrupt, k, n)
	}
	var vnull expr.Bitmap
	if nulls != nil {
		vnull = v.EnsureNull()
	}
	var boolBits []byte
	dict := false
	switch {
	case tag == tagAllNull:
		for i := 0; i < n; i++ {
			if nulls == nil || !bitAt(nulls, i) {
				return 0, fmt.Errorf("%w: a value in an all-NULL column", ErrCorrupt)
			}
		}
	case tag == byte(expr.TBool):
		boolBits = r.bytes(uint64(n+7) / 8)
	case tag == byte(expr.TString) && flags&flagDict != 0:
		dict = true
		dn := r.uvarint()
		if dn > dictMax {
			r.fail("dictionary of %d entries", dn)
		}
		d.words, d.spans = d.words[:0], d.spans[:0]
		for e := uint64(0); e < dn && r.err == nil; e++ {
			w := r.bytes(r.uvarint())
			if sel == nil {
				d.words = append(d.words, string(w))
			} else {
				d.spans = append(d.spans, r.pos-len(w), r.pos)
			}
		}
	case tag > byte(expr.TDate):
		return 0, fmt.Errorf("%w: unknown column tag %#x", ErrCorrupt, tag)
	}
	// Visit the wanted positions in order, skipping the payloads of the
	// non-NULL values between them; a position wanted again is read again.
	for i, j, last := 0, 0, 0; j < k && r.err == nil; i, j = i+1, j+1 {
		if sel != nil && int(sel[j]) < i {
			i, r.pos = i-1, last
		}
		if sel != nil && int(sel[j]) > i {
			skip := int(sel[j]) - i
			for ; i < int(sel[j]); i++ {
				if nulls != nil && bitAt(nulls, i) {
					skip--
				}
			}
			r.skip(v.T, dict, skip)
		}
		at := base + j
		last = r.pos
		if nulls != nil && bitAt(nulls, i) {
			vnull.Set(at)
			continue
		}
		switch v.T {
		case expr.TInt, expr.TDate:
			v.I[at] = r.zigzag()
		case expr.TFloat:
			v.F[at] = r.float()
		case expr.TBool:
			if bitAt(boolBits, i) {
				v.B.Set(at)
			}
		case expr.TString:
			if !dict {
				if w := r.bytes(r.uvarint()); r.err == nil {
					v.S[at] = string(w)
				}
				break
			}
			// One of words and spans is empty.
			switch ix := r.uvarint(); {
			case r.err != nil:
			case ix >= uint64(len(d.words)+len(d.spans)/2):
				r.fail("dictionary index %d", ix)
			case sel == nil:
				v.S[at] = d.words[ix]
			default:
				v.S[at] = string(b[d.spans[2*ix]:d.spans[2*ix+1]])
			}
		}
	}
	return r.pos, r.err
}

// skip reads past the payloads of cnt non-NULL values of lane t.
func (r *reader) skip(t expr.Type, dict bool, cnt int) {
	switch {
	case t == expr.TFloat:
		r.bytes(8 * uint64(cnt))
	case t == expr.TString && !dict:
		for ; cnt > 0 && r.err == nil; cnt-- {
			r.bytes(r.uvarint())
		}
	case t == expr.TInt, t == expr.TDate, t == expr.TString:
		// Count varint terminators (high bit clear), eight bytes at a time.
		for cnt > 0 && r.err == nil {
			if r.pos+8 <= len(r.b) {
				if c := bits.OnesCount64(^binary.LittleEndian.Uint64(r.b[r.pos:]) & 0x8080808080808080); c < cnt {
					cnt, r.pos = cnt-c, r.pos+8
					continue
				}
			}
			if r.byte() < 0x80 {
				cnt--
			}
		}
	}
}

// DecodeMixed decodes the mixed column of n values at the start of b
// and returns the values and the encoding's length.
func DecodeMixed(b []byte, n int) ([]expr.Value, int, error) {
	if len(b) < 2 || b[0] != TagMixed {
		return nil, 0, fmt.Errorf("%w: not a mixed column", ErrCorrupt)
	}
	r := &reader{b: b, pos: 2}
	vals := make([]expr.Value, n)
	for i := range vals {
		vt := r.byte() // 0 when b is short: an unknown tag
		if vt&0x80 != 0 {
			vals[i] = expr.TypedNull(expr.Type(vt &^ 0x80))
			continue
		}
		switch expr.Type(vt) {
		case expr.TInt:
			vals[i] = expr.NewInt(r.zigzag())
		case expr.TDate:
			vals[i] = expr.NewDate(r.zigzag())
		case expr.TFloat:
			vals[i] = expr.NewFloat(r.float())
		case expr.TString:
			vals[i] = expr.NewString(string(r.bytes(r.uvarint())))
		case expr.TBool:
			vals[i] = expr.NewBool(r.byte() != 0)
		default:
			return nil, 0, fmt.Errorf("%w: unknown value tag %#x", ErrCorrupt, vt)
		}
	}
	return vals, r.pos, r.err
}
