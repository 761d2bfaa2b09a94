package network

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"cgdqp/internal/expr"
)

// Wire format. A shipped batch travels as one self-delimiting frame:
//
//	byte    magic (0xC6)
//	byte    version (1)
//	byte    flags (0; bit0 is reserved for a compressed body and rejected)
//	uvarint body length in bytes
//	body
//
// The body is columnar:
//
//	uvarint row count
//	uvarint column count
//	column*
//
// Each column starts with a tag byte and a flag byte. The tag names the
// lane of the non-NULL values (colInt, colFloat, colString, colBool,
// colDate), colAllNull for a column with no non-NULL values, or
// colMixed when the rows disagree on a value's runtime type (then every
// value carries its own tag and the column is self-describing). Flags:
// bit0 — the column has NULLs, in which case a NULL-type byte (the type
// tag NULL values carry, 0 for untyped NULL) and a bit-packed validity
// bitmap (1 = NULL) follow; bit1 — string data is dictionary-encoded.
//
// Lane payloads store non-NULL values only, in row order: zig-zag
// varints for ints and dates, 8-byte little-endian IEEE floats,
// bit-packed booleans (a full n-bit map, NULL slots zero), and strings
// either plain (uvarint length + bytes each) or as a first-appearance
// dictionary (uvarint entry count, entries, then one uvarint index per
// value). The dictionary is abandoned for plain encoding when it grows
// past wireDictMax distinct entries or past 3/4 of the value count —
// at that point it would cost more than it saves.
//
// Decoding reconstructs each expr.Value exactly — type, NULL-ness and
// payload — so a decoded batch is indistinguishable from the encoded
// one; the executor relies on that for results identical to the
// unshipped stream and for ledger parity.

const (
	wireMagic   = 0xC6
	wireVersion = 1

	wireFlagCompressed = 0x01

	colAllNull = 0x00
	colInt     = byte(expr.TInt)
	colFloat   = byte(expr.TFloat)
	colString  = byte(expr.TString)
	colBool    = byte(expr.TBool)
	colDate    = byte(expr.TDate)
	colMixed   = 0x0F

	colFlagNulls = 0x01
	colFlagDict  = 0x02

	// wireDictMax caps the string dictionary; past it the column is
	// re-encoded plain. Kept small enough that a dictionary always fits
	// comfortably in one frame.
	wireDictMax = 4096
)

// ErrWireCorrupt reports a frame that does not parse.
var ErrWireCorrupt = errors.New("network: corrupt wire frame")

// WireOptions configures batch encoding. It has no fields left; the type
// and EncodeBatch's parameter stay for the benchmark module's call sites.
type WireOptions struct{}

// WireEncoder encodes row batches into wire frames, reusing its buffers
// across calls. Not safe for concurrent use; each shipping operator
// owns one.
type WireEncoder struct {
	buf  []byte
	body []byte
	col  []expr.Value // the column being encoded
	dict map[string]int
}

// frameSrc is what one frame is encoded from: rows, or the vectors of a
// column-backed batch. The rows of such a batch are by definition its
// vectors' Value(i), which is what column hands the encoder, so either
// form of the same batch encodes to the same bytes.
type frameSrc struct {
	rows []expr.Row
	cols []expr.Vec
	n    int
}

// column appends the n values of column c to dst; a row too short to
// reach the column contributes an untyped NULL.
func (s *frameSrc) column(dst []expr.Value, c int) []expr.Value {
	if s.cols != nil {
		for i := 0; i < s.n; i++ {
			dst = append(dst, s.cols[c].Value(i))
		}
		return dst
	}
	for _, r := range s.rows {
		if c < len(r) {
			dst = append(dst, r[c])
		} else {
			dst = append(dst, expr.NullValue())
		}
	}
	return dst
}

// Encode serializes the batch into a frame. The returned slice is valid
// until the next Encode call on this encoder.
func (e *WireEncoder) Encode(rows []expr.Row) []byte {
	nCols := 0
	for _, r := range rows {
		if len(r) > nCols {
			nCols = len(r)
		}
	}
	return e.encode(&frameSrc{rows: rows, n: len(rows)}, nCols)
}

// EncodeCols is Encode over the first n rows of column vectors: the
// bytes Encode would produce from the rows they materialize.
func (e *WireEncoder) EncodeCols(cols []expr.Vec, n int) []byte {
	return e.encode(&frameSrc{cols: cols, n: n}, len(cols))
}

func (e *WireEncoder) encode(src *frameSrc, nCols int) []byte {
	e.body = binary.AppendUvarint(e.body[:0], uint64(src.n))
	e.body = binary.AppendUvarint(e.body, uint64(nCols))
	for c := 0; c < nCols; c++ {
		e.col = src.column(e.col[:0], c)
		e.body = appendColumn(e.body, e.col, e)
	}
	e.buf = append(e.buf[:0], wireMagic, wireVersion, 0)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(e.body)))
	return append(e.buf, e.body...)
}

// EncodeBatch serializes one batch with a throwaway encoder and returns
// a fresh buffer.
func EncodeBatch(rows []expr.Row, _ WireOptions) []byte {
	var e WireEncoder
	return append([]byte(nil), e.Encode(rows)...)
}

// colShape classifies column c: the shared lane of the non-NULL values
// (0 if there are none), the shared type tag of the NULLs, and whether
// the column is lane-pure at all. A row too short to reach the column
// contributes an untyped NULL.
func colShape(col []expr.Value) (lane, nullT byte, hasNulls, pure bool) {
	nullT = 0xFF // unset
	for _, v := range col {
		if v.IsNull() {
			hasNulls = true
			if nullT == 0xFF {
				nullT = byte(v.T)
			} else if nullT != byte(v.T) {
				return 0, 0, true, false
			}
			continue
		}
		if lane == 0 {
			lane = byte(v.T)
		} else if lane != byte(v.T) {
			return 0, 0, hasNulls, false
		}
	}
	if nullT == 0xFF {
		nullT = 0
	}
	return lane, nullT, hasNulls, true
}

func appendColumn(dst []byte, col []expr.Value, e *WireEncoder) []byte {
	lane, nullT, hasNulls, pure := colShape(col)
	if !pure {
		return appendMixedColumn(dst, col)
	}
	tag := lane
	if lane == 0 {
		tag = colAllNull
	}
	flags := byte(0)
	if hasNulls {
		flags |= colFlagNulls
	}
	var dict []string
	var dictIdx []int
	if lane == colString {
		dict, dictIdx = buildDict(col, e)
		if dict != nil {
			flags |= colFlagDict
		}
	}
	dst = append(dst, tag, flags)
	if hasNulls {
		dst = append(dst, nullT)
		dst = appendNullBitmap(dst, col)
	}
	switch lane {
	case 0:
		// All-NULL: the bitmap says it all.
	case colInt, colDate:
		for _, v := range col {
			if !v.IsNull() {
				dst = appendZigzag(dst, v.I)
			}
		}
	case colFloat:
		for _, v := range col {
			if !v.IsNull() {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
			}
		}
	case colBool:
		dst = appendBoolBits(dst, col)
	case colString:
		if dict != nil {
			dst = binary.AppendUvarint(dst, uint64(len(dict)))
			for _, s := range dict {
				dst = binary.AppendUvarint(dst, uint64(len(s)))
				dst = append(dst, s...)
			}
			for _, ix := range dictIdx {
				dst = binary.AppendUvarint(dst, uint64(ix))
			}
		} else {
			for _, v := range col {
				if !v.IsNull() {
					dst = binary.AppendUvarint(dst, uint64(len(v.S)))
					dst = append(dst, v.S...)
				}
			}
		}
	}
	return dst
}

// buildDict collects the column's distinct strings in first-appearance
// order and the per-value indexes. It returns (nil, nil) when the
// dictionary overflows wireDictMax or exceeds 3/4 of the value count —
// then plain encoding is cheaper.
func buildDict(col []expr.Value, e *WireEncoder) ([]string, []int) {
	if e.dict == nil {
		e.dict = make(map[string]int)
	} else {
		clear(e.dict)
	}
	var dict []string
	var idx []int
	for _, v := range col {
		if v.IsNull() {
			continue
		}
		ix, ok := e.dict[v.S]
		if !ok {
			ix = len(dict)
			if ix >= wireDictMax {
				return nil, nil
			}
			e.dict[v.S] = ix
			dict = append(dict, v.S)
		}
		idx = append(idx, ix)
	}
	if len(idx) > 0 && len(dict)*4 > len(idx)*3 {
		return nil, nil
	}
	return dict, idx
}

func appendNullBitmap(dst []byte, col []expr.Value) []byte {
	n := len(col)
	start := len(dst)
	dst = append(dst, make([]byte, (n+7)/8)...)
	for i, v := range col {
		if v.IsNull() {
			dst[start+i/8] |= 1 << uint(i%8)
		}
	}
	return dst
}

func appendBoolBits(dst []byte, col []expr.Value) []byte {
	n := len(col)
	start := len(dst)
	dst = append(dst, make([]byte, (n+7)/8)...)
	for i, v := range col {
		if !v.IsNull() && v.I != 0 {
			dst[start+i/8] |= 1 << uint(i%8)
		}
	}
	return dst
}

// appendMixedColumn writes one self-describing value per row:
// byte (0x80|typeTag for NULL of that type, plain tag otherwise), then
// the payload for non-NULLs.
func appendMixedColumn(dst []byte, col []expr.Value) []byte {
	dst = append(dst, colMixed, 0)
	for _, v := range col {
		if v.IsNull() {
			dst = append(dst, 0x80|byte(v.T))
			continue
		}
		dst = append(dst, byte(v.T))
		switch v.T {
		case expr.TInt, expr.TDate:
			dst = appendZigzag(dst, v.I)
		case expr.TFloat:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
		case expr.TString:
			dst = binary.AppendUvarint(dst, uint64(len(v.S)))
			dst = append(dst, v.S...)
		case expr.TBool:
			b := byte(0)
			if v.I != 0 {
				b = 1
			}
			dst = append(dst, b)
		}
	}
	return dst
}

func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

// ---- decoding ----

type wireReader struct {
	b   []byte
	pos int
	err error
}

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = ErrWireCorrupt
	}
}

func (r *wireReader) byte() byte {
	if r.err != nil || r.pos >= len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.pos]
	r.pos++
	return v
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

func (r *wireReader) zigzag() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *wireReader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.pos+n > len(r.b) {
		r.fail()
		return nil
	}
	v := r.b[r.pos : r.pos+n]
	r.pos += n
	return v
}

func (r *wireReader) float() float64 {
	b := r.bytes(8)
	if r.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// decodeBody validates the frame envelope and returns the body.
func decodeBody(frame []byte) ([]byte, error) {
	if len(frame) < 3 || frame[0] != wireMagic || frame[1] != wireVersion {
		return nil, ErrWireCorrupt
	}
	if frame[2]&wireFlagCompressed != 0 {
		return nil, ErrWireCorrupt // no encoder of this version compresses
	}
	bodyLen, n := binary.Uvarint(frame[3:])
	if n <= 0 {
		return nil, ErrWireCorrupt
	}
	body := frame[3+n:]
	if uint64(len(body)) != bodyLen {
		return nil, ErrWireCorrupt
	}
	return body, nil
}

// wireMaxCells caps rows × columns of one frame. The header is outside
// input: without the cap a few corrupt bytes make the decoder allocate
// terabytes before it notices the body is short.
const wireMaxCells = 1 << 22

// dims reads and validates the frame's row and column counts. Every
// column occupies at least its two header bytes.
func (r *wireReader) dims() (nRows, nCols int, err error) {
	rows, cols := r.uvarint(), r.uvarint()
	if r.err != nil || rows > 1<<24 || cols > uint64(len(r.b)-r.pos)/2 || rows*cols > wireMaxCells {
		return 0, 0, ErrWireCorrupt
	}
	return int(rows), int(cols), nil
}

// DecodeBatch parses one frame produced by Encode and returns the rows:
// the row view of the batch DecodeBatchCols decodes.
func DecodeBatch(frame []byte) ([]expr.Row, error) {
	var b expr.Batch
	if err := DecodeBatchCols(frame, &b); err != nil {
		return nil, err
	}
	return b.Rows(), nil
}

// DecodeBatchCols parses one frame directly into dst as owned column
// vectors, with no intermediate row materialization: the batch engine's
// exchange operators feed decoded SHIP frames straight into columnar
// pipelines. Every decoded vector reproduces the encoded values exactly
// (lane payloads, NULL type tags), so a consumer that does materialize
// rows gets the encoded tuples bit for bit. A mixed (not lane-pure)
// column has no vector form: a frame containing one is decoded by
// columns all the same and dst left row-backed over the result.
func DecodeBatchCols(frame []byte, dst *expr.Batch) error {
	body, err := decodeBody(frame)
	if err != nil {
		return err
	}
	r := &wireReader{b: body}
	nRows, nCols, err := r.dims()
	if err != nil {
		return err
	}
	dst.StartCols(nCols, nRows)
	var mixed [][]expr.Value // per column; nil for a lane-pure one
	for c := 0; c < nCols; c++ {
		ok, err := decodeColumnVec(r, dst, c, nRows)
		if err != nil {
			return err
		}
		if !ok {
			if mixed == nil {
				mixed = make([][]expr.Value, nCols)
			}
			if mixed[c], err = decodeMixedColumn(r, nRows); err != nil {
				return err
			}
		}
	}
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrWireCorrupt, len(r.b)-r.pos)
	}
	dst.FinishCols()
	if mixed != nil {
		rows := dst.Rows()
		for c, vals := range mixed {
			for i, v := range vals {
				rows[i][c] = v
			}
		}
		dst.SetRows(rows)
	}
	return nil
}

// decodeColumnVec decodes one lane-pure column into dst's column c. ok
// is false (without error) for a colMixed tag, which has no vector form:
// the column stays unset and its values follow (decodeMixedColumn).
func decodeColumnVec(r *wireReader, dst *expr.Batch, c, n int) (bool, error) {
	tag := r.byte()
	flags := r.byte()
	if r.err != nil {
		return false, r.err
	}
	if tag == colMixed {
		return false, nil
	}
	v := dst.OwnCol(c)
	var nullBytes []byte
	nullT := expr.TNull
	if flags&colFlagNulls != 0 {
		nullT = expr.Type(r.byte())
		nullBytes = r.bytes((n + 7) / 8)
		if r.err != nil {
			return false, r.err
		}
	}
	isNull := func(i int) bool {
		return nullBytes != nil && nullBytes[i/8]&(1<<uint(i%8)) != 0
	}
	lane := expr.Type(tag)
	if tag == colAllNull {
		// Give the all-NULL column its NULLs' lane so typed consumers can
		// still bind it; values materialize as the encoded typed NULLs.
		lane = nullT
	}
	v.Reset(lane, n)
	v.NullT = nullT
	var nulls expr.Bitmap
	if nullBytes != nil {
		nulls = v.EnsureNull()
		for i := 0; i < n; i++ {
			if isNull(i) {
				nulls.Set(i)
			}
		}
	}
	switch tag {
	case colAllNull:
		// The bitmap said it all.
	case colInt, colDate:
		for i := 0; i < n; i++ {
			if isNull(i) {
				continue
			}
			v.I[i] = r.zigzag()
		}
	case colFloat:
		for i := 0; i < n; i++ {
			if isNull(i) {
				continue
			}
			v.F[i] = r.float()
		}
	case colBool:
		bits := r.bytes((n + 7) / 8)
		if r.err != nil {
			return false, r.err
		}
		// NULL slots are encoded as zero bits, so a straight copy of the
		// set bits reproduces both value and NULL semantics.
		for i := 0; i < n; i++ {
			if bits[i/8]&(1<<uint(i%8)) != 0 {
				v.B.Set(i)
			}
		}
	case colString:
		if flags&colFlagDict != 0 {
			dn := int(r.uvarint())
			if r.err != nil || dn < 0 || dn > wireDictMax {
				r.fail()
				return false, r.err
			}
			dict := make([]string, dn)
			for j := range dict {
				dict[j] = string(r.bytes(int(r.uvarint())))
			}
			for i := 0; i < n; i++ {
				if isNull(i) {
					v.S[i] = ""
					continue
				}
				ix := int(r.uvarint())
				if r.err != nil || ix >= dn {
					r.fail()
					return false, r.err
				}
				v.S[i] = dict[ix]
			}
		} else {
			for i := 0; i < n; i++ {
				if isNull(i) {
					v.S[i] = ""
					continue
				}
				v.S[i] = string(r.bytes(int(r.uvarint())))
			}
		}
	default:
		return false, fmt.Errorf("%w: unknown column tag %#x", ErrWireCorrupt, tag)
	}
	return true, r.err
}

func decodeMixedColumn(r *wireReader, n int) ([]expr.Value, error) {
	vals := make([]expr.Value, n)
	for i := range vals {
		vt := r.byte()
		if r.err != nil {
			return nil, r.err
		}
		if vt&0x80 != 0 {
			t := expr.Type(vt &^ 0x80)
			if t == expr.TNull {
				vals[i] = expr.NullValue()
			} else {
				vals[i] = expr.TypedNull(t)
			}
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
			vals[i] = expr.NewString(string(r.bytes(int(r.uvarint()))))
		case expr.TBool:
			vals[i] = expr.NewBool(r.byte() != 0)
		default:
			return nil, fmt.Errorf("%w: unknown value tag %#x", ErrWireCorrupt, vt)
		}
	}
	return vals, r.err
}
