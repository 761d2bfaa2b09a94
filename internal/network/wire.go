package network

import (
	"encoding/binary"
	"errors"
	"fmt"

	"cgdqp/internal/colcodec"
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
// each column in the encoding of package colcodec, which pages and WAL
// records share. Decoding reproduces every value exactly, so a decoded
// batch is indistinguishable from the encoded one; the executor relies
// on that for results identical to the unshipped stream and for ledger
// parity.

const (
	wireMagic   = 0xC6
	wireVersion = 1

	wireFlagCompressed = 0x01
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
	col  colcodec.Builder
}

// Encode serializes the batch into a frame. The returned slice is valid
// until the next Encode call on this encoder.
func (e *WireEncoder) Encode(rows []expr.Row) []byte {
	nCols := 0
	for _, r := range rows {
		nCols = max(nCols, len(r))
	}
	e.body = e.dims(len(rows), nCols)
	for c := 0; c < nCols; c++ {
		e.body = e.col.AppendRows(e.body, rows, c)
	}
	return e.frame()
}

// EncodeCols is Encode over the first n rows of column vectors: the
// bytes Encode would produce from the rows they materialize.
func (e *WireEncoder) EncodeCols(cols []expr.Vec, n int) []byte {
	e.body = e.dims(n, len(cols))
	for c := range cols {
		e.body = e.col.AppendVec(e.body, &cols[c], n)
	}
	return e.frame()
}

func (e *WireEncoder) dims(nRows, nCols int) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(e.body[:0], uint64(nRows)), uint64(nCols))
}

func (e *WireEncoder) frame() []byte {
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

// ---- decoding ----

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

// dims reads and validates the body's row and column counts and returns
// the offset of its first column. Every column occupies at least its two
// header bytes.
func dims(body []byte) (nRows, nCols, pos int, err error) {
	rows, n1 := binary.Uvarint(body)
	if n1 <= 0 {
		return 0, 0, 0, ErrWireCorrupt
	}
	cols, n2 := binary.Uvarint(body[n1:])
	pos = n1 + n2
	if n2 <= 0 || rows > 1<<24 || cols > uint64(len(body)-pos)/2 || rows*cols > wireMaxCells {
		return 0, 0, 0, ErrWireCorrupt
	}
	return int(rows), int(cols), pos, nil
}

// DecodeBatch parses one frame produced by Encode and returns the rows.
// Unlike DecodeBatchCols it takes a frame with mixed columns too: Encode
// writes one for rows whose values disagree on their type.
func DecodeBatch(frame []byte) ([]expr.Row, error) {
	var b expr.Batch
	type column struct {
		c    int
		vals []expr.Value
	}
	var mixed []column
	if err := decode(frame, &b, func(c int, vals []expr.Value) {
		mixed = append(mixed, column{c, vals})
	}); err != nil {
		return nil, err
	}
	rows := b.Rows()
	for _, m := range mixed {
		for i, v := range m.vals {
			rows[i][m.c] = v
		}
	}
	return rows, nil
}

// ErrWireMixed reports a frame holding a mixed column, which has no
// vector form.
var ErrWireMixed = errors.New("network: wire frame holds a mixed column")

// DecodeBatchCols parses one frame directly into dst as column vectors,
// with no row materialization: the exchange operators feed decoded SHIP
// frames straight into columnar pipelines. Every decoded vector
// reproduces the encoded values exactly (lane payloads, NULL type
// tags). A frame holding a mixed column fails with ErrWireMixed.
func DecodeBatchCols(frame []byte, dst *expr.Batch) error {
	return decode(frame, dst, nil)
}

// decode parses frame's lane-pure columns into dst's vectors and hands
// each mixed column's values to mixed, leaving it unset in dst; with
// mixed nil, a mixed column fails the frame with ErrWireMixed.
func decode(frame []byte, dst *expr.Batch, mixed func(c int, vals []expr.Value)) error {
	body, err := decodeBody(frame)
	if err != nil {
		return err
	}
	nRows, nCols, pos, err := dims(body)
	if err != nil {
		return err
	}
	dst.StartCols(nCols, nRows)
	var d colcodec.Decoder
	for c := 0; c < nCols; c++ {
		var used int
		if pos < len(body) && body[pos] == colcodec.TagMixed {
			if mixed == nil {
				return fmt.Errorf("%w: column %d", ErrWireMixed, c)
			}
			var vals []expr.Value
			if vals, used, err = colcodec.DecodeMixed(body[pos:], nRows); err == nil {
				mixed(c, vals)
			}
		} else {
			used, err = d.Decode(body[pos:], nRows, dst.OwnCol(c))
		}
		if err != nil {
			return fmt.Errorf("%w: column %d: %v", ErrWireCorrupt, c, err)
		}
		pos += used
	}
	if pos != len(body) {
		return fmt.Errorf("%w: %d trailing bytes", ErrWireCorrupt, len(body)-pos)
	}
	return nil
}
