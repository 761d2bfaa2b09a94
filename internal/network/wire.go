package network

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

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

// WireEncoder encodes batches into wire frames, reusing its scratch
// across calls. Not safe for concurrent use; each shipping operator
// owns one.
type WireEncoder struct {
	buf  []byte // Encode's frame
	col  colcodec.Builder
	hdr  int // the last frame's header length: where the next body starts
	last int // the last frame's length
	// size is scratch for the body length varint.
	size [binary.MaxVarintLen64]byte
}

// Encode serializes the batch into a frame. The returned slice is valid
// until the next Encode call on this encoder.
func (e *WireEncoder) Encode(rows []expr.Row) []byte {
	nCols := 0
	for _, r := range rows {
		nCols = max(nCols, len(r))
	}
	e.buf = e.appendFrame(e.buf[:0], len(rows), nCols, func(dst []byte, c int) []byte {
		return e.col.AppendRows(dst, rows, c)
	})
	return e.buf
}

// DropValues lets go of the strings the encoder holds from its last
// frame, its dictionary, keeping its storage.
func (e *WireEncoder) DropValues() { e.col.Reset() }

// EncodeCols appends to dst the frame of the first n rows of column
// vectors: the bytes Encode writes for the rows they materialize.
func (e *WireEncoder) EncodeCols(dst []byte, cols []expr.Vec, n int) []byte {
	return e.appendFrame(dst, n, len(cols), func(dst []byte, c int) []byte {
		return e.col.AppendVec(dst, &cols[c], n)
	})
}

// appendFrame appends a frame of nRows rows whose nCols columns col
// appends. The body is written where the last frame's body started, so
// it moves only when its length varint takes another number of bytes.
// dst first grows to hold the last frame's length, or a byte per value,
// rather than doubling its way up.
func (e *WireEncoder) appendFrame(dst []byte, nRows, nCols int, col func(dst []byte, c int) []byte) []byte {
	start := len(dst)
	guess := max(e.hdr, 4)
	dst = append(slices.Grow(dst, max(e.last, guess+nRows*nCols)), make([]byte, guess)...)
	dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(nRows)), uint64(nCols))
	for c := 0; c < nCols; c++ {
		dst = col(dst, c)
	}
	body := len(dst) - start - guess
	e.hdr = 3 + binary.PutUvarint(e.size[:], uint64(body))
	if e.hdr != guess {
		if e.hdr > guess {
			dst = slices.Grow(dst, e.hdr-guess)
		}
		dst = dst[:start+e.hdr+body]
		copy(dst[start+e.hdr:], dst[start+guess:start+guess+body])
	}
	dst[start], dst[start+1], dst[start+2] = wireMagic, wireVersion, 0
	copy(dst[start+3:start+e.hdr], e.size[:])
	e.last = len(dst) - start
	return dst
}

// EncodeBatch serializes one batch with a throwaway encoder and returns
// a fresh buffer.
func EncodeBatch(rows []expr.Row, _ WireOptions) []byte {
	return new(WireEncoder).Encode(rows)
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
