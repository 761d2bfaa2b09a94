package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"cgdqp/internal/expr"
)

// Slotted-page layout (fixed PageSize bytes):
//
//	[0:4)    magic "CGSP"
//	[4:6)    format version
//	[6:8)    nRows
//	[8:12)   freeOff — first free byte of the row-data heap
//	[12:16)  crc32 (IEEE) over the whole page with this field zeroed
//	[16:20)  reserved (LSN slot for a future undo/redo upgrade)
//	[20:20+nCols) per-column lane byte: the column's declared expr.Type,
//	         written once by initPage; every cell of the column carries
//	         that type's tag, so pages decode straight into column vectors
//	[20+nCols:freeOff) row-data heap, rows encoded with the value codec
//	[...:PageSize) slot directory growing down from the page end:
//	         slot i is a u16 heap offset at PageSize-2(i+1)
const (
	PageSize    = 8192
	pageMagic   = 0x43475350 // "CGSP"
	pageVersion = 1
	pageHdrSize = 20
)

// pageDataStart returns the offset of the row-data heap.
func pageDataStart(nCols int) int { return pageHdrSize + nCols }

// initPage formats buf as an empty page for a table of the given
// column types.
func initPage(buf []byte, types []expr.Type) {
	clear(buf)
	binary.LittleEndian.PutUint32(buf[0:4], pageMagic)
	binary.LittleEndian.PutUint16(buf[4:6], pageVersion)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(pageDataStart(len(types))))
	for c, t := range types {
		buf[pageHdrSize+c] = byte(t)
	}
}

func pageNRows(buf []byte) int   { return int(binary.LittleEndian.Uint16(buf[6:8])) }
func pageFreeOff(buf []byte) int { return int(binary.LittleEndian.Uint32(buf[8:12])) }

// pageSlot returns the heap offset of row i.
func pageSlot(buf []byte, i int) int {
	return int(binary.LittleEndian.Uint16(buf[PageSize-2*(i+1):]))
}

// pageChecksum computes the page CRC with the crc field treated as zero.
func pageChecksum(buf []byte) uint32 {
	crc := crc32.ChecksumIEEE(buf[0:12])
	var zero [4]byte
	crc = crc32.Update(crc, crc32.IEEETable, zero[:])
	return crc32.Update(crc, crc32.IEEETable, buf[16:PageSize])
}

// sealPage stamps the checksum before the page goes to disk.
func sealPage(buf []byte) {
	binary.LittleEndian.PutUint32(buf[12:16], pageChecksum(buf))
}

// validPage checks that buf is a well-formed, checksummed page whose
// lane bytes are the table's column types. A page of other lanes —
// written before the store was typed, when an untyped NULL or an
// off-type value could land in any column — fails with ErrColumnType.
func validPage(buf []byte, types []expr.Type) error {
	if len(buf) != PageSize || binary.LittleEndian.Uint32(buf[0:4]) != pageMagic ||
		binary.LittleEndian.Uint16(buf[4:6]) != pageVersion ||
		binary.LittleEndian.Uint32(buf[12:16]) != pageChecksum(buf) {
		return errors.New("failed checksum")
	}
	if free := pageFreeOff(buf); free < pageDataStart(len(types)) || free > PageSize-2*pageNRows(buf) {
		return errors.New("corrupt header")
	}
	for c, t := range types {
		if lane := buf[pageHdrSize+c]; lane != byte(t) {
			return fmt.Errorf("%w: column %d has lane byte %#x, declared %s", ErrColumnType, c, lane, t)
		}
	}
	return nil
}

// pageAppend adds one encoded row to the page in place, updating the
// slot directory. It reports false when the row does not fit (the
// caller then opens a fresh page).
func pageAppend(buf []byte, enc []byte) bool {
	n := pageNRows(buf)
	free := pageFreeOff(buf)
	if free+len(enc) > PageSize-2*(n+1) || n == maxRowsPerPage {
		return false
	}
	copy(buf[free:], enc)
	binary.LittleEndian.PutUint16(buf[PageSize-2*(n+1):], uint16(free))
	binary.LittleEndian.PutUint16(buf[6:8], uint16(n+1))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(free+len(enc)))
	return true
}

// maxRowsPerPage bounds the slot directory (u16 offsets, 2 bytes each).
const maxRowsPerPage = 2048

// decodePageRow decodes row i of the page, whose cells must carry the
// column types.
func decodePageRow(buf []byte, i int, types []expr.Type) (expr.Row, error) {
	n := pageNRows(buf)
	if i < 0 || i >= n {
		return nil, fmt.Errorf("store: row %d out of range (page holds %d)", i, n)
	}
	off := pageSlot(buf, i)
	if off < pageDataStart(len(types)) || off >= PageSize {
		return nil, fmt.Errorf("store: corrupt slot offset %d", off)
	}
	row, _, err := decodeRow(buf[off:], len(types))
	if err != nil {
		return nil, err
	}
	for c, v := range row {
		if v.T != types[c] || v.T == expr.TNull && !v.Null {
			return nil, fmt.Errorf("%w: row %d column %d holds %s, declared %s", ErrColumnType, i, c, v.T, types[c])
		}
	}
	return row, nil
}

// decodePageRows decodes rows [0, limit) of the page into out.
func decodePageRows(buf []byte, limit int, types []expr.Type, out []expr.Row) ([]expr.Row, error) {
	for i := 0; i < limit; i++ {
		row, err := decodePageRow(buf, i, types)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// cellWalker is the columnar reader of pages. The table's column types
// are the lanes: every cell's tag is checked against its lane (a TNull
// lane holds NULL cells only) and its payload read by lane (a float is 9 bytes, an int, date or bool a
// varint, a string a length and a jump) into the column's vector, or
// bounds-checked and skipped when no vector wants it.
type cellWalker struct {
	lanes []expr.Type
	vecs  []*expr.Vec // column c's destination; nil: validate and skip
}

// page fills b with the first limit rows of a page: exact
// owned vectors (same exactness contract as expr.BuildColVec) of the
// columns need selects (nil: all), the others validated and left unset.
func (w *cellWalker) page(buf []byte, limit int, lanes []expr.Type, need []bool, b *expr.Batch) error {
	w.start(b, lanes, need, limit)
	for i := 0; i < limit; i++ {
		if err := w.row(buf, i, i); err != nil {
			return err
		}
	}
	b.FinishCols()
	return nil
}

// start makes b a column-backed batch of n rows on lanes, every column
// need selects reset for the walker to fill; the caller finishes b with
// FinishCols.
func (w *cellWalker) start(b *expr.Batch, lanes []expr.Type, need []bool, n int) {
	b.StartCols(len(lanes), n)
	w.lanes = lanes
	w.vecs = slices.Grow(w.vecs[:0], len(lanes))[:len(lanes)]
	for c, lane := range lanes {
		w.vecs[c] = nil
		if need == nil || need[c] {
			w.vecs[c] = b.OwnCol(c)
			w.vecs[c].Reset(lane, n)
		}
	}
}

// row decodes the row in slot s of page buf into row i of the vectors.
func (w *cellWalker) row(buf []byte, s, i int) error {
	if s >= pageNRows(buf) {
		return fmt.Errorf("store: row %d out of range (page holds %d)", s, pageNRows(buf))
	}
	pos := pageSlot(buf, s)
	if pos < pageDataStart(len(w.lanes)) || pos >= len(buf) {
		return fmt.Errorf("store: corrupt slot offset %d", pos)
	}
	for c, lane := range w.lanes {
		if pos >= len(buf) {
			return fmt.Errorf("store: truncated value")
		}
		tag, v := buf[pos], w.vecs[c]
		pos++
		if tag != byte(lane) || lane == expr.TNull {
			if tag != byte(lane)|nullBit {
				return fmt.Errorf("%w: cell tag %#x in a %s lane", ErrColumnType, tag, lane)
			}
			if v != nil {
				v.EnsureNull().Set(i)
			}
			continue
		}
		switch lane {
		case expr.TFloat:
			if len(buf)-pos < 8 {
				return fmt.Errorf("store: truncated float payload")
			}
			if v != nil {
				v.F[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:]))
			}
			pos += 8
		case expr.TString:
			l, n := binary.Uvarint(buf[pos:])
			if n <= 0 || l > uint64(len(buf)-pos-n) {
				return fmt.Errorf("store: bad string payload")
			}
			pos += n
			if v != nil {
				v.S[i] = string(buf[pos : pos+int(l)])
			}
			pos += int(l)
		default: // TInt, TDate, TBool
			x, n := binary.Varint(buf[pos:])
			if n <= 0 {
				return fmt.Errorf("store: bad varint payload")
			}
			pos += n
			switch {
			case v == nil:
			case lane == expr.TBool:
				if x != 0 {
					v.B.Set(i)
				}
			default:
				v.I[i] = x
			}
		}
	}
	return nil
}

// pageDecode is the columnar decode of a resident page's first n rows,
// immutable once published on its frame: cols[c] is column c's vector,
// nil while no scan of the page has decoded that column.
type pageDecode struct {
	n    int
	cols []*expr.Vec
}

// covers reports whether d holds n rows of every column need selects.
func (d *pageDecode) covers(n int, need []bool) bool {
	if d == nil || d.n != n {
		return false
	}
	for c, v := range d.cols {
		if v == nil && (need == nil || need[c]) {
			return false
		}
	}
	return true
}

// copyInto fills b from d exactly as the cell walker would from the page:
// each selected column is copied into the batch's own vector (lanes
// memmoved, string headers shared), the others stay unset.
func (d *pageDecode) copyInto(b *expr.Batch, need []bool) {
	b.StartCols(len(d.cols), d.n)
	for c, v := range d.cols {
		if need == nil || need[c] {
			b.OwnCol(c).CopyFrom(v)
		}
	}
	b.FinishCols()
}

// mergeDecode publishes the columns of b, just decoded from the frame's
// first n rows under need, into the frame's cached decode. A concurrent
// scan with another mask may publish at the same time; the CAS loop
// keeps the union, and a decode of a different row count is replaced.
func (fr *frame) mergeDecode(n int, b *expr.Batch, need []bool) {
	fresh := make([]*expr.Vec, b.Width())
	for c := range fresh {
		if need == nil || need[c] {
			src, _ := b.ColVec(c)
			fresh[c] = new(expr.Vec)
			fresh[c].CopyFrom(src)
		}
	}
	for {
		old := fr.dec.Load()
		d := &pageDecode{n: n, cols: fresh}
		if old != nil && old.n == n {
			d.cols = slices.Clone(old.cols)
			for c, v := range fresh {
				if v != nil {
					d.cols[c] = v
				}
			}
		}
		if fr.dec.CompareAndSwap(old, d) {
			return
		}
	}
}
