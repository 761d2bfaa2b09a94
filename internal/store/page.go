package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

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
//	[20:20+nCols) per-column lane byte: the concrete expr.Type every
//	         value of that column on this page shares, or laneImpure —
//	         pure columns decode straight into column vectors
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

// initPage formats buf as an empty page for a table with nCols columns.
func initPage(buf []byte, nCols int) {
	for i := range buf {
		buf[i] = 0
	}
	binary.LittleEndian.PutUint32(buf[0:4], pageMagic)
	binary.LittleEndian.PutUint16(buf[4:6], pageVersion)
	binary.LittleEndian.PutUint16(buf[6:8], 0)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(pageDataStart(nCols)))
	for c := 0; c < nCols; c++ {
		buf[pageHdrSize+c] = laneUnset
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

// validPage reports whether buf carries a well-formed, checksummed page
// for a table with nCols columns.
func validPage(buf []byte, nCols int) bool {
	if len(buf) != PageSize {
		return false
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != pageMagic {
		return false
	}
	if binary.LittleEndian.Uint16(buf[4:6]) != pageVersion {
		return false
	}
	if binary.LittleEndian.Uint32(buf[12:16]) != pageChecksum(buf) {
		return false
	}
	n := pageNRows(buf)
	free := pageFreeOff(buf)
	if free < pageDataStart(nCols) || free > PageSize-2*n {
		return false
	}
	return true
}

// pageAppend adds one encoded row to the page in place, updating the
// slot directory and the per-column lane bytes. It reports false when
// the row does not fit (the caller then opens a fresh page).
func pageAppend(buf []byte, enc []byte, row expr.Row) bool {
	n := pageNRows(buf)
	free := pageFreeOff(buf)
	if free+len(enc) > PageSize-2*(n+1) || n == maxRowsPerPage {
		return false
	}
	copy(buf[free:], enc)
	binary.LittleEndian.PutUint16(buf[PageSize-2*(n+1):], uint16(free))
	binary.LittleEndian.PutUint16(buf[6:8], uint16(n+1))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(free+len(enc)))
	for c, v := range row {
		buf[pageHdrSize+c] = mergeLane(buf[pageHdrSize+c], v)
	}
	return true
}

// maxRowsPerPage bounds the slot directory (u16 offsets, 2 bytes each).
const maxRowsPerPage = 2048

// decodePageRow decodes row i of the page.
func decodePageRow(buf []byte, i, nCols int) (expr.Row, error) {
	n := pageNRows(buf)
	if i < 0 || i >= n {
		return nil, fmt.Errorf("store: row %d out of range (page holds %d)", i, n)
	}
	off := pageSlot(buf, i)
	if off < pageDataStart(nCols) || off >= PageSize {
		return nil, fmt.Errorf("store: corrupt slot offset %d", off)
	}
	row, _, err := decodeRow(buf[off:], nCols)
	return row, err
}

// decodePageRows decodes rows [0, limit) of the page into out.
func decodePageRows(buf []byte, limit, nCols int, out []expr.Row) ([]expr.Row, error) {
	for i := 0; i < limit; i++ {
		row, err := decodePageRow(buf, i, nCols)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// pagePure reports whether every column of the page is lane-pure for
// the first limit rows, filling lanes with the lane types. Purity is
// recorded cumulatively at append time, so a page that later turned
// impure conservatively reports impure for earlier rows too — the row
// path is always correct, just not columnar.
func pagePure(buf []byte, lanes []expr.Type) bool {
	for c := range lanes {
		b := buf[pageHdrSize+c]
		if b == laneImpure || b == laneUnset || expr.Type(b) == expr.TNull || expr.Type(b) > expr.TDate {
			return false
		}
		lanes[c] = expr.Type(b)
	}
	return true
}

// decodePageCols decodes the first limit rows of a lane-pure page
// column-wise into the batch via the producer protocol, yielding exact
// owned vectors (same exactness contract as expr.BuildColVec). A
// non-nil need masks the decode: column c is filled only when need[c],
// the others are validated and skipped and stay unset in the batch.
func decodePageCols(buf []byte, limit int, lanes []expr.Type, need []bool, b *expr.Batch) error {
	nCols := len(lanes)
	b.StartCols(nCols, limit)
	for c := 0; c < nCols; c++ {
		if need == nil || need[c] {
			v := b.OwnCol(c)
			v.Reset(lanes[c], limit)
			v.NullT = lanes[c]
			v.Exact = true
		}
	}
	for i := 0; i < limit; i++ {
		off := pageSlot(buf, i)
		if off < pageDataStart(nCols) || off >= PageSize {
			return fmt.Errorf("store: corrupt slot offset %d", off)
		}
		rowBuf := buf[off:]
		pos := 0
		for c := 0; c < nCols; c++ {
			if need != nil && !need[c] {
				n, err := skipValue(rowBuf[pos:])
				if err != nil {
					return err
				}
				pos += n
				continue
			}
			val, n, err := decodeValue(rowBuf[pos:])
			if err != nil {
				return err
			}
			pos += n
			v := b.OwnCol(c)
			if val.Null {
				v.EnsureNull().Set(i)
				continue
			}
			switch lanes[c] {
			case expr.TInt, expr.TDate:
				v.I[i] = val.I
			case expr.TFloat:
				v.F[i] = val.F
			case expr.TString:
				v.S[i] = val.S
			case expr.TBool:
				if val.I != 0 {
					v.B.Set(i)
				}
			}
		}
	}
	b.FinishCols()
	return nil
}
