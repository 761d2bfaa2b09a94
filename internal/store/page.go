// Package store implements the per-site storage engine: checksummed
// PAX pages behind one pager per table, a pin/unpin LRU buffer pool with
// a byte budget, and B+ tree secondary indexes over int64 and
// dictionary-interned string keys. With a data directory the pager is
// one file per table and a redo-only write-ahead log makes loads
// crash-recoverable; without one the pages live on a memory pager and
// there is nothing to recover. Everything above the pager is shared, so
// plans and results do not depend on which pager runs. Pages and WAL
// records store values in the column encoding of package colcodec, the
// one wire frames use.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"cgdqp/internal/colcodec"
	"cgdqp/internal/expr"
)

// PAX page layout (fixed PageSize bytes):
//
//	[0:4)    magic "CGSP"
//	[4:6)    format version: 3 since a DOUBLE is never NaN or −0
//	         (expr.Double); pages of 2 may hold either and are refused
//	[6:8)    nRows
//	[8:12)   end — first byte past the last minipage
//	[12:16)  crc32 (IEEE) over the whole page with this field zeroed
//	[16:18)  nCols
//	[18:20)  reserved
//	[20:20+nCols) per-column lane byte: the column's declared expr.Type
//	[20+nCols:20+3nCols) offset table: u16 offset of each column's minipage
//	[...:end) the minipages in column order, each the column encoding of
//	         the column's nRows values, every NULL of the declared type
//	[end:PageSize) zero
//
// A row is (page, slot): its values are at position slot of every
// minipage. An append that extends the tail page rewrites it whole.
const (
	PageSize    = 8192
	pageMagic   = 0x43475350 // "CGSP"
	pageVersion = 3
	pageHdrSize = 20

	// maxRowsPerPage bounds a page of very narrow rows.
	maxRowsPerPage = 2048
)

var (
	// ErrColumnType marks a value, a page or a column whose type is not
	// its column's declared type, or a NaN, which no DOUBLE holds: a
	// refused load batch or an unreadable page.
	ErrColumnType = errors.New("store: value does not match its column type")
	// ErrCorrupt marks a page or a WAL record that passed its checksum
	// but does not decode: written in another format version or damaged
	// behind a valid CRC. Open fails with it and leaves the files as they
	// are; only a checksum failure counts as a torn write.
	ErrCorrupt = errors.New("store: unreadable page or log record")
	// errChecksum marks a torn page.
	errChecksum = errors.New("failed checksum")
)

// pageDataStart returns the offset of the first minipage.
func pageDataStart(nCols int) int { return pageHdrSize + 3*nCols }

func pageNRows(buf []byte) int { return int(binary.LittleEndian.Uint16(buf[6:8])) }
func pageNCols(buf []byte) int { return int(binary.LittleEndian.Uint16(buf[16:18])) }

// pageSlot returns where column c's entry of the offset table lies.
func pageSlot(buf []byte, c int) int { return pageHdrSize + pageNCols(buf) + 2*c }

// pageOffset returns where column c's minipage starts; c = nCols gives
// the end of the last one.
func pageOffset(buf []byte, c int) int {
	if c == pageNCols(buf) {
		return int(binary.LittleEndian.Uint32(buf[8:12]))
	}
	return int(binary.LittleEndian.Uint16(buf[pageSlot(buf, c):]))
}

// minipage returns column c's minipage of a page checkLayout accepted.
func minipage(buf []byte, c int) []byte {
	return buf[pageOffset(buf, c):pageOffset(buf, c+1)]
}

// checkLayout checks the column and row counts and the offset table:
// the minipages follow the table back to back, in column order, within
// the page. Every decode checks it, since a resident page is not
// re-checksummed.
func checkLayout(buf []byte, nCols int) error {
	if nc, n := pageNCols(buf), pageNRows(buf); nc != nCols || n > maxRowsPerPage {
		return fmt.Errorf("%w: page of %d columns and %d rows in a table of %d columns", ErrCorrupt, nc, n, nCols)
	}
	prev := pageDataStart(nCols)
	for c := 0; c <= nCols; c++ {
		off := pageOffset(buf, c)
		if off < prev || c == 0 && off != prev || off > PageSize {
			return fmt.Errorf("%w: minipage %d at offset %d", ErrCorrupt, c, off)
		}
		prev = off
	}
	return nil
}

// writePage formats buf as a page of n rows of a table of the given
// column types whose minipages are body, column c's at offs[c].
func writePage(buf []byte, types []expr.Type, n int, offs []uint16, body []byte) {
	nc := len(types)
	start := pageDataStart(nc)
	if start+len(body) > PageSize {
		panic(fmt.Sprintf("store: %d bytes of minipages on a page", len(body)))
	}
	clear(buf[:pageHdrSize])
	binary.LittleEndian.PutUint32(buf[0:4], pageMagic)
	binary.LittleEndian.PutUint16(buf[4:6], pageVersion)
	binary.LittleEndian.PutUint16(buf[6:8], uint16(n))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(start+len(body)))
	binary.LittleEndian.PutUint16(buf[16:18], uint16(nc))
	for c, t := range types {
		buf[pageHdrSize+c] = byte(t)
		binary.LittleEndian.PutUint16(buf[pageSlot(buf, c):], uint16(start)+offs[c])
	}
	clear(buf[start+copy(buf[start:], body) : PageSize])
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

// validPage checks a page read from its pager: a checksum failure is a
// torn write (errChecksum); a checksummed page of another format
// version or layout fails with ErrCorrupt, one whose lane bytes are not
// the table's column types with ErrColumnType.
func validPage(buf []byte, types []expr.Type) error {
	if binary.LittleEndian.Uint32(buf[12:16]) != pageChecksum(buf) {
		return errChecksum
	}
	if magic, v := binary.LittleEndian.Uint32(buf[0:4]), binary.LittleEndian.Uint16(buf[4:6]); magic != pageMagic || v != pageVersion {
		return fmt.Errorf("%w: magic %#x, format version %d; this store reads version %d", ErrCorrupt, magic, v, pageVersion)
	}
	for c, t := range types {
		if lane := buf[pageHdrSize+c]; lane != byte(t) {
			return fmt.Errorf("%w: column %d has lane byte %#x, declared %s", ErrColumnType, c, lane, t)
		}
	}
	return checkLayout(buf, len(types))
}

// columnErr types a minipage's decode failure.
func columnErr(c int, err error) error {
	if errors.Is(err, colcodec.ErrLane) {
		return fmt.Errorf("%w: column %d: %v", ErrColumnType, c, err)
	}
	return fmt.Errorf("%w: column %d: %v", ErrCorrupt, c, err)
}

// startBatch makes b a column-backed batch of n rows whose columns need
// selects (nil: all) are reset to their types' lanes for decodePage to
// fill; the others stay unset.
func startBatch(b *expr.Batch, types []expr.Type, need []bool, n int) {
	b.StartCols(len(types), n)
	for c, t := range types {
		if need == nil || need[c] {
			b.OwnCol(c).Reset(t, n)
		}
	}
}

// decodePage fills rows base, base+1, ... of the vectors startBatch made
// with a page's values at slots (non-decreasing), or, when slots is nil,
// all rows with the page's first ones. Only the minipages need selects
// are read, and of those only the values up to the last one taken.
func decodePage(buf []byte, types []expr.Type, need []bool, slots []int32, b *expr.Batch, base int, d *colcodec.Decoder) error {
	if err := checkLayout(buf, len(types)); err != nil {
		return err
	}
	n := pageNRows(buf)
	for c := range types {
		if need != nil && !need[c] {
			continue
		}
		v, mp := b.OwnCol(c), minipage(buf, c)
		used, err := d.DecodeInto(mp, n, slots, v, base)
		if err == nil && slots == nil && v.N == n && used != len(mp) {
			err = fmt.Errorf("%d trailing bytes", len(mp)-used)
		}
		if err != nil {
			return columnErr(c, err)
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

// copyInto fills b from d exactly as decodePage would from the page:
// each selected column is copied into the batch's own vector (lanes
// memmoved, string headers shared), the others stay unset.
func (d *pageDecode) copyInto(b *expr.Batch, need []bool) {
	b.StartCols(len(d.cols), d.n)
	for c, v := range d.cols {
		if need == nil || need[c] {
			b.OwnCol(c).CopyFrom(v)
		}
	}
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
