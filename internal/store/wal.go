package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"cgdqp/internal/colcodec"
	"cgdqp/internal/expr"
)

// Redo-only write-ahead log. Every Append of rows to a table logs one
// record BEFORE the rows touch any page, so a crash at any point leaves
// the store recoverable: on open, each table first trusts its longest
// valid page prefix (torn or half-written tail pages fail the page
// checksum and are discarded), then WAL records re-apply whatever that
// prefix is missing.
//
// Record layout:
//
//	u32 payload length
//	u32 crc32 (IEEE) of the payload
//	payload:
//	  u8  op (3 = insert, a DOUBLE never NaN or −0)
//	  u16 table-name length, then the name bytes
//	  u64 afterRows — the table's total row count AFTER this record
//	  u32 nRows — rows carried by this record
//	  chunks, one per page the rows land on, nRows rows in all:
//	    u16 m, then per column of the table the column encoding of the
//	    chunk's m values — the page's minipages, when it is a fresh page
//
// afterRows makes replay idempotent for the append-only store: a record
// whose afterRows is not past the table's durable row count is already
// reflected in the pages and is skipped; otherwise exactly the missing
// suffix of its rows is re-applied. A torn tail record — cut short or
// failing its CRC — is truncated away: the record's load then simply
// never happened, which is the "pre-state" arm of the crash contract.
// A checksummed record that does not decode (op 1, the row format of
// version 1 pages; op 2, whose DOUBLEs may be NaN or −0; or columns
// other than the encoder writes) is not torn: the open fails with
// ErrCorrupt and leaves the log as it is.
const (
	walOpInsert   = 3
	walMinPayload = 15
)

// errTornRecord marks the end of the log's valid prefix.
var errTornRecord = errors.New("store: torn wal record")

type wal struct {
	mu    sync.Mutex
	path  string
	f     *os.File
	size  int64
	fsync bool
}

func openWAL(path string, fsync bool) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &wal{path: path, f: f, size: st.Size(), fsync: fsync}, nil
}

// walHeader starts an insert record of nRows rows being appended to
// table, leaving it at afterRows total rows; its chunks follow.
func walHeader(table string, afterRows uint64, nRows int) []byte {
	rec := append(make([]byte, 8, 64), walOpInsert)
	rec = binary.LittleEndian.AppendUint16(rec, uint16(len(table)))
	rec = append(rec, table...)
	rec = binary.LittleEndian.AppendUint64(rec, afterRows)
	return binary.LittleEndian.AppendUint32(rec, uint32(nRows))
}

// stamp fills in the length and CRC of a record walHeader started.
func stamp(rec []byte) []byte {
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(rec)-8))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(rec[8:]))
	return rec
}

// append writes a record at the end of the log.
func (w *wal) append(rec []byte) error {
	stamp(rec)
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.WriteAt(rec, w.size); err != nil {
		return err
	}
	w.size += int64(len(rec))
	if w.fsync {
		return w.f.Sync()
	}
	return nil
}

// walRecord is one decoded insert record.
type walRecord struct {
	table     string
	afterRows uint64
	rows      []expr.Row
	chunks    []int // rows per chunk
}

// decodeWALRecord decodes the record at the start of buf and returns
// its length. It fails with errTornRecord when buf holds no whole
// record with a valid CRC (the log's end or a torn tail), and with
// ErrCorrupt or ErrColumnType when a checksummed record does not decode
// into exactly the rows the encoder would have written it from: an
// unknown op or table, a column of another type, or bytes in another
// form. typesOf resolves a table's column types (nil: no such table).
func decodeWALRecord(buf []byte, typesOf func(string) []expr.Type) (walRecord, int, error) {
	if len(buf) < 8 {
		return walRecord{}, 0, errTornRecord
	}
	plen := int(binary.LittleEndian.Uint32(buf[0:4]))
	if plen < walMinPayload || len(buf)-8 < plen {
		return walRecord{}, 0, errTornRecord
	}
	payload := buf[8 : 8+plen]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[4:8]) {
		return walRecord{}, 0, errTornRecord
	}
	bad := func(format string, args ...any) (walRecord, int, error) {
		return walRecord{}, 0, fmt.Errorf("%w: wal record: "+format, append([]any{ErrCorrupt}, args...)...)
	}
	if op := payload[0]; op != walOpInsert {
		return bad("op %d, this store writes op %d", op, walOpInsert)
	}
	nameLen := int(binary.LittleEndian.Uint16(payload[1:3]))
	if walMinPayload+nameLen > plen {
		return bad("table name of %d bytes", nameLen)
	}
	name := string(payload[3 : 3+nameLen])
	types := typesOf(name)
	if types == nil {
		return bad("unknown table %q", name)
	}
	p := 3 + nameLen
	afterRows := binary.LittleEndian.Uint64(payload[p : p+8])
	nRows := int(binary.LittleEndian.Uint32(payload[p+8 : p+12]))
	p += 12
	rec := walRecord{table: name, afterRows: afterRows}
	var b expr.Batch
	var d colcodec.Decoder
	var enc colcodec.Builder
	var again []byte
	for len(rec.rows) < nRows {
		if p+2 > plen {
			return bad("%d of %d rows", len(rec.rows), nRows)
		}
		m := int(binary.LittleEndian.Uint16(payload[p:]))
		if p += 2; m == 0 || m > nRows-len(rec.rows) {
			return bad("chunk of %d rows", m)
		}
		startBatch(&b, types, nil, m)
		for c := range types {
			v := b.OwnCol(c)
			used, err := d.DecodeInto(payload[p:], m, nil, v, 0)
			if err != nil {
				return walRecord{}, 0, fmt.Errorf("wal record of table %s: %w", name, columnErr(c, err))
			}
			if again = enc.AppendVec(again[:0], v, m); !bytes.Equal(again, payload[p:p+used]) {
				return bad("column %d of table %s is not in the encoder's form", c, name)
			}
			p += used
		}
		rec.rows = append(rec.rows, b.Rows()...)
		rec.chunks = append(rec.chunks, m)
	}
	if p != plen {
		return bad("%d trailing bytes", plen-p)
	}
	return rec, 8 + plen, nil
}

// truncate cuts the log to its first size bytes: all of it after a
// checkpoint has made every logged change durable in the pages, a torn
// tail on recovery.
func (w *wal) truncate(size int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(size); err != nil {
		return err
	}
	w.size = size
	if w.fsync {
		return w.f.Sync()
	}
	return nil
}

func (w *wal) close() error { return w.f.Close() }
