package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

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
//	  u8  op (1 = insert)
//	  u16 table-name length, then the name bytes
//	  u64 afterRows — the table's total row count AFTER this record
//	  u32 nRows — rows carried by this record
//	  nRows rows encoded with the value codec
//
// afterRows makes replay idempotent for the append-only store: a record
// whose afterRows is not past the table's durable row count is already
// reflected in the pages and is skipped; otherwise exactly the missing
// suffix of its rows is re-applied. A torn tail record fails its CRC
// and is truncated away — the record's load then simply never happened,
// which is the "pre-state" arm of the crash contract.
const walOpInsert = 1

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

// appendInsert logs nRows rows, already encoded back to back in enc,
// being appended to table, leaving the table at afterRows total rows.
func (w *wal) appendInsert(table string, afterRows uint64, nRows int, enc []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	payload := make([]byte, 0, 17+len(table)+len(enc))
	payload = append(payload, walOpInsert)
	payload = binary.LittleEndian.AppendUint16(payload, uint16(len(table)))
	payload = append(payload, table...)
	payload = binary.LittleEndian.AppendUint64(payload, afterRows)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(nRows))
	payload = append(payload, enc...)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.f.WriteAt(hdr[:], w.size); err != nil {
		return err
	}
	if _, err := w.f.WriteAt(payload, w.size+8); err != nil {
		return err
	}
	w.size += int64(8 + len(payload))
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
}

// replay reads valid records from the start of the log, calling fn for
// each. Reading stops at the first torn or corrupt record; the log is
// truncated to the last valid boundary so the torn tail cannot
// resurface. nColsOf resolves a table's column count for row decoding
// (records for unknown tables stop the replay — the meta file is
// written before the first WAL record of a table can exist, so an
// unknown name means corruption).
func (w *wal) replay(nColsOf func(table string) (int, bool), fn func(walRecord) error) error {
	var off int64
	data, err := io.ReadAll(io.NewSectionReader(w.f, 0, w.size))
	if err != nil {
		return err
	}
	for {
		rec, n, ok := decodeWALRecord(data[off:], nColsOf)
		if !ok {
			break
		}
		if err := fn(rec); err != nil {
			return err
		}
		off += int64(n)
	}
	if off < w.size {
		if err := w.f.Truncate(off); err != nil {
			return err
		}
		w.size = off
	}
	return nil
}

// decodeWALRecord decodes one record from buf, reporting the bytes
// consumed; ok is false on a torn, corrupt, or absent record.
func decodeWALRecord(buf []byte, nColsOf func(string) (int, bool)) (walRecord, int, bool) {
	if len(buf) < 8 {
		return walRecord{}, 0, false
	}
	plen := int(binary.LittleEndian.Uint32(buf[0:4]))
	crc := binary.LittleEndian.Uint32(buf[4:8])
	if plen < 15 || len(buf) < 8+plen {
		return walRecord{}, 0, false
	}
	payload := buf[8 : 8+plen]
	if crc32.ChecksumIEEE(payload) != crc {
		return walRecord{}, 0, false
	}
	if payload[0] != walOpInsert {
		return walRecord{}, 0, false
	}
	nameLen := int(binary.LittleEndian.Uint16(payload[1:3]))
	if 3+nameLen+12 > plen {
		return walRecord{}, 0, false
	}
	name := string(payload[3 : 3+nameLen])
	nCols, known := nColsOf(name)
	if !known {
		return walRecord{}, 0, false
	}
	p := 3 + nameLen
	afterRows := binary.LittleEndian.Uint64(payload[p : p+8])
	nRows := int(binary.LittleEndian.Uint32(payload[p+8 : p+12]))
	p += 12
	rows := make([]expr.Row, 0, nRows)
	for i := 0; i < nRows; i++ {
		row, n, err := decodeRow(payload[p:], nCols)
		if err != nil {
			return walRecord{}, 0, false
		}
		rows = append(rows, row)
		p += n
	}
	return walRecord{table: name, afterRows: afterRows, rows: rows}, 8 + plen, true
}

// truncate resets the log after a checkpoint has made every logged
// change durable in the pages.
func (w *wal) truncate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	w.size = 0
	if w.fsync {
		return w.f.Sync()
	}
	return nil
}

func (w *wal) close() error { return w.f.Close() }
