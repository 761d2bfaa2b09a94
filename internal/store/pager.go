package store

import (
	"fmt"
	"os"
	"strings"

	"cgdqp/internal/expr"
)

// tableFile is the pager for one table: fixed-size checksummed pages
// addressed by page number, kept in a flat file (the file pager) or,
// when f is nil, in memory (the memory pager). Both count their pages:
// the count is set at load, raised by writePage and cut by
// truncatePages, so the buffer pool never asks the file system. Once
// the engine is open, every call runs under the buffer pool's mutex.
type tableFile struct {
	path  string      // the page file; the table name on the memory pager
	f     *os.File    // nil: memory pager
	mem   [][]byte    // memory pager: the sealed bytes of each written page
	types []expr.Type // the table's column types: every page's lanes
	fsync bool
	pages uint32 // whole pages held
}

// safeFileName maps a table name (which may contain a '#fragment'
// suffix) onto a filesystem-safe file name.
func safeFileName(table string) string {
	mapped := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			return r
		case r == '#':
			return '.'
		default:
			return '_'
		}
	}, table)
	return mapped + ".tbl"
}

// openTableFile opens (creating if needed) the page file for a table.
func openTableFile(path string, types []expr.Type, fsync bool) (*tableFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open table file: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &tableFile{path: path, f: f, types: types, fsync: fsync, pages: uint32(st.Size() / PageSize)}, nil
}

// readPage reads page number pg into buf and validates it.
func (tf *tableFile) readPage(pg uint32, buf []byte) error {
	if pg >= tf.pages {
		return fmt.Errorf("store: page %d of %s past end of file", pg, tf.path)
	}
	if tf.f == nil {
		if copy(buf[:PageSize], tf.mem[pg]) == 0 {
			clear(buf[:PageSize]) // a page never written reads as zeros, as in a sparse file
		}
	} else if _, err := tf.f.ReadAt(buf[:PageSize], int64(pg)*PageSize); err != nil {
		return err
	}
	if err := validPage(buf, tf.types); err != nil {
		return fmt.Errorf("store: page %d of %s: %w", pg, tf.path, err)
	}
	return nil
}

// writePage seals buf (checksum) and writes it as page number pg.
func (tf *tableFile) writePage(pg uint32, buf []byte) error {
	sealPage(buf)
	if tf.f == nil {
		for uint32(len(tf.mem)) <= pg {
			tf.mem = append(tf.mem, nil)
		}
		if tf.mem[pg] == nil {
			tf.mem[pg] = make([]byte, PageSize)
		}
		copy(tf.mem[pg], buf[:PageSize])
	} else if _, err := tf.f.WriteAt(buf[:PageSize], int64(pg)*PageSize); err != nil {
		return err
	}
	if pg >= tf.pages {
		tf.pages = pg + 1
	}
	return nil
}

// sync flushes the file to stable storage when fsync is enabled.
func (tf *tableFile) sync() error {
	if !tf.fsync || tf.f == nil {
		return nil
	}
	return tf.f.Sync()
}

// truncatePages drops every page from pg onward (recovery discards a
// torn tail before replaying the WAL over it).
func (tf *tableFile) truncatePages(pg uint32) error {
	if tf.f == nil {
		tf.mem = tf.mem[:min(int(pg), len(tf.mem))]
	} else if err := tf.f.Truncate(int64(pg) * PageSize); err != nil {
		return err
	}
	tf.pages = pg
	return nil
}

func (tf *tableFile) close() error {
	if tf.f == nil {
		return nil
	}
	return tf.f.Close()
}
