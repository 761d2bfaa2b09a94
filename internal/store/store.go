package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"cgdqp/internal/expr"
)

// Options configures one engine (one site's store).
type Options struct {
	Dir             string // data directory; "" opens an in-memory engine
	BufferPoolBytes int64  // ignored when Pool is set
	Pool            *Pool  // optional shared pool (one budget across sites)
	Fsync           bool   // gate fsyncs (off keeps tests fast; on for durability)
}

// walCheckpointBytes triggers an automatic checkpoint (flush pages,
// sync, truncate the log) once the WAL grows past it.
const walCheckpointBytes = 16 << 20

// Engine is one site's storage engine: the table catalog, the pagers,
// the WAL, and a (possibly shared) buffer pool. An in-memory engine
// (no data directory) keeps its pages on memory pagers and has neither
// a catalog file nor a WAL: there is nothing to recover.
type Engine struct {
	dir   string
	fsync bool
	pool  *Pool
	wal   *wal // nil on an in-memory engine

	// mu: read-held by appends, write-held by checkpoint/close so the
	// WAL never truncates under a half-applied append.
	mu     sync.RWMutex
	tables map[string]*Table
	files  map[string]*tableFile
}

// metaFile persists the table catalog (written before any WAL record
// for a table can exist, so replay always knows every table's shape).
type metaFile struct {
	Tables []tableMeta `json:"tables"`
}

type tableMeta struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
	Types   []int    `json:"types"`
	Indexed []string `json:"indexed,omitempty"`
}

func lower(s string) string { return strings.ToLower(s) }

// Open opens (or initializes) the engine rooted at opts.Dir: it loads
// the catalog, trusts each table's longest valid page prefix, replays
// the WAL over it, and rebuilds the B+ tree indexes. An empty Dir opens
// an empty in-memory engine. On an error it closes every file it opened
// and leaves the data directory as it found it, bar a torn tail.
func Open(opts Options) (*Engine, error) {
	pool := opts.Pool
	if pool == nil {
		pool = NewPool(opts.BufferPoolBytes)
	}
	e := &Engine{
		dir:    opts.Dir,
		fsync:  opts.Fsync,
		pool:   pool,
		tables: map[string]*Table{},
		files:  map[string]*tableFile{},
	}
	if opts.Dir == "" {
		return e, nil
	}
	if err := e.open(); err != nil {
		e.release(false)
		return nil, err
	}
	return e, nil
}

func (e *Engine) open() error {
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return err
	}
	meta, err := e.readMeta()
	if err != nil {
		return err
	}
	for _, tm := range meta.Tables {
		if err := e.loadTable(tm); err != nil {
			return err
		}
	}
	if e.wal, err = openWAL(filepath.Join(e.dir, "wal.log"), e.fsync); err != nil {
		return err
	}
	if err := e.recover(); err != nil {
		return err
	}
	for _, t := range e.tables {
		if err := t.buildIndexes(); err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) metaPath() string { return filepath.Join(e.dir, "meta.json") }

func (e *Engine) readMeta() (metaFile, error) {
	var m metaFile
	data, err := os.ReadFile(e.metaPath())
	if os.IsNotExist(err) {
		return m, nil
	}
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("store: corrupt meta file: %w", err)
	}
	return m, nil
}

// writeMeta persists the catalog atomically (write-temp + rename); an
// in-memory engine has no catalog file.
func (e *Engine) writeMeta() error {
	if e.dir == "" {
		return nil
	}
	var m metaFile
	names := make([]string, 0, len(e.tables))
	for n := range e.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := e.tables[n]
		types := make([]int, len(t.types))
		for i, tt := range t.types {
			types[i] = int(tt)
		}
		m.Tables = append(m.Tables, tableMeta{
			Name:    t.name,
			Columns: t.cols,
			Types:   types,
			Indexed: t.idxCols,
		})
	}
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := e.metaPath() + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, e.metaPath())
}

// loadTable opens a known table's page file and trusts its longest
// valid page prefix: the file ends, or a page fails its checksum, where
// a torn write stopped, and the tail from there is cut off (the WAL
// re-applies whatever the prefix is missing). Any other failure — an
// I/O error, a checksummed page of another format, version or lanes —
// fails the open and leaves the file as it is.
func (e *Engine) loadTable(tm tableMeta) error {
	if len(tm.Types) != len(tm.Columns) {
		return fmt.Errorf("store: corrupt meta file: table %s has %d types for %d columns", tm.Name, len(tm.Types), len(tm.Columns))
	}
	t := e.newTable(tm)
	tf, err := openTableFile(filepath.Join(e.dir, safeFileName(tm.Name)), t.types, e.fsync)
	if err != nil {
		return err
	}
	key := lower(tm.Name)
	e.tables[key] = t
	e.files[key] = tf
	buf := make([]byte, PageSize)
	var pg uint32
	for ; pg < tf.pages; pg++ {
		if err := tf.readPage(pg, buf); errors.Is(err, errChecksum) {
			break
		} else if err != nil {
			return err
		}
		t.pageStart = append(t.pageStart, t.nRows)
		t.nRows += int64(pageNRows(buf))
	}
	return tf.truncatePages(pg)
}

// newTable constructs the in-memory table shell from its catalog entry.
func (e *Engine) newTable(tm tableMeta) *Table {
	t := &Table{
		eng:   e,
		name:  tm.Name,
		cols:  append([]string(nil), tm.Columns...),
		types: make([]expr.Type, len(tm.Types)),
		idx:   map[string]*btree{},
	}
	for i, tt := range tm.Types {
		t.types[i] = expr.Type(tt)
	}
	for _, col := range tm.Indexed {
		pos := t.colPos(lower(col))
		if pos < 0 || !indexableType(t.types[pos]) {
			continue
		}
		t.idxCols = append(t.idxCols, col)
		t.idx[lower(col)] = newBTree(t.types[pos] == expr.TString)
	}
	return t
}

// recover replays the WAL: each record whose afterRows is past the
// table's durable row count re-applies exactly the missing suffix. A
// record that does not decode, or would leave a gap after the rows
// before it, fails the open with the log as it is (Open then drops the
// replayed pages unwritten); only a torn tail is cut.
func (e *Engine) recover() error {
	data, err := io.ReadAll(io.NewSectionReader(e.wal.f, 0, e.wal.size))
	if err != nil {
		return err
	}
	off := 0
	for {
		rec, n, err := decodeWALRecord(data[off:], func(name string) []expr.Type {
			if t, ok := e.tables[lower(name)]; ok {
				return t.types
			}
			return nil
		})
		if errors.Is(err, errTornRecord) {
			break
		} else if err != nil {
			return fmt.Errorf("%w (at byte %d of the log)", err, off)
		}
		t := e.tables[lower(rec.table)]
		if missing := int64(rec.afterRows) - t.nRows; missing > int64(len(rec.rows)) {
			return fmt.Errorf("%w: wal record at byte %d starts table %s at row %d, past its %d rows: a record is missing",
				ErrCorrupt, off, rec.table, rec.afterRows-uint64(len(rec.rows)), t.nRows)
		} else if missing > 0 {
			if err := t.appendLocked(rec.rows[int64(len(rec.rows))-missing:], false); err != nil {
				return err
			}
		}
		off += n
	}
	if off < len(data) {
		return e.wal.truncate(int64(off))
	}
	return nil
}

// CreateTable declares a table: column names, column types, and which
// columns carry B+ tree indexes. Re-opening an existing table with the
// same shape returns it (the catalog is persistent); a shape mismatch
// is an error. A column declared TNull holds only NULLs.
func (e *Engine) CreateTable(name string, cols []string, types []expr.Type, indexed []string) (*Table, error) {
	if len(types) != len(cols) {
		return nil, fmt.Errorf("store: table %s declares %d types for %d columns", name, len(types), len(cols))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	key := lower(name)
	if t, ok := e.tables[key]; ok {
		if strings.Join(t.cols, ",") != strings.Join(cols, ",") {
			return nil, fmt.Errorf("store: table %s already exists with different columns", name)
		}
		return t, nil
	}
	tm := tableMeta{Name: name, Columns: cols, Indexed: indexed}
	tm.Types = make([]int, len(types))
	for i, tt := range types {
		tm.Types[i] = int(tt)
	}
	t := e.newTable(tm)
	tf := &tableFile{path: name, types: t.types}
	if e.dir != "" {
		var err error
		if tf, err = openTableFile(filepath.Join(e.dir, safeFileName(name)), t.types, e.fsync); err != nil {
			return nil, err
		}
	}
	e.tables[key] = t
	e.files[key] = tf
	if err := e.writeMeta(); err != nil {
		delete(e.tables, key)
		delete(e.files, key)
		tf.close()
		return nil, err
	}
	return t, nil
}

// Table resolves a table by name (case-insensitive).
func (e *Engine) Table(name string) (*Table, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[lower(name)]
	return t, ok
}

// Stats snapshots the buffer-pool counters.
func (e *Engine) Stats() PoolStats { return e.pool.Stats() }

// maybeCheckpoint checkpoints once the WAL passes its size threshold.
func (e *Engine) maybeCheckpoint() error {
	if e.wal == nil {
		return nil
	}
	e.wal.mu.Lock()
	big := e.wal.size > walCheckpointBytes
	e.wal.mu.Unlock()
	if !big {
		return nil
	}
	return e.Checkpoint()
}

// Checkpoint makes every logged change durable in the pages (flush +
// optional fsync) and truncates the WAL. If some dirty frame is pinned
// by a concurrent reader, truncation is skipped this round and the next
// checkpoint retries. An in-memory engine has nothing to make durable.
func (e *Engine) Checkpoint() error {
	if e.wal == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, t := range e.tables {
		t.tail = nil // durable now (appends hold e.mu): the next opens a fresh page
	}
	all := true
	for _, tf := range e.files {
		ok, err := e.pool.FlushFile(tf)
		if err != nil {
			return err
		}
		if !ok {
			all = false
			continue
		}
		if err := tf.sync(); err != nil {
			return err
		}
	}
	if !all {
		return nil
	}
	return e.wal.truncate(0)
}

// Close checkpoints and releases every pager and its frames.
func (e *Engine) Close() error {
	if err := e.Checkpoint(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.release(true)
}

// release drops every pager's frames, writing dirty ones back when
// flush is set, and closes the pagers and the WAL.
func (e *Engine) release(flush bool) error {
	var firstErr error
	for _, tf := range e.files {
		if err := e.pool.DropFile(tf, flush); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := tf.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	e.files = map[string]*tableFile{}
	e.tables = map[string]*Table{}
	if e.wal != nil {
		if err := e.wal.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
