package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"cgdqp/internal/expr"
)

// Options configures one engine (one site's data directory).
type Options struct {
	Dir             string
	BufferPoolBytes int64 // ignored when Pool is set
	Pool            *Pool // optional shared pool (one budget across sites)
	Fsync           bool  // gate fsyncs (off keeps tests fast; on for durability)
}

// walCheckpointBytes triggers an automatic checkpoint (flush pages,
// sync, truncate the log) once the WAL grows past it.
const walCheckpointBytes = 16 << 20

// Engine is one site's storage engine: the table catalog, the pager
// files, the WAL, and a (possibly shared) buffer pool.
type Engine struct {
	dir   string
	fsync bool
	pool  *Pool
	wal   *wal

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
// the WAL over it, and rebuilds the B+ tree indexes.
func Open(opts Options) (*Engine, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
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
	meta, err := e.readMeta()
	if err != nil {
		return nil, err
	}
	for _, tm := range meta.Tables {
		if err := e.loadTable(tm); err != nil {
			return nil, err
		}
	}
	w, err := openWAL(filepath.Join(opts.Dir, "wal.log"), opts.Fsync)
	if err != nil {
		return nil, err
	}
	e.wal = w
	if err := e.recover(); err != nil {
		return nil, err
	}
	for _, t := range e.tables {
		if err := t.buildIndexes(); err != nil {
			return nil, err
		}
	}
	return e, nil
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

// writeMeta persists the catalog atomically (write-temp + rename).
func (e *Engine) writeMeta() error {
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
// valid page prefix (a torn tail page fails its checksum and is cut
// off; the WAL re-applies whatever the prefix is missing).
func (e *Engine) loadTable(tm tableMeta) error {
	t := e.newTable(tm)
	tf, err := openTableFile(filepath.Join(e.dir, safeFileName(tm.Name)), len(tm.Columns), e.fsync)
	if err != nil {
		return err
	}
	buf := make([]byte, PageSize)
	var pg uint32
	for {
		if err := tf.readPage(pg, buf); err != nil {
			break
		}
		t.pageStart = append(t.pageStart, t.nRows)
		t.nRows += int64(pageNRows(buf))
		pg++
	}
	if err := tf.truncatePages(pg); err != nil {
		tf.close()
		return err
	}
	key := lower(tm.Name)
	e.tables[key] = t
	e.files[key] = tf
	return nil
}

// newTable constructs the in-memory table shell from its catalog entry.
func (e *Engine) newTable(tm tableMeta) *Table {
	t := &Table{
		eng:   e,
		name:  tm.Name,
		cols:  append([]string(nil), tm.Columns...),
		types: make([]expr.Type, len(tm.Types)),
		idx:   map[string]*BTree{},
	}
	for i, tt := range tm.Types {
		t.types[i] = expr.Type(tt)
	}
	for _, col := range tm.Indexed {
		pos := t.colPos(lower(col))
		if pos < 0 {
			continue
		}
		ct := expr.TInt
		if pos < len(t.types) {
			ct = t.types[pos]
		}
		if !IndexableType(ct) {
			continue
		}
		t.idxCols = append(t.idxCols, col)
		t.idx[lower(col)] = NewBTree(ct == expr.TString)
	}
	return t
}

// recover replays the WAL: each record whose afterRows is past the
// table's durable row count re-applies exactly the missing suffix.
func (e *Engine) recover() error {
	return e.wal.replay(
		func(name string) (int, bool) {
			t, ok := e.tables[lower(name)]
			if !ok {
				return 0, false
			}
			return len(t.cols), true
		},
		func(rec walRecord) error {
			t := e.tables[lower(rec.table)]
			missing := int64(rec.afterRows) - t.nRows
			if missing <= 0 {
				return nil
			}
			if missing > int64(len(rec.rows)) {
				// A gap means an earlier record was lost; trust only the
				// pages (the record cannot be applied consistently).
				return nil
			}
			return t.appendLocked(rec.rows[int64(len(rec.rows))-missing:], false)
		})
}

// CreateTable declares a table: column names, column types, and which
// columns carry B+ tree indexes. Re-opening an existing table with the
// same shape returns it (the catalog is persistent); a shape mismatch
// is an error.
func (e *Engine) CreateTable(name string, cols []string, types []expr.Type, indexed []string) (*Table, error) {
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
	tf, err := openTableFile(filepath.Join(e.dir, safeFileName(name)), len(cols), e.fsync)
	if err != nil {
		return nil, err
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
// checkpoint retries.
func (e *Engine) Checkpoint() error {
	e.mu.Lock()
	defer e.mu.Unlock()
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
	return e.wal.truncate()
}

// Close checkpoints and releases every file handle.
func (e *Engine) Close() error {
	if err := e.Checkpoint(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var firstErr error
	for _, tf := range e.files {
		if err := e.pool.DropFile(tf); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := tf.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	e.files = map[string]*tableFile{}
	e.tables = map[string]*Table{}
	if err := e.wal.close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
