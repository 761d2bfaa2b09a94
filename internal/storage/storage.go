// Package storage implements the per-site row store behind each
// geo-distributed location: a database holding the tables (or table
// fragments) placed there. Two backends share one surface — the default
// in-memory store (append-only row slices with zero-copy snapshots) and
// the persistent paged engine (internal/store: pager + buffer pool +
// WAL + B+ trees), selected per database at construction. Both maintain
// the same B+ tree secondary indexes, so access-path planning and query
// results are byte-identical across backends.
package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"cgdqp/internal/expr"
	"cgdqp/internal/store"
)

// Table is one table (or fragment): a column list plus either an
// append-only in-memory row slice or a persistent paged table.
type Table struct {
	Name    string
	Columns []string

	mu sync.RWMutex
	// rows is the in-memory backend: append-only, never mutated in
	// place. Snapshots alias the slice with a capped length, so a later
	// append either writes past every snapshot's capacity or relocates
	// the backing array — existing snapshots are immutable either way
	// (copy-on-write growth without per-scan copying).
	rows []expr.Row

	types []expr.Type             // declared column types ("" untyped legacy tables)
	idx   map[string]*store.BTree // in-memory indexes (lowercase col)

	st *store.Table // persistent backend; nil = in-memory
}

// NewTable creates an empty untyped in-memory table (no indexes).
func NewTable(name string, columns []string) *Table {
	return &Table{Name: name, Columns: append([]string(nil), columns...)}
}

// newTableSpec creates an in-memory table with declared types and B+
// tree indexes on the named columns (non-indexable types are skipped,
// mirroring the persistent engine).
func newTableSpec(name string, columns []string, types []expr.Type, indexed []string) *Table {
	t := NewTable(name, columns)
	t.types = append([]expr.Type(nil), types...)
	for _, col := range indexed {
		pos := t.colPos(col)
		if pos < 0 || pos >= len(t.types) || !store.IndexableType(t.types[pos]) {
			continue
		}
		if t.idx == nil {
			t.idx = map[string]*store.BTree{}
		}
		t.idx[strings.ToLower(col)] = store.NewBTree(t.types[pos] == expr.TString)
	}
	return t
}

func (t *Table) colPos(col string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c, col) {
			return i
		}
	}
	return -1
}

// Insert appends rows. Each row must match the column count.
func (t *Table) Insert(rows ...expr.Row) error {
	if t.st != nil {
		return t.st.Append(rows)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range rows {
		if len(r) != len(t.Columns) {
			return fmt.Errorf("storage: row width %d does not match table %s (%d columns)", len(r), t.Name, len(t.Columns))
		}
	}
	for _, r := range rows {
		id := int32(len(t.rows))
		t.rows = append(t.rows, r)
		for col, tree := range t.idx {
			if pos := t.colPos(col); pos >= 0 {
				tree.InsertValue(r[pos], id)
			}
		}
	}
	return nil
}

// RowCount returns the number of stored rows.
func (t *Table) RowCount() int {
	if t.st != nil {
		return int(t.st.RowCount())
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Rows returns a snapshot of the stored rows. For the in-memory backend
// this is a zero-copy, zero-allocation view (full slice expression over
// the append-only rows); the persistent backend decodes its pages. The
// rows are shared; callers must not mutate them.
func (t *Table) Rows() []expr.Row {
	rows, _ := t.RowsChecked()
	return rows
}

// RowsChecked is Rows with the persistent backend's decode error
// surfaced.
func (t *Table) RowsChecked() ([]expr.Row, error) {
	if t.st != nil {
		return t.st.ScanRows()
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := len(t.rows)
	return t.rows[:n:n], nil
}

// Batches returns a page iterator decoding straight into column
// vectors; ok is false for the in-memory backend (whose scans alias
// rows without copying — there are no pages to decode).
func (t *Table) Batches() (*store.Iterator, bool) {
	if t.st == nil {
		return nil, false
	}
	return t.st.NewIterator(), true
}

// Persistent reports whether the table is backed by the paged engine.
func (t *Table) Persistent() bool { return t.st != nil }

// IndexRangeRows returns rows whose indexed column lies in [lo, hi]
// (nil bound = unbounded, inclusivity per flag) in (key, insertion)
// order; ok is false without a usable index — identical semantics on
// both backends.
func (t *Table) IndexRangeRows(col string, lo, hi *expr.Value, loInc, hiInc bool) ([]expr.Row, bool) {
	if t.st != nil {
		return t.st.IndexRangeRows(col, lo, hi, loInc, hiInc)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	tree, ok := t.idx[strings.ToLower(col)]
	if !ok {
		return nil, false
	}
	ids, ok := store.RangeIDs(tree, lo, hi, loInc, hiInc)
	if !ok {
		return nil, false
	}
	out := make([]expr.Row, len(ids))
	for i, id := range ids {
		out[i] = t.rows[id]
	}
	return out, true
}

// IndexLookupRows returns rows whose indexed column equals key, in
// insertion order; ok is false without a usable index.
func (t *Table) IndexLookupRows(col string, key expr.Value) ([]expr.Row, bool) {
	if t.st != nil {
		return t.st.IndexLookupRows(col, key)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	tree, ok := t.idx[strings.ToLower(col)]
	if !ok {
		return nil, false
	}
	if key.IsNull() {
		return nil, true
	}
	ids := tree.LookupValue(key)
	out := make([]expr.Row, len(ids))
	for i, id := range ids {
		out[i] = t.rows[id]
	}
	return out, true
}

// IndexStats returns the min/max value and distinct count of an indexed
// column; ok is false without an index or when the table is empty.
func (t *Table) IndexStats(col string) (min, max expr.Value, distinct int, ok bool) {
	if t.st != nil {
		return t.st.IndexStats(col)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	tree, found := t.idx[strings.ToLower(col)]
	if !found {
		return expr.Value{}, expr.Value{}, 0, false
	}
	loK, hiK, any := tree.MinMax()
	if !any {
		return expr.Value{}, expr.Value{}, 0, false
	}
	pos := t.colPos(col)
	ct := expr.TInt
	if pos >= 0 && pos < len(t.types) {
		ct = t.types[pos]
	}
	return store.KeyValue(loK, ct), store.KeyValue(hiK, ct), tree.Len(), true
}

// DB is one site's database: a set of tables over one backend.
type DB struct {
	Name string

	mu     sync.RWMutex
	tables map[string]*Table
	eng    *store.Engine // persistent engine; nil = in-memory
}

// NewDB creates an empty in-memory database.
func NewDB(name string) *DB {
	return &DB{Name: name, tables: map[string]*Table{}}
}

// NewPersistentDB creates a database whose tables live in the given
// storage engine (one engine per site data directory).
func NewPersistentDB(name string, eng *store.Engine) *DB {
	return &DB{Name: name, tables: map[string]*Table{}, eng: eng}
}

// CreateTable registers an empty untyped table; it fails on duplicates.
func (db *DB) CreateTable(name string, columns []string) (*Table, error) {
	return db.CreateTableSpec(name, columns, nil, nil)
}

// CreateTableSpec registers a table with declared column types and B+
// tree indexes on the named columns. On a persistent database reopening
// an existing data directory, a table with the same shape is reattached
// (its rows survive); the in-memory backend always starts empty.
func (db *DB) CreateTableSpec(name string, columns []string, types []expr.Type, indexed []string) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, dup := db.tables[key]; dup {
		return nil, fmt.Errorf("storage: table %s already exists in %s", name, db.Name)
	}
	var t *Table
	if db.eng != nil {
		st, err := db.eng.CreateTable(name, columns, types, indexed)
		if err != nil {
			return nil, err
		}
		t = &Table{Name: name, Columns: append([]string(nil), columns...), types: append([]expr.Type(nil), types...), st: st}
	} else {
		t = newTableSpec(name, columns, types, indexed)
	}
	db.tables[key] = t
	return t, nil
}

// Table resolves a table by name (case-insensitive).
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
}

// Tables returns the table names, sorted (deterministic across runs).
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}
