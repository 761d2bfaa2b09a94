package store

import (
	"fmt"
	"sort"
	"sync"

	"cgdqp/internal/expr"
)

// Table is one persistent table: a page file, the page directory
// (start row of every page), and the B+ tree secondary indexes.
type Table struct {
	eng   *Engine
	name  string
	cols  []string
	types []expr.Type

	mu        sync.RWMutex
	nRows     int64
	pageStart []int64 // pageStart[i] = id of the first row on page i

	idxCols []string          // indexed columns, declaration order
	idx     map[string]*BTree // lowercase column -> index
}

// RowCount returns the number of stored rows.
func (t *Table) RowCount() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nRows
}

// file resolves the pager through the engine.
func (t *Table) file() *tableFile { return t.eng.files[lower(t.name)] }

// Append logs rows to the WAL, applies them to the pages through the
// buffer pool, and maintains the indexes. The engine may checkpoint
// afterwards when the WAL has grown past its threshold.
func (t *Table) Append(rows []expr.Row) error {
	if len(rows) == 0 {
		return nil
	}
	t.eng.mu.RLock()
	err := t.appendLocked(rows, true)
	t.eng.mu.RUnlock()
	if err != nil {
		return err
	}
	return t.eng.maybeCheckpoint()
}

// appendLocked performs the append under the engine read lock; logWAL
// is false during recovery replay (the log already holds the record).
func (t *Table) appendLocked(rows []expr.Row, logWAL bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range rows {
		if len(r) != len(t.cols) {
			return fmt.Errorf("store: row width %d does not match table %s (%d columns)", len(r), t.name, len(t.cols))
		}
	}
	if logWAL {
		if err := t.eng.wal.appendInsert(t.name, uint64(t.nRows)+uint64(len(rows)), rows); err != nil {
			return err
		}
	}
	startID := t.nRows
	if err := t.appendPages(rows); err != nil {
		return err
	}
	for i, r := range rows {
		t.indexRow(r, int32(startID+int64(i)))
	}
	return nil
}

// appendPages writes rows into the tail page (opening fresh pages as
// they fill) through the buffer pool; frames stay pinned across rows of
// the same batch.
func (t *Table) appendPages(rows []expr.Row) error {
	pool := t.eng.pool
	tf := t.file()
	var fr *frame
	release := func() {
		if fr != nil {
			pool.Unpin(fr, true)
			fr = nil
		}
	}
	scratch := make([]byte, 0, 256)
	for _, row := range rows {
		scratch = appendRow(scratch[:0], row)
		if len(scratch) > PageSize-pageDataStart(len(t.cols))-2 {
			release()
			return fmt.Errorf("store: row of %d bytes exceeds page capacity in table %s", len(scratch), t.name)
		}
		for {
			if fr == nil {
				if len(t.pageStart) == 0 {
					t.pageStart = append(t.pageStart, 0)
				}
				var err error
				fr, err = pool.Pin(tf, uint32(len(t.pageStart)-1), true)
				if err != nil {
					return err
				}
			}
			if pageAppend(fr.buf, scratch, row) {
				t.nRows++
				break
			}
			release()
			t.pageStart = append(t.pageStart, t.nRows)
		}
	}
	release()
	return nil
}

// indexRow feeds one row into every index.
func (t *Table) indexRow(row expr.Row, id int32) {
	for col, tree := range t.idx {
		if pos := t.colPos(col); pos >= 0 {
			tree.InsertValue(row[pos], id)
		}
	}
}

func (t *Table) colPos(lowerCol string) int {
	for i, c := range t.cols {
		if lower(c) == lowerCol {
			return i
		}
	}
	return -1
}

// pageRowCount returns how many of rows [0, limit) live on page pg.
func (t *Table) pageRowCount(pg int, limit int64) int {
	start := t.pageStart[pg]
	end := limit
	if pg+1 < len(t.pageStart) && t.pageStart[pg+1] < end {
		end = t.pageStart[pg+1]
	}
	if end < start {
		return 0
	}
	return int(end - start)
}

// ScanRows decodes every row (the row-path parity oracle; scans on the
// hot path use Iterator batches instead).
func (t *Table) ScanRows() ([]expr.Row, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]expr.Row, 0, t.nRows)
	pool := t.eng.pool
	tf := t.file()
	for pg := 0; pg < len(t.pageStart); pg++ {
		n := t.pageRowCount(pg, t.nRows)
		if n == 0 {
			continue
		}
		fr, err := pool.Pin(tf, uint32(pg), false)
		if err != nil {
			return nil, err
		}
		out, err = decodePageRows(fr.buf, n, len(t.cols), out)
		pool.Unpin(fr, false)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (t *Table) rowsAtLocked(ids []int32) ([]expr.Row, error) {
	pool := t.eng.pool
	tf := t.file()
	out := make([]expr.Row, 0, len(ids))
	var fr *frame
	curPage := -1
	defer func() {
		if fr != nil {
			pool.Unpin(fr, false)
		}
	}()
	for _, id := range ids {
		if int64(id) >= t.nRows || id < 0 {
			return nil, fmt.Errorf("store: row id %d out of range in table %s", id, t.name)
		}
		pg := sort.Search(len(t.pageStart), func(i int) bool { return t.pageStart[i] > int64(id) }) - 1
		if pg != curPage {
			if fr != nil {
				pool.Unpin(fr, false)
				fr = nil
			}
			var err error
			fr, err = pool.Pin(tf, uint32(pg), false)
			if err != nil {
				return nil, err
			}
			curPage = pg
		}
		row, err := decodePageRow(fr.buf, int(int64(id)-t.pageStart[pg]), len(t.cols))
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// index returns the B+ tree for a column, if declared.
func (t *Table) index(col string) (*BTree, int) {
	tree, ok := t.idx[lower(col)]
	if !ok {
		return nil, -1
	}
	return tree, t.colPos(lower(col))
}

// IndexRangeRows returns the rows whose indexed column falls in
// [lo, hi] (nil bound = unbounded, inclusivity per flag), in (key,
// insertion) order. ok is false when the column has no usable index or
// a bound's type does not match the key lane — callers fall back to a
// full scan.
func (t *Table) IndexRangeRows(col string, lo, hi *expr.Value, loInc, hiInc bool) ([]expr.Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	tree, _ := t.index(col)
	if tree == nil {
		return nil, false
	}
	var loK, hiK *Key
	if lo != nil {
		k, ok := valueKey(*lo, tree.str)
		if !ok {
			return nil, false
		}
		loK = &k
	}
	if hi != nil {
		k, ok := valueKey(*hi, tree.str)
		if !ok {
			return nil, false
		}
		hiK = &k
	}
	var ids []int32
	tree.Range(loK, hiK, loInc, hiInc, func(_ Key, post []int32) bool {
		ids = append(ids, post...)
		return true
	})
	rows, err := t.rowsAtLocked(ids)
	if err != nil {
		return nil, false
	}
	return rows, true
}

// IndexLookupRows returns the rows whose indexed column equals key, in
// insertion order; ok is false when no usable index exists.
func (t *Table) IndexLookupRows(col string, key expr.Value) ([]expr.Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	tree, _ := t.index(col)
	if tree == nil {
		return nil, false
	}
	if key.IsNull() {
		return nil, true // = NULL matches nothing
	}
	ids := tree.LookupValue(key)
	if len(ids) == 0 {
		return nil, true
	}
	rows, err := t.rowsAtLocked(ids)
	if err != nil {
		return nil, false
	}
	return rows, true
}

// IndexStats returns the min/max key (as typed values) and distinct key
// count of a column's index; ok is false without one or when empty.
func (t *Table) IndexStats(col string) (min, max expr.Value, distinct int, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	tree, pos := t.index(col)
	if tree == nil || pos < 0 {
		return expr.Value{}, expr.Value{}, 0, false
	}
	loK, hiK, any := tree.MinMax()
	if !any {
		return expr.Value{}, expr.Value{}, 0, false
	}
	ct := expr.TInt
	if pos < len(t.types) {
		ct = t.types[pos]
	}
	return KeyValue(loK, ct), KeyValue(hiK, ct), tree.Len(), true
}

// buildIndexes rebuilds every B+ tree by scanning the pages (called on
// open, after WAL replay has settled the durable row set).
func (t *Table) buildIndexes() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for col, tree := range t.idx {
		_ = col
		*tree = *NewBTree(tree.str)
	}
	if len(t.idx) == 0 {
		return nil
	}
	pool := t.eng.pool
	tf := t.file()
	id := int32(0)
	for pg := 0; pg < len(t.pageStart); pg++ {
		n := t.pageRowCount(pg, t.nRows)
		if n == 0 {
			continue
		}
		fr, err := pool.Pin(tf, uint32(pg), false)
		if err != nil {
			return err
		}
		rows, err := decodePageRows(fr.buf, n, len(t.cols), nil)
		pool.Unpin(fr, false)
		if err != nil {
			return err
		}
		for _, r := range rows {
			t.indexRow(r, id)
			id++
		}
	}
	return nil
}

// Iterator streams a consistent snapshot of the table one page at a
// time, decoding each page straight into the column vectors of an
// expr.Batch when the page is lane-pure (the row path covers the rest).
type Iterator struct {
	t     *Table
	page  int
	snap  int64
	need  []bool      // nil: every column
	lanes []expr.Type // per-page scratch
}

// NewIterator opens a snapshot scan.
func (t *Table) NewIterator() *Iterator {
	t.mu.RLock()
	snap := t.nRows
	t.mu.RUnlock()
	return &Iterator{t: t, snap: snap, lanes: make([]expr.Type, len(t.cols))}
}

// SetNeeded restricts the scan to the columns a consumer reads:
// need[c] false leaves column c of every lane-pure page's batch unset
// (its cells are validated, not decoded). The consumer must then not
// touch those columns; a page decoded through the row path carries
// them regardless. nil restores the full decode.
func (it *Iterator) SetNeeded(need []bool) { it.need = need }

// NextBatch fills b with the next page's rows; it reports false at the
// end of the snapshot.
func (it *Iterator) NextBatch(b *expr.Batch) (bool, error) {
	t := it.t
	t.mu.RLock()
	defer t.mu.RUnlock()
	for {
		if it.page >= len(t.pageStart) || t.pageStart[it.page] >= it.snap {
			return false, nil
		}
		n := t.pageRowCount(it.page, it.snap)
		if n == 0 {
			it.page++
			continue
		}
		fr, err := t.eng.pool.Pin(t.file(), uint32(it.page), false)
		if err != nil {
			return false, err
		}
		err = decodePageInto(fr.buf, n, it.lanes, it.need, b)
		t.eng.pool.Unpin(fr, false)
		if err != nil {
			return false, err
		}
		it.page++
		return true, nil
	}
}

// decodePageInto decodes the first limit rows of a page into the batch:
// columnar (masked by need) for lane-pure pages, row-backed otherwise.
// lanes is scratch, one entry per table column.
func decodePageInto(buf []byte, limit int, lanes []expr.Type, need []bool, b *expr.Batch) error {
	if pagePure(buf, lanes) {
		return decodePageCols(buf, limit, lanes, need, b)
	}
	rows, err := decodePageRows(buf, limit, len(lanes), make([]expr.Row, 0, limit))
	if err != nil {
		return err
	}
	b.SetRows(rows)
	return nil
}
