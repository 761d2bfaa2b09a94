package store

import (
	"fmt"
	"sort"
	"sync"

	"cgdqp/internal/expr"
)

// Table is one table: its pager, the page directory (start row of
// every page), and the B+ tree secondary indexes.
type Table struct {
	eng   *Engine
	name  string
	cols  []string
	types []expr.Type

	mu        sync.RWMutex
	nRows     int64
	pageStart []int64 // pageStart[i] = id of the first row on page i

	idxCols []string          // indexed columns, declaration order
	idx     map[string]*btree // lowercase column -> index
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
// buffer pool, and maintains the indexes. A batch holding a row of the
// wrong width or too wide for a page is refused whole. The engine may
// checkpoint afterwards when the WAL has grown past its threshold.
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
	enc, ends, err := t.encodeRows(rows)
	if err != nil {
		return err
	}
	if logWAL && t.eng.wal != nil {
		if err := t.eng.wal.appendInsert(t.name, uint64(t.nRows)+uint64(len(rows)), len(rows), enc); err != nil {
			return err
		}
	}
	startID := t.nRows
	if err := t.appendPages(rows, enc, ends); err != nil {
		return err
	}
	for i, r := range rows {
		t.indexRow(r, int32(startID+int64(i)))
	}
	return nil
}

// encodeRows encodes a whole batch before the WAL or any page sees it,
// refusing it when a row has the wrong width or does not fit a page;
// row i's encoding ends at enc[ends[i]].
func (t *Table) encodeRows(rows []expr.Row) (enc []byte, ends []int, err error) {
	maxRow := PageSize - pageDataStart(len(t.cols)) - 2
	enc = make([]byte, 0, 32*len(rows))
	ends = make([]int, len(rows))
	for i, r := range rows {
		if len(r) != len(t.cols) {
			return nil, nil, fmt.Errorf("store: row width %d does not match table %s (%d columns)", len(r), t.name, len(t.cols))
		}
		start := len(enc)
		if enc = appendRow(enc, r); len(enc)-start > maxRow {
			return nil, nil, fmt.Errorf("store: row of %d bytes exceeds page capacity in table %s", len(enc)-start, t.name)
		}
		ends[i] = len(enc)
	}
	return enc, ends, nil
}

// appendPages writes the encoded rows into the tail page (opening fresh
// pages as they fill) through the buffer pool; frames stay pinned
// across rows of the same batch.
func (t *Table) appendPages(rows []expr.Row, enc []byte, ends []int) error {
	pool := t.eng.pool
	tf := t.file()
	var fr *frame
	release := func() {
		if fr != nil {
			pool.Unpin(fr, true)
			fr = nil
		}
	}
	start := 0
	for i, row := range rows {
		rowEnc := enc[start:ends[i]]
		start = ends[i]
		for {
			if fr == nil {
				if len(t.pageStart) == 0 {
					t.pageStart = append(t.pageStart, 0)
				}
				var err error
				fr, _, err = pool.Pin(tf, uint32(len(t.pageStart)-1), true)
				if err != nil {
					return err
				}
			}
			if pageAppend(fr.buf, rowEnc, row) {
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

// ScanRows decodes every row, for whole-table reads (statistics, the
// index fallback); scans use Iterator batches instead.
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
		fr, _, err := pool.Pin(tf, uint32(pg), false)
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
			fr, _, err = pool.Pin(tf, uint32(pg), false)
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
func (t *Table) index(col string) (*btree, int) {
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
// full scan; a page that cannot be read is an error.
func (t *Table) IndexRangeRows(col string, lo, hi *expr.Value, loInc, hiInc bool) ([]expr.Row, bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	tree, _ := t.index(col)
	if tree == nil {
		return nil, false, nil
	}
	ids, ok := tree.rangeOf(lo, hi, loInc, hiInc)
	if !ok {
		return nil, false, nil
	}
	rows, err := t.rowsAtLocked(ids)
	return rows, err == nil, err
}

// IndexLookupRows returns the rows whose indexed column equals key, in
// insertion order; ok and the error as in IndexRangeRows.
func (t *Table) IndexLookupRows(col string, key expr.Value) ([]expr.Row, bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	tree, _ := t.index(col)
	if tree == nil {
		return nil, false, nil
	}
	if key.IsNull() {
		return nil, true, nil // = NULL matches nothing
	}
	ids := tree.LookupValue(key)
	if len(ids) == 0 {
		return nil, true, nil
	}
	rows, err := t.rowsAtLocked(ids)
	return rows, err == nil, err
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
	return keyValue(loK, ct), keyValue(hiK, ct), tree.Len(), true
}

// buildIndexes rebuilds every B+ tree by scanning the pages (called on
// open, after WAL replay has settled the durable row set).
func (t *Table) buildIndexes() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tree := range t.idx {
		*tree = *newBTree(tree.str)
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
		fr, _, err := pool.Pin(tf, uint32(pg), false)
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
// A resident page is decoded once: its frame keeps the columns its
// scans decoded, and a later scan copies them instead of re-parsing
// every cell.
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
		fr, hit, err := t.eng.pool.Pin(t.file(), uint32(it.page), false)
		if err != nil {
			return false, err
		}
		err = it.decodeFrame(fr, hit, n, b)
		t.eng.pool.Unpin(fr, false)
		if err != nil {
			return false, err
		}
		it.page++
		return true, nil
	}
}

// decodeFrame fills b with the first n rows of a pinned frame. A
// lane-pure page whose cached decode covers (n, need) is copied from
// it; otherwise the page bytes are decoded, and when the page was
// already resident (hit) the decoded columns are merged into the
// frame's cache. A page a scan just read in is not cached, so a
// one-pass scan over a pool too small to keep it pays no more than the
// decode. The caller holds t.mu, so the bytes cannot change under a
// decode or its publication.
func (it *Iterator) decodeFrame(fr *frame, hit bool, n int, b *expr.Batch) error {
	if !pagePure(fr.buf, it.lanes) {
		return decodePageInto(fr.buf, n, it.lanes, it.need, b)
	}
	if d := fr.dec.Load(); d.covers(n, it.need) {
		d.copyInto(b, it.need)
		it.t.eng.pool.decodeHits.Add(1)
		return nil
	}
	if err := decodePageCols(fr.buf, n, it.lanes, it.need, b); err != nil {
		return err
	}
	if hit {
		fr.mergeDecode(n, b, it.need)
	}
	return nil
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
