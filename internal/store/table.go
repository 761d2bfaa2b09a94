package store

import (
	"fmt"
	"slices"
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
// wrong width, too wide for a page, or with a non-NULL value of another
// type than its column's (ErrColumnType) is refused whole. The engine
// may checkpoint afterwards when the WAL has grown past its threshold.
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
	if err := t.appendPages(enc, ends); err != nil {
		return err
	}
	for i, r := range rows {
		t.indexRow(r, int32(startID+int64(i)))
	}
	return nil
}

// encodeRows encodes a whole batch before the WAL or any page sees it,
// refusing it when a row has the wrong width, a non-NULL value of
// another type than its column's, or does not fit a page. Every NULL is
// encoded as a NULL of its column's type, so each page column holds one
// lane. Row i's encoding ends at enc[ends[i]].
func (t *Table) encodeRows(rows []expr.Row) (enc []byte, ends []int, err error) {
	maxRow := PageSize - pageDataStart(len(t.cols)) - 2
	enc = make([]byte, 0, 32*len(rows))
	ends = make([]int, len(rows))
	for i, r := range rows {
		if len(r) != len(t.cols) {
			return nil, nil, fmt.Errorf("store: row width %d does not match table %s (%d columns)", len(r), t.name, len(t.cols))
		}
		start := len(enc)
		for c, v := range r {
			switch ct := t.types[c]; {
			case v.IsNull():
				v = expr.TypedNull(ct)
			case v.T != ct:
				return nil, nil, fmt.Errorf("%w: table %s column %s row %d holds %s, declared %s", ErrColumnType, t.name, t.cols[c], i, v.T, ct)
			}
			enc = appendValue(enc, v)
		}
		if len(enc)-start > maxRow {
			return nil, nil, fmt.Errorf("store: row of %d bytes exceeds page capacity in table %s", len(enc)-start, t.name)
		}
		ends[i] = len(enc)
	}
	return enc, ends, nil
}

// appendPages writes the encoded rows into the tail page (opening fresh
// pages as they fill) through the buffer pool; frames stay pinned
// across rows of the same batch.
func (t *Table) appendPages(enc []byte, ends []int) error {
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
	for _, end := range ends {
		rowEnc := enc[start:end]
		start = end
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
			if pageAppend(fr.buf, rowEnc) {
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
		out, err = decodePageRows(fr.buf, n, t.types, out)
		pool.Unpin(fr, false)
		if err != nil {
			return nil, err
		}
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
	return keyValue(loK, t.types[pos]), keyValue(hiK, t.types[pos]), tree.Len(), true
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
		rows, err := decodePageRows(fr.buf, n, t.types, nil)
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
// expr.Batch, on the lanes of the table's column types. A resident page
// is decoded once: its frame keeps the columns its scans decoded, and a
// later scan copies them instead of re-parsing every cell.
type Iterator struct {
	t    *Table
	page int
	snap int64
	need []bool // nil: every column
	w    cellWalker
}

// NewIterator opens a snapshot scan.
func (t *Table) NewIterator() *Iterator {
	t.mu.RLock()
	snap := t.nRows
	t.mu.RUnlock()
	return &Iterator{t: t, snap: snap}
}

// SetNeeded restricts the scan to the columns a consumer reads:
// need[c] false leaves column c of every batch unset (its cells are
// validated, not decoded). The consumer must then not touch those
// columns. nil restores the full decode.
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

// decodeFrame fills b with the first n rows of a pinned frame. When the
// frame's cached decode covers (n, need) it is copied; otherwise the
// page bytes are decoded, and when the page was already resident (hit)
// the decoded columns are merged into the frame's cache. A page a scan
// just read in is not cached, so a one-pass scan over a pool too small
// to keep it pays no more than the decode. The caller holds t.mu, so
// the bytes cannot change under a decode or its publication.
func (it *Iterator) decodeFrame(fr *frame, hit bool, n int, b *expr.Batch) error {
	if d := fr.dec.Load(); d.covers(n, it.need) {
		d.copyInto(b, it.need)
		it.t.eng.pool.decodeHits.Add(1)
		return nil
	}
	if err := it.w.page(fr.buf, n, it.t.types, it.need, b); err != nil {
		return err
	}
	if hit {
		fr.mergeDecode(n, b, it.need)
	}
	return nil
}

// Gather is an index read, a bitmap heap scan: the B+ tree yields row
// IDs (Range, Lookup), NextBatch fetches them in row-ID order, pinning
// each page once per batch and copying its selected slots from the
// frame's cached decode or walking them into a column-backed batch.
type Gather struct {
	t         *Table
	need      []bool // nil: every column
	ids, from []int32
	pairs     []uint64 // Lookup's sort scratch: id<<32 | key position
	pos       int      // next of ids to fetch
	w         cellWalker
}

// NewGather returns an index read of t that fills the columns need
// selects (nil: every column), as Iterator.SetNeeded.
func (t *Table) NewGather(need []bool) *Gather {
	return &Gather{t: t, need: need}
}

// Range points g at the rows whose indexed column falls in [lo, hi]
// (nil bound = unbounded, inclusivity per flag). It reports false when
// the column has no usable index or a bound's type does not match the
// key lane.
func (g *Gather) Range(col string, lo, hi *expr.Value, loInc, hiInc bool) bool {
	g.t.mu.RLock()
	defer g.t.mu.RUnlock()
	tree, _ := g.t.index(col)
	if tree == nil {
		return false
	}
	ids, ok := tree.rangeOf(lo, hi, loInc, hiInc, g.ids[:0])
	slices.Sort(ids)
	g.ids, g.pos = ids, 0
	return ok
}

// Lookup points g at the rows whose indexed column equals one of keys
// (a NULL key matches nothing), in (row ID, key position) order, and
// returns the position in keys each of those rows matched. It reports
// false when the column has no index: a lookup of no keys asks whether
// one exists.
func (g *Gather) Lookup(col string, keys []expr.Value) ([]int32, bool) {
	g.t.mu.RLock()
	defer g.t.mu.RUnlock()
	tree, _ := g.t.index(col)
	if tree == nil {
		return nil, false
	}
	g.pairs = g.pairs[:0]
	for k, key := range keys {
		if !key.IsNull() {
			for _, id := range tree.LookupValue(key) {
				g.pairs = append(g.pairs, uint64(id)<<32|uint64(k))
			}
		}
	}
	slices.Sort(g.pairs)
	g.ids, g.from, g.pos = g.ids[:0], g.from[:0], 0
	for _, p := range g.pairs {
		g.ids, g.from = append(g.ids, int32(p>>32)), append(g.from, int32(uint32(p)))
	}
	return g.from, true
}

// NextBatch fills b with the rows of up to max next IDs; it reports
// false once every ID has been fetched.
func (g *Gather) NextBatch(b *expr.Batch, max int) (bool, error) {
	if g.pos >= len(g.ids) {
		return false, nil
	}
	t := g.t
	t.mu.RLock()
	defer t.mu.RUnlock()
	ids, tf := g.ids[g.pos:min(len(g.ids), g.pos+max)], t.file()
	g.w.start(b, t.types, g.need, len(ids))
	for k := 0; k < len(ids); {
		id := int64(ids[k])
		if id < 0 || id >= t.nRows {
			return false, fmt.Errorf("store: row id %d out of range in table %s", id, t.name)
		}
		pg := sort.Search(len(t.pageStart), func(i int) bool { return t.pageStart[i] > id }) - 1
		end := k + 1
		for end < len(ids) && (pg+1 == len(t.pageStart) || int64(ids[end]) < t.pageStart[pg+1]) {
			end++
		}
		fr, _, err := t.eng.pool.Pin(tf, uint32(pg), false)
		if err != nil {
			return false, err
		}
		for j, id := range ids[k:end] {
			if err = g.cell(fr, t.pageRowCount(pg, t.nRows), int(int64(id)-t.pageStart[pg]), k+j); err != nil {
				break
			}
		}
		t.eng.pool.Unpin(fr, false)
		if err != nil {
			return false, err
		}
		k = end
	}
	g.pos += len(ids)
	b.FinishCols()
	return true, nil
}

// cell fills row i of the batch with slot s of a pinned page
// whose first n rows the table holds: from the frame's cached decode
// when that covers the columns g fills, through the walker otherwise.
func (g *Gather) cell(fr *frame, n, s, i int) error {
	d := fr.dec.Load()
	if !d.covers(n, g.need) {
		return g.w.row(fr.buf, s, i)
	}
	for c, v := range g.w.vecs {
		switch src := d.cols[c]; {
		case v == nil:
		case src.IsNullAt(s):
			v.EnsureNull().Set(i)
		case v.T == expr.TFloat:
			v.F[i] = src.F[s]
		case v.T == expr.TString:
			v.S[i] = src.S[s]
		case v.T == expr.TBool:
			if src.B.Get(s) {
				v.B.Set(i)
			}
		default:
			v.I[i] = src.I[s]
		}
	}
	return nil
}

// Rows drains g into one row slice.
func (g *Gather) Rows() ([]expr.Row, error) {
	var out []expr.Row
	for b := new(expr.Batch); ; {
		more, err := g.NextBatch(b, maxRowsPerPage)
		if err != nil || !more {
			return out, err
		}
		out = append(out, b.Rows()...)
	}
}
