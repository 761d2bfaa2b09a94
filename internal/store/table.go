package store

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"

	"cgdqp/internal/colcodec"
	"cgdqp/internal/expr"
)

// Table is one table: its pager, the page directory (start row of
// every page), the open tail page's columns, and the B+ tree secondary
// indexes.
type Table struct {
	eng   *Engine
	name  string
	cols  []string
	types []expr.Type

	mu        sync.RWMutex
	nRows     int64
	pageStart []int64 // pageStart[i] = id of the first row on page i
	// tail builds the columns of the last page while appends may extend
	// it; nil once it is sealed (by a checkpoint or a reopen, which made
	// it durable, or a refused append): the next append then opens a
	// fresh page.
	tail []colcodec.Builder

	// Append scratch, under mu: the builders of tail and of a chunk
	// extending it, the chunks, and the minipages of the extended tail.
	builders      []colcodec.Builder
	chunks        []chunk
	offs, imgOffs []uint16
	img           []byte

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
// type than its column's or a NaN (ErrColumnType) is refused whole. The engine
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
	rec, err := t.layout(rows)
	if err == nil && logWAL && t.eng.wal != nil {
		err = t.eng.wal.append(rec)
	}
	if err != nil {
		t.tail = nil // it may hold rows no page does
		return err
	}
	startID := t.nRows
	if err := t.writePages(rec); err != nil {
		return err
	}
	for i, r := range rows {
		t.indexRow(r, int32(startID+int64(i)))
	}
	return nil
}

// chunk is the share of an appended batch that lands on one page: m
// rows after the k the page holds (k > 0 only on the open tail page),
// column-encoded at rec[body:end].
type chunk struct{ m, k, body, end int }

// layout lays the batch out on pages before the WAL or any page sees
// it, refusing it when a row has the wrong width, a non-NULL value of
// another type than its column's, a NaN, or does not fit a page; every
// NULL is stored as a NULL of its column's type and every −0 as +0
// (expr.Double). It returns the batch's WAL record, whose chunks are a
// fresh page's minipages as they are; it leaves the chunks in t.chunks
// and t.offs, the extended tail page's minipages in t.img and
// t.imgOffs, and the last page in t.tail.
func (t *Table) layout(rows []expr.Row) ([]byte, error) {
	nc := len(t.types)
	t.chunks, t.offs = t.chunks[:0], t.offs[:0]
	t.builders = slices.Grow(t.builders[:0], 2*nc)[:2*nc]
	extra := t.builders[nc:]
	rec := walHeader(t.name, uint64(t.nRows)+uint64(len(rows)), len(rows))
	k := 0
	if t.tail != nil {
		k = int(t.nRows - t.pageStart[len(t.pageStart)-1])
	}
	for pos := 0; pos < len(rows); k = 0 {
		fresh := extra
		if k == 0 {
			t.tail, fresh = t.builders[:nc], t.builders[:nc]
		}
		for c := range fresh {
			fresh[c].Reset()
		}
		m, full, err := t.fit(rows, pos, k, extra)
		if err != nil {
			return nil, err
		}
		if m == 0 { // the tail page is full
			continue
		}
		rec = binary.LittleEndian.AppendUint16(rec, uint16(m))
		ch := chunk{m: m, k: k, body: len(rec)}
		if k > 0 {
			rec, t.offs = appendBuilt(rec, t.offs, extra)
			t.img, t.imgOffs = appendBuilt(t.img[:0], t.imgOffs[:0], t.tail)
		} else {
			rec, t.offs = appendBuilt(rec, t.offs, t.tail)
		}
		ch.end = len(rec)
		t.chunks = append(t.chunks, ch)
		if pos += m; full {
			t.tail = nil
		}
	}
	return rec, nil
}

// fit adds as many rows from rows[pos] to the tail page's k rows in
// t.tail, and to extra when k > 0, as fit the page, checking each, and
// reports how many it added and whether the page is then full.
func (t *Table) fit(rows []expr.Row, pos, k int, extra []colcodec.Builder) (m int, full bool, err error) {
	nc := len(t.types)
	for ; pos+m < len(rows); m++ {
		if k+m == maxRowsPerPage {
			return m, true, nil
		}
		r := rows[pos+m]
		if len(r) != nc {
			return 0, false, fmt.Errorf("store: row width %d does not match table %s (%d columns)", len(r), t.name, nc)
		}
		size := pageDataStart(nc)
		for c, x := range r {
			switch ct := t.types[c]; {
			case x.IsNull():
				x = expr.TypedNull(ct)
			case x.T != ct:
				return 0, false, fmt.Errorf("%w: table %s column %s row %d holds %s, declared %s", ErrColumnType, t.name, t.cols[c], pos+m, x.T, ct)
			case ct == expr.TFloat:
				var ok bool
				if x.F, ok = expr.Double(x.F); !ok {
					return 0, false, fmt.Errorf("%w: table %s column %s row %d holds NaN, which is no DOUBLE", ErrColumnType, t.name, t.cols[c], pos+m)
				}
			}
			t.tail[c].Add(x)
			if k > 0 {
				extra[c].Add(x)
			}
			size += t.tail[c].Len()
		}
		if size > PageSize {
			for c, x := range r {
				t.tail[c].Undo(x)
				if k > 0 {
					extra[c].Undo(x)
				}
			}
			if k+m == 0 {
				return 0, false, fmt.Errorf("store: row of %d bytes exceeds page capacity in table %s", size, t.name)
			}
			return m, true, nil
		}
	}
	return m, false, nil
}

// appendBuilt appends the encodings of the columns bs built to dst,
// and each one's offset past dst's end to offs.
func appendBuilt(dst []byte, offs []uint16, bs []colcodec.Builder) ([]byte, []uint16) {
	start := len(dst)
	for c := range bs {
		offs = append(offs, uint16(len(dst)-start))
		dst = bs[c].Append(dst)
	}
	return dst, offs
}

// writePages applies the chunks layout left of the batch whose WAL
// record is rec to the pages through the buffer pool: a fresh page
// takes its chunk's encodings as they are, the tail page is rewritten
// whole.
func (t *Table) writePages(rec []byte) error {
	nc := len(t.types)
	for j, ch := range t.chunks {
		body, offs := rec[ch.body:ch.end], t.offs[j*nc:(j+1)*nc]
		if ch.k > 0 {
			body, offs = t.img, t.imgOffs
		} else {
			t.pageStart = append(t.pageStart, t.nRows)
		}
		fr, _, err := t.eng.pool.Pin(t.file(), uint32(len(t.pageStart)-1), true)
		if err != nil {
			return err
		}
		writePage(fr.buf, t.types, ch.k+ch.m, offs, body)
		t.eng.pool.Unpin(fr, true)
		t.nRows += int64(ch.m)
	}
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
	var out []expr.Row
	it := t.NewIterator()
	for b := new(expr.Batch); ; {
		more, err := it.NextBatch(b)
		if err != nil || !more {
			return out, err
		}
		out = append(out, b.Rows()...)
	}
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

// buildIndexes rebuilds every B+ tree from a scan of the indexed
// columns. Open calls it, after WAL replay has settled the durable row
// set and before the engine is shared.
func (t *Table) buildIndexes() error {
	if len(t.idx) == 0 {
		return nil
	}
	need := make([]bool, len(t.cols))
	for col, tree := range t.idx {
		*tree = *newBTree(tree.str)
		need[t.colPos(col)] = true
	}
	it := t.NewIterator()
	it.SetNeeded(need)
	for b, id := new(expr.Batch), int32(0); ; {
		more, err := it.NextBatch(b)
		if err != nil || !more {
			return err
		}
		for c, tree := range t.idx {
			pos := t.colPos(c)
			for i := 0; i < b.Len(); i++ {
				tree.InsertValue(b.RowValue(i, pos), id+int32(i))
			}
		}
		id += int32(b.Len())
	}
}

// Iterator streams a consistent snapshot of the table one page at a
// time, decoding each page straight into the column vectors of an
// expr.Batch, on the lanes of the table's column types. A resident page
// is decoded once: its frame keeps the columns its scans decoded, and a
// later scan copies them instead of decoding the minipages again.
type Iterator struct {
	t    *Table
	page int
	snap int64
	need []bool // nil: every column
	d    colcodec.Decoder
}

// NewIterator opens a snapshot scan.
func (t *Table) NewIterator() *Iterator {
	t.mu.RLock()
	snap := t.nRows
	t.mu.RUnlock()
	return &Iterator{t: t, snap: snap}
}

// SetNeeded restricts the scan to the columns a consumer reads:
// need[c] false leaves column c of every batch unset (its minipage is
// not read). The consumer must then not touch those
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
	startBatch(b, it.t.types, it.need, n)
	if err := decodePage(fr.buf, it.t.types, it.need, nil, b, 0, &it.d); err != nil {
		return fmt.Errorf("store: page %d of %s: %w", it.page, it.t.name, err)
	}
	if hit {
		fr.mergeDecode(n, b, it.need)
	}
	return nil
}

// Gather is an index read, a bitmap heap scan: the B+ tree yields row
// IDs (Range, Lookup), NextBatch fetches them in row-ID order, pinning
// each page once per batch and decoding just its selected slots from
// the needed minipages into a column-backed batch.
type Gather struct {
	t         *Table
	need      []bool // nil: every column
	ids, from []int32
	pairs     []uint64 // Lookup's sort scratch: id<<32 | key position
	pos       int      // next of ids to fetch
	slots     []int32  // NextBatch's scratch: one page's slots
	d         colcodec.Decoder
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
	startBatch(b, t.types, g.need, len(ids))
	for k := 0; k < len(ids); {
		id := int64(ids[k])
		if id < 0 || id >= t.nRows {
			return false, fmt.Errorf("store: row id %d out of range in table %s", id, t.name)
		}
		pg := sort.Search(len(t.pageStart), func(i int) bool { return t.pageStart[i] > id }) - 1
		g.slots = g.slots[:0]
		for _, id := range ids[k:] {
			if pg+1 < len(t.pageStart) && int64(id) >= t.pageStart[pg+1] {
				break
			}
			g.slots = append(g.slots, int32(int64(id)-t.pageStart[pg]))
		}
		fr, _, err := t.eng.pool.Pin(tf, uint32(pg), false)
		if err != nil {
			return false, err
		}
		err = decodePage(fr.buf, t.types, g.need, g.slots, b, k, &g.d)
		t.eng.pool.Unpin(fr, false)
		if err != nil {
			return false, fmt.Errorf("store: page %d of %s: %w", pg, t.name, err)
		}
		k += len(g.slots)
	}
	g.pos += len(ids)
	return true, nil
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
