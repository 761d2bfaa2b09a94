package expr

// Batch is the columnar unit of data flow between executor operators:
// a fixed number of rows presented as column vectors, built at most
// once and cached, with an optional row-major view. A batch is either
//
//   - row-backed: SetRows aliased a []Row (the rows are immutable,
//     owned upstream); column vectors are built lazily per column via
//     BuildColVec and cached, so a filter and the projection behind it
//     share one row-to-column conversion, or
//   - column-backed: a producer (wire decode, columnar projection)
//     filled every column vector directly via StartCols/OwnCol; the
//     row view is materialized lazily into a fresh arena only if some
//     consumer actually needs rows (interpreter fallback, the final
//     result surface).
//
// Column storage is retained across Reset so pooled batches reach a
// zero-allocation steady state. The row arena a column-backed batch
// materializes is never pooled: rows handed out stay valid after the
// container is recycled.
type Batch struct {
	types []Type
	n     int

	rows      []Row
	rowsValid bool

	cols  []Vec
	state []colState
}

// colState tracks one column's vector cache.
type colState uint8

const (
	colUnbuilt colState = iota // row-backed; vector not built yet
	colBuilt                   // vector built from the rows and cached
	colBad                     // rows not lane-pure; vector unavailable
	colOwned                   // producer-filled vector is authoritative
)

// Len returns the number of rows.
func (b *Batch) Len() int { return b.n }

// Width returns the number of columns.
func (b *Batch) Width() int { return len(b.types) }

// RowBacked reports whether a row-major view already exists (aliased
// or previously materialized); Rows/Row on such a batch is free.
func (b *Batch) RowBacked() bool { return b.rowsValid }

// Bind declares the column lane types the consumer expects. Binding
// the same types again is a cheap no-op that keeps every cached
// vector; binding different types invalidates built vectors (owned
// vectors persist and are lane-checked by ColVec).
func (b *Batch) Bind(types []Type) {
	if typesEqual(b.types, types) {
		return
	}
	b.types = append(b.types[:0], types...)
	b.ensureWidth()
	for i, st := range b.state {
		if st == colBuilt || st == colBad {
			b.state[i] = colUnbuilt
		}
	}
}

// SetRows makes the batch row-backed over rows, aliasing the slice:
// the caller guarantees the rows stay valid and immutable for the
// batch's lifetime. All cached vectors are invalidated.
func (b *Batch) SetRows(rows []Row) {
	b.rows = rows
	b.rowsValid = true
	b.n = len(rows)
	for i := range b.state {
		b.state[i] = colUnbuilt
	}
}

// StartCols prepares the batch to be filled column-wise: width columns
// of n rows, all unset. The producer fills each column through OwnCol
// and finishes with FinishCols.
func (b *Batch) StartCols(width, n int) {
	b.n = n
	b.rows = nil
	b.rowsValid = false
	if cap(b.types) < width {
		b.types = make([]Type, width)
	} else {
		b.types = b.types[:width]
	}
	b.ensureWidth()
	for i := range b.state {
		b.state[i] = colBad
	}
}

// OwnCol returns column idx's vector for the producer to fill (reusing
// its storage) and marks the column owned. Every column must be filled
// before the batch is handed to a consumer.
func (b *Batch) OwnCol(idx int) *Vec {
	b.state[idx] = colOwned
	return &b.cols[idx]
}

// SetLen sets the row count of a batch whose producer grows its owned
// columns by appending (StartCols with zero rows, then Vec.AppendGather).
func (b *Batch) SetLen(n int) { b.n = n }

// FinishCols records each owned column's lane type as the batch's
// column type. Producers call it once after filling every column.
func (b *Batch) FinishCols() {
	for i := range b.state {
		if b.state[i] == colOwned {
			b.types[i] = b.cols[i].T
		}
	}
}

// ColVec returns the vector for column idx, building and caching it
// from the rows on first use. ok is false when the column cannot be
// served columnar: the rows are not lane-pure for the bound type, or
// an owned vector's lane differs from the bound type — consumers then
// fall back to the row view.
func (b *Batch) ColVec(idx int) (*Vec, bool) {
	if idx < 0 || idx >= len(b.state) {
		return nil, false
	}
	switch b.state[idx] {
	case colOwned:
		v := &b.cols[idx]
		if v.T != b.types[idx] {
			return nil, false
		}
		return v, true
	case colBuilt:
		return &b.cols[idx], true
	case colBad:
		return nil, false
	}
	if !b.rowsValid {
		return nil, false
	}
	if !BuildColVec(b.rows, idx, b.types[idx], &b.cols[idx]) {
		b.state[idx] = colBad
		return nil, false
	}
	b.state[idx] = colBuilt
	return &b.cols[idx], true
}

// Row returns row i, materializing the row view of a column-backed
// batch on first use.
func (b *Batch) Row(i int) Row {
	b.ensureRows()
	return b.rows[i]
}

// Rows returns the full row view, materializing it on first use for a
// column-backed batch. The returned rows outlive the batch container.
func (b *Batch) Rows() []Row {
	b.ensureRows()
	return b.rows
}

// RowValue returns the value at (row i, column col) without forcing a
// whole-batch row materialization on column-backed batches.
func (b *Batch) RowValue(i, col int) Value {
	if b.rowsValid {
		return b.rows[i][col]
	}
	return b.cols[col].Value(i)
}

// Truncate shortens the batch to its first k rows.
func (b *Batch) Truncate(k int) {
	if k >= b.n {
		return
	}
	b.n = k
	if b.rowsValid {
		b.rows = b.rows[:k]
	}
}

// Reset clears the batch for reuse, dropping row references but
// keeping column storage and the bound types so a recycled batch
// reaches steady state without allocating.
func (b *Batch) Reset() {
	b.n = 0
	b.rows = nil
	b.rowsValid = false
	for i := range b.state {
		b.state[i] = colUnbuilt
	}
}

// ensureRows materializes the row view from owned column vectors.
func (b *Batch) ensureRows() {
	if b.rowsValid {
		return
	}
	b.rows = b.GatherRows(nil, make([]Row, 0, b.n))
	b.rowsValid = true
}

// GatherRows appends the rows at sel (every row when sel is nil) to
// dst. Row-backed batches hand out their rows; a column-backed batch
// materializes just those rows into a fresh arena (one value slab,
// never pooled, so the rows stay valid after the container recycles).
// A column its producer left unset — a scan told that no consumer
// reads it — materializes as the zero Value.
func (b *Batch) GatherRows(sel []int32, dst []Row) []Row {
	n := len(sel)
	if sel == nil {
		n = b.n
	}
	if b.rowsValid {
		if sel == nil {
			return append(dst, b.rows...)
		}
		for _, si := range sel {
			dst = append(dst, b.rows[si])
		}
		return dst
	}
	w := len(b.types)
	arena := make([]Value, n*w)
	for j := 0; j < n; j++ {
		dst = append(dst, arena[j*w:(j+1)*w:(j+1)*w])
	}
	out := dst[len(dst)-n:]
	for c := 0; c < w; c++ {
		if b.state[c] != colOwned {
			continue
		}
		v := &b.cols[c]
		for j, r := range out {
			i := j
			if sel != nil {
				i = int(sel[j])
			}
			r[c] = v.Value(i)
		}
	}
	return dst
}

// ensureWidth sizes the column and state slices to the bound width.
func (b *Batch) ensureWidth() {
	w := len(b.types)
	if cap(b.cols) < w {
		cols := make([]Vec, w)
		copy(cols, b.cols)
		b.cols = cols
		st := make([]colState, w)
		copy(st, b.state)
		b.state = st
		return
	}
	if len(b.cols) < w {
		old := len(b.cols)
		b.cols = b.cols[:w]
		b.state = b.state[:w]
		for i := old; i < w; i++ {
			b.state[i] = colUnbuilt
		}
	} else if len(b.cols) > w {
		b.cols = b.cols[:w]
		b.state = b.state[:w]
	}
}

// typesEqual reports elementwise equality.
func typesEqual(a, b []Type) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
