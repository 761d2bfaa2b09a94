package expr

import "fmt"

// Batch is the columnar unit of data flow between executor operators: a
// fixed number of rows as column vectors, which a producer (a page
// decode, a wire decode, an operator) fills through StartCols/OwnCol,
// and a row view materialized lazily into a fresh arena only for the
// consumer that reads rows, the result surface.
//
// Column storage is retained across Reset so pooled batches reach a
// zero-allocation steady state. The row arena is never pooled: rows
// handed out stay valid after the container is recycled.
type Batch struct {
	n    int
	cols []Vec
	set  []bool // the producer filled the column

	rows      []Row
	rowsValid bool
}

// Len returns the number of rows.
func (b *Batch) Len() int { return b.n }

// Width returns the number of columns.
func (b *Batch) Width() int { return len(b.cols) }

// Bind checks the batch's columns against the lane types the consumer
// was compiled for. A column holding nothing but NULLs takes the
// declared lane (a wire frame carries no lane for it); a column with a
// value of another type fails with ErrLane. Declared TNull columns
// take any lane.
func (b *Batch) Bind(types []Type) error {
	for c := range b.cols {
		v := &b.cols[c]
		if c >= len(types) || !b.set[c] || v.T == types[c] || types[c] == TNull {
			continue
		}
		if !v.allNull() {
			return fmt.Errorf("%w: column %d holds %s values, typed %s", ErrLane, c, v.T, types[c])
		}
		nulls, nullT := v.Null, v.NullT
		v.reset(types[c], v.N)
		v.Null, v.NullT = nulls, nullT
	}
	return nil
}

// StartCols prepares the batch to be filled column-wise: width columns
// of n rows, all unset. The producer fills each column through OwnCol;
// a column it leaves unset — a scan told that no consumer reads it —
// materializes as the zero Value.
func (b *Batch) StartCols(width, n int) {
	b.n = n
	b.rows = nil
	b.rowsValid = false
	if cap(b.cols) < width {
		cols := make([]Vec, width)
		copy(cols, b.cols[:cap(b.cols)])
		b.cols, b.set = cols, make([]bool, width)
	}
	b.cols, b.set = b.cols[:width], b.set[:width]
	clear(b.set)
}

// OwnCol returns column idx's vector for the producer to fill (reusing
// its storage) and marks the column set.
func (b *Batch) OwnCol(idx int) *Vec {
	b.set[idx] = true
	return &b.cols[idx]
}

// SetLen sets the row count of a batch whose producer grows its columns
// by appending (StartCols with zero rows, then Vec.AppendGather).
func (b *Batch) SetLen(n int) { b.n = n }

// ColVec returns the vector of column idx; ok is false for a column the
// producer left unset.
func (b *Batch) ColVec(idx int) (*Vec, bool) {
	if idx < 0 || idx >= len(b.cols) || !b.set[idx] {
		return nil, false
	}
	return &b.cols[idx], true
}

// Rows returns the full row view, materializing it on first use. The
// returned rows outlive the batch container.
func (b *Batch) Rows() []Row {
	b.ensureRows()
	return b.rows
}

// RowValue returns the value at (row i, column col) without
// materializing the row view.
func (b *Batch) RowValue(i, col int) Value {
	if !b.set[col] {
		return Value{}
	}
	return b.cols[col].Value(i)
}

// Truncate shortens the batch to its first k rows.
func (b *Batch) Truncate(k int) {
	if k >= b.n {
		return
	}
	b.n = k
	for c := range b.cols {
		b.cols[c].N = min(b.cols[c].N, k)
	}
	if b.rowsValid {
		b.rows = b.rows[:k]
	}
}

// Reset clears the batch for reuse, dropping row references but keeping
// column storage, so a recycled batch reaches steady state without
// allocating.
func (b *Batch) Reset() {
	b.n = 0
	b.rows = nil
	b.rowsValid = false
}

func (b *Batch) ensureRows() {
	if b.rowsValid {
		return
	}
	b.rows = b.GatherRows(nil, make([]Row, 0, b.n))
	b.rowsValid = true
}

// GatherRows appends the rows at sel (every row when sel is nil) to
// dst, materialized into a fresh arena (one value slab, never pooled,
// so the rows stay valid after the container recycles).
func (b *Batch) GatherRows(sel []int32, dst []Row) []Row {
	n := len(sel)
	if sel == nil {
		n = b.n
	}
	w := len(b.cols)
	arena := make([]Value, n*w)
	for j := 0; j < n; j++ {
		dst = append(dst, arena[j*w:(j+1)*w:(j+1)*w])
	}
	out := dst[len(dst)-n:]
	for c := range b.cols {
		if !b.set[c] {
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
