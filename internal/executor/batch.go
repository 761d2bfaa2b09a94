package executor

import (
	"sync"

	"cgdqp/internal/expr"
)

// BatchSize is the number of rows a batch carries: large enough to
// amortize per-call overhead (channel sends, virtual dispatch) across
// ~1k rows, small enough to stay cache- and memory-friendly.
const BatchSize = 1024

// Batch is the unit of data flow between operators: an expr.Batch
// (column vectors with a lazily materialized row view) plus an optional
// selection vector. Filters narrow a batch by writing its selection —
// no rows move — and downstream kernels evaluate only the selected
// rows; the row view a consumer asks for applies the selection.
//
// Lifetime: pooled containers hold only row HEADERS and column
// storage. The Value arrays headers point into are owned by stable
// producers (table fragments, projection arenas, join slabs) and are
// never pooled, so rows extracted from a batch stay valid after the
// container is released.
type Batch struct {
	data expr.Batch
	// sel is the surviving row indexes into data; nil selects all rows.
	// It always aliases selBuf (batch-owned storage), never an
	// operator's scratch, so holding a batch across the producer's next
	// iteration is safe.
	sel    []int32
	selBuf []int32
	// rowBuf is batch-owned row-header storage for operators that
	// assemble a row-backed batch (interpreter fallbacks, rowOut).
	rowBuf []expr.Row
	// gathered caches the selection-applied row view.
	gathered []expr.Row
	rowsOK   bool
}

// batchPool recycles batch containers across operators and executions so
// the hot path allocates vectors and buffers only on first use.
var batchPool = sync.Pool{
	New: func() any { return &Batch{} },
}

// NewBatch takes an empty batch from the pool.
func NewBatch() *Batch { return batchPool.Get().(*Batch) }

// Release resets the batch and returns it to the pool. The caller must
// not touch the batch afterwards; rows extracted from it stay valid.
func (b *Batch) Release() {
	if b == nil {
		return
	}
	b.data.Reset()
	b.sel = nil
	b.rowBuf = clearRows(b.rowBuf)
	b.gathered = clearRows(b.gathered)
	b.rowsOK = false
	batchPool.Put(b)
}

// clearRows drops every header the buffer holds (including stale ones
// beyond its length) and returns it empty with capacity retained.
func clearRows(buf []expr.Row) []expr.Row {
	buf = buf[:cap(buf)]
	clear(buf)
	return buf[:0]
}

// Len returns the number of (selected) rows.
func (b *Batch) Len() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.data.Len()
}

// Data exposes the underlying columnar batch. Its indexes are
// pre-selection: combine with Sel when evaluating kernels.
func (b *Batch) Data() *expr.Batch { return &b.data }

// Sel returns the selection vector (nil: all rows).
func (b *Batch) Sel() []int32 { return b.sel }

// SetRows makes the batch row-backed over rows, aliasing the slice, and
// clears any selection. The rows must stay valid and immutable for the
// batch's lifetime.
func (b *Batch) SetRows(rows []expr.Row) {
	b.data.SetRows(rows)
	b.sel = nil
	b.rowsOK = false
}

// setSel installs a fresh dense-origin selection. The slice is adopted
// as the batch's selection storage when it has capacity (producers pass
// SelBuf-backed slices, so this is alias-safe), and the row cache is
// invalidated.
func (b *Batch) setSel(sel []int32) {
	if cap(sel) > 0 {
		b.selBuf = sel[:0]
	}
	b.sel = sel
	b.rowsOK = false
}

// SelBuf returns the batch-owned selection storage (empty, capacity
// retained) for a producer to build a new selection in.
func (b *Batch) SelBuf() []int32 { return b.selBuf[:0] }

// compactSel replaces the selection after an in-place compaction of
// Sel's backing (kernel Select with a non-nil selection).
func (b *Batch) compactSel(sel []int32) {
	b.sel = sel
	b.rowsOK = false
}

// Rows returns the selection-applied row view. Dense batches hand out
// the underlying rows directly (aliased for row-backed batches, a
// stable arena for column-backed ones); a selected view is gathered
// into batch-owned header storage and cached, and a column-backed batch
// materializes only the selected rows for it.
func (b *Batch) Rows() []expr.Row {
	if b.sel == nil {
		return b.data.Rows()
	}
	if !b.rowsOK {
		b.gathered = b.data.GatherRows(b.sel, b.gathered[:0])
		b.rowsOK = true
	}
	return b.gathered
}

// RowValue returns the value at (selected row r, column col) without
// forcing row materialization on column-backed batches.
func (b *Batch) RowValue(r, col int) expr.Value {
	if b.sel != nil {
		r = int(b.sel[r])
	}
	return b.data.RowValue(r, col)
}

// Truncate shortens the batch to its first k selected rows.
func (b *Batch) Truncate(k int) {
	if k >= b.Len() {
		return
	}
	if b.sel != nil {
		b.sel = b.sel[:k]
	} else {
		b.data.Truncate(k)
	}
	if b.rowsOK {
		b.gathered = b.gathered[:k]
	}
}

// Bytes returns the summed encoded width of the batch's rows — what a
// shipment of this batch is billed for.
func (b *Batch) Bytes() int64 {
	var n int64
	for _, r := range b.Rows() {
		n += int64(r.Width())
	}
	return n
}

// BatchOperator is the iterator contract of the operator tree: Open
// prepares the operator, NextBatch returns the next row vector (nil at
// end of stream), Close releases resources. Ownership of a returned
// batch transfers to the caller, which must Release it (or hand it on)
// exactly once.
type BatchOperator interface {
	Open() error
	NextBatch() (*Batch, error)
	Close() error
}
