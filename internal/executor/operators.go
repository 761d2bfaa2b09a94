package executor

import (
	"fmt"

	"cgdqp/internal/expr"
	"cgdqp/internal/plan"
	"cgdqp/internal/store"
)

// This file holds the streaming operators: scan, filter, project, the
// fused filter+project, limit and union. They pass batches through (or
// build new ones) without materializing their input.

// scanOp emits a table fragment's rows as batches. Persistent fragments
// stream page by page through a store.Iterator, each page decoding
// straight into the batch's column vectors — no row materialization
// between disk and the kernels; the in-memory backend (and the global
// view of a fragmented table) aliases the stored rows, zero-copy. Every
// batch first consults the run's context, so a cancelled execution
// stops scanning within BatchSize rows.
type scanOp struct {
	node *plan.Node
	env  *execEnv
	it   *store.Iterator
	rows []expr.Row
	pos  int
}

func newScan(n *plan.Node, env *execEnv) (BatchOperator, error) {
	if n.Table == nil {
		return nil, fmt.Errorf("executor: scan without table")
	}
	return &scanOp{node: n, env: env}, nil
}

func (s *scanOp) Open() error {
	s.pos, s.it, s.rows = 0, nil, nil
	n, c := s.node, s.env.c
	if n.FragIdx < 0 && n.Table.Fragmented() {
		rows, err := c.AllRows(n.Table)
		s.rows = rows
		return err
	}
	it, ok, err := c.FragmentBatches(n.Table, n.FragIdx)
	if err != nil {
		return err
	}
	if ok {
		s.it = it
		return nil
	}
	s.rows, err = c.FragmentRows(n.Table, n.FragIdx)
	return err
}

func (s *scanOp) NextBatch() (*Batch, error) {
	if err := s.env.ctx.Err(); err != nil {
		return nil, err
	}
	if s.it != nil {
		b := NewBatch()
		ok, err := s.it.NextBatch(b.Data())
		if err != nil || !ok {
			b.Release()
			return nil, err
		}
		return b, nil
	}
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	end := s.pos + BatchSize
	if end > len(s.rows) {
		end = len(s.rows)
	}
	// The batch aliases the fragment's rows — no copy; columns are built
	// lazily (and at most once) by the first kernel consumer.
	b := NewBatch()
	b.SetRows(s.rows[s.pos:end])
	s.pos = end
	return b, nil
}

func (s *scanOp) Close() error {
	s.it, s.rows = nil, nil
	return nil
}

// runSelect narrows a batch's selection through a compiled predicate,
// in place: the surviving selection lives in batch-owned storage either
// way. ok is false when the kernel could not evaluate the batch — the
// selection is left exactly as before then (a partially compacted
// selection is restored from scratch), so the interpreter fallback sees
// the original rows.
func runSelect(kern *expr.PredKernel, b *Batch, d *expr.Batch, scratch *[]int32) ([]int32, bool) {
	if cur := b.Sel(); cur != nil {
		// Select compacts a non-nil selection in place as it goes; keep a
		// copy so an error can undo the partial compaction.
		*scratch = append((*scratch)[:0], cur...)
		sel, err := kern.Select(d, cur, nil)
		if err != nil {
			copy(cur, *scratch)
			b.compactSel(cur)
			return nil, false
		}
		b.compactSel(sel)
		return sel, true
	}
	sel, err := kern.Select(d, nil, b.SelBuf())
	if err != nil {
		return nil, false
	}
	b.setSel(sel)
	return sel, true
}

// filterOp narrows each batch to its qualifying rows. With a compiled
// predicate only the selection vector changes — no rows move and no
// columns rebuild; a batch the kernel cannot handle is re-run row by
// row into batch-owned row storage (never compacted in place:
// row-backed batches may alias upstream rows).
type filterOp struct {
	src     BatchOperator
	pred    expr.Expr
	kern    *vecPred
	types   []expr.Type
	selCopy []int32
}

func newFilter(n *plan.Node, src BatchOperator, vec bool) (BatchOperator, error) {
	pred, err := expr.Bind(n.Pred, resolver(n.Children[0]))
	if err != nil {
		return nil, fmt.Errorf("executor: filter bind: %w", err)
	}
	types := colTypes(n.Children[0])
	return &filterOp{src: src, pred: pred, kern: compilePred(pred, types, vec), types: types}, nil
}

func (f *filterOp) Open() error { return f.src.Open() }

func (f *filterOp) NextBatch() (*Batch, error) {
	for {
		b, err := f.src.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		if f.kern != nil {
			d := b.Data()
			d.Bind(f.types)
			if sel, ok := runSelect(f.kern.kern, b, d, &f.selCopy); ok {
				if len(sel) > 0 {
					return b, nil
				}
				b.Release()
				continue
			}
		}
		// Interpreter re-run over the (selected) row view; survivors are
		// gathered into the batch's own row storage.
		rows := b.Rows()
		kept := b.rowBuf[:0]
		for _, row := range rows {
			keep, err := expr.EvalBool(f.pred, row)
			if err != nil {
				b.Release()
				return nil, err
			}
			if keep {
				kept = append(kept, row)
			}
		}
		b.rowBuf = kept
		b.SetRows(kept)
		if b.Len() > 0 {
			return b, nil
		}
		b.Release()
	}
}

func (f *filterOp) Close() error { return f.src.Close() }

// projectOp evaluates the projection over each input batch. The fast
// path is fully columnar: kernel outputs, gathered passthroughs and
// broadcast constants land in the output batch's own vectors, and no
// row materializes. Batches that path cannot handle exactly fall back
// to kernel-assisted row assembly, then to the interpreter.
type projectOp struct {
	src   BatchOperator
	exprs []expr.Expr
	proj  *vecProj
	types []expr.Type
}

func newProject(n *plan.Node, src BatchOperator, vec bool) (BatchOperator, error) {
	res := resolver(n.Children[0])
	exprs := make([]expr.Expr, len(n.Projs))
	for i, p := range n.Projs {
		bound, err := expr.Bind(p.E, res)
		if err != nil {
			return nil, fmt.Errorf("executor: project bind %s: %w", p.E, err)
		}
		exprs[i] = bound
	}
	types := colTypes(n.Children[0])
	// Fuse with a vectorized filter child: the filter's surviving
	// selection vector drives the projection kernels over a shared
	// columnar view. Profiling wraps operators, so the assertion fails
	// and fusion is skipped under EXPLAIN ANALYZE, keeping per-node
	// actuals intact.
	if f, ok := src.(*filterOp); ok && f.kern != nil {
		return &filterProjectOp{
			src: f.src, pred: f.pred, kern: f.kern, types: types,
			exprs: exprs, proj: compileProj(exprs, types, true),
		}, nil
	}
	return &projectOp{src: src, exprs: exprs, proj: compileProj(exprs, types, vec), types: types}, nil
}

func (p *projectOp) Open() error { return p.src.Open() }

func (p *projectOp) NextBatch() (*Batch, error) {
	in, err := p.src.NextBatch()
	if err != nil || in == nil {
		return nil, err
	}
	out := NewBatch()
	if p.proj != nil {
		d := in.Data()
		d.Bind(p.types)
		if p.proj.applyCols(d, in.Sel(), out.Data()) {
			in.Release()
			return out, nil
		}
		if rows, ok := p.proj.apply(d, in.Sel(), out.rowBuf[:0]); ok {
			out.rowBuf = rows
			out.SetRows(rows)
			in.Release()
			return out, nil
		}
	}
	buf := out.rowBuf[:0]
	for _, row := range in.Rows() {
		proj, err := projectRow(p.exprs, row)
		if err != nil {
			in.Release()
			out.rowBuf = buf
			out.Release()
			return nil, err
		}
		buf = append(buf, proj)
	}
	out.rowBuf = buf
	out.SetRows(buf)
	in.Release()
	return out, nil
}

func (p *projectOp) Close() error { return p.src.Close() }

// filterProjectOp is the fused filter+projection: the predicate narrows
// the batch's selection vector, which drives the projection kernels
// directly over the same columnar view — surviving rows are never
// materialized between the two. Batches either kernel cannot handle
// re-run row by row — filter then project, in row order — matching the
// interpreter.
type filterProjectOp struct {
	src     BatchOperator
	pred    expr.Expr
	kern    *vecPred
	types   []expr.Type
	exprs   []expr.Expr
	proj    *vecProj // nil: passthrough/interpreted outputs only
	selCopy []int32
}

func (p *filterProjectOp) Open() error { return p.src.Open() }

func (p *filterProjectOp) NextBatch() (*Batch, error) {
	for {
		in, err := p.src.NextBatch()
		if err != nil || in == nil {
			return nil, err
		}
		out, done, err := p.processBatch(in)
		if err != nil {
			return nil, err
		}
		if done {
			if out != nil {
				return out, nil
			}
			continue
		}
		// Full interpreter re-run of the batch, in row order.
		out = NewBatch()
		buf := out.rowBuf[:0]
		for _, row := range in.Rows() {
			keep, err := expr.EvalBool(p.pred, row)
			if err != nil {
				in.Release()
				out.rowBuf = buf
				out.Release()
				return nil, err
			}
			if !keep {
				continue
			}
			proj, err := projectRow(p.exprs, row)
			if err != nil {
				in.Release()
				out.rowBuf = buf
				out.Release()
				return nil, err
			}
			buf = append(buf, proj)
		}
		out.rowBuf = buf
		out.SetRows(buf)
		in.Release()
		if out.Len() > 0 {
			return out, nil
		}
		out.Release()
	}
}

// processBatch runs the kernel path over one batch: predicate selection
// plus the columnar (or kernel-assisted row) projection. done is false
// when the batch must be re-run through the interpreter; in is NOT
// released then and its selection is unchanged.
func (p *filterProjectOp) processBatch(in *Batch) (*Batch, bool, error) {
	d := in.Data()
	d.Bind(p.types)
	sel, ok := runSelect(p.kern.kern, in, d, &p.selCopy)
	if !ok {
		return nil, false, nil
	}
	if len(sel) == 0 {
		in.Release()
		return nil, true, nil
	}
	out := NewBatch()
	if p.proj != nil {
		if p.proj.applyCols(d, sel, out.Data()) {
			in.Release()
			return out, true, nil
		}
		if rows, applied := p.proj.apply(d, sel, out.rowBuf[:0]); applied {
			out.rowBuf = rows
			out.SetRows(rows)
			in.Release()
			return out, true, nil
		}
		out.Release()
		return nil, false, nil
	}
	buf := out.rowBuf[:0]
	for _, si := range sel {
		proj, err := projectRow(p.exprs, d.Row(int(si)))
		if err != nil {
			out.rowBuf = buf
			out.Release()
			return nil, false, nil
		}
		buf = append(buf, proj)
	}
	out.rowBuf = buf
	out.SetRows(buf)
	in.Release()
	return out, true, nil
}

func (p *filterProjectOp) Close() error { return p.src.Close() }

// limitOp truncates the stream after n rows.
type limitOp struct {
	src  BatchOperator
	n    int64
	seen int64
}

func (l *limitOp) Open() error {
	l.seen = 0
	return l.src.Open()
}

func (l *limitOp) NextBatch() (*Batch, error) {
	if l.seen >= l.n {
		return nil, nil
	}
	b, err := l.src.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	if remain := l.n - l.seen; int64(b.Len()) > remain {
		b.Truncate(int(remain))
	}
	l.seen += int64(b.Len())
	return b, nil
}

func (l *limitOp) Close() error { return l.src.Close() }

// unionOp concatenates its children's streams in order. All children
// are opened up front, so goroutine-mode exchange inputs of later
// branches fill their buffers while earlier branches drain.
type unionOp struct {
	children []BatchOperator
	idx      int
}

func (u *unionOp) Open() error {
	u.idx = 0
	for _, c := range u.children {
		if err := c.Open(); err != nil {
			return err
		}
	}
	return nil
}

func (u *unionOp) NextBatch() (*Batch, error) {
	for u.idx < len(u.children) {
		b, err := u.children[u.idx].NextBatch()
		if err != nil {
			return nil, err
		}
		if b != nil {
			return b, nil
		}
		u.idx++
	}
	return nil, nil
}

func (u *unionOp) Close() error {
	var firstErr error
	for _, c := range u.children {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
