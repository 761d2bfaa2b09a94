package executor

import (
	"fmt"

	"cgdqp/internal/expr"
	"cgdqp/internal/plan"
	"cgdqp/internal/store"
)

// This file holds the streaming operators: scan, filter, project, limit
// and union. They pass batches through (or build new ones) without
// materializing their input.

// scanOp emits a table's rows as batches, streaming page by page
// through store.Iterators: each page decodes straight into the batch's
// column vectors — only the columns the plan reads above the scan, and
// no row materialization between the pager and the kernels. The global
// view of a fragmented table (FragIdx < 0) walks its fragments'
// iterators in turn. Every batch first consults the run's context, so
// a cancelled execution stops scanning within BatchSize rows.
type scanOp struct {
	node *plan.Node
	env  *execEnv
	need []bool // columns read above the scan (nil: all)
	it   *store.Iterator
	frag int // fragment it scans; the next one follows when it ends
	last int // last fragment to scan
}

func newScan(n *plan.Node, env *execEnv, need []bool) (BatchOperator, error) {
	if n.Table == nil {
		return nil, fmt.Errorf("executor: scan without table")
	}
	return &scanOp{node: n, env: env, need: need}, nil
}

func (s *scanOp) Open() error {
	s.frag, s.last = s.node.FragIdx, s.node.FragIdx
	if s.frag < 0 && s.node.Table.Fragmented() {
		s.frag, s.last = 0, len(s.node.Table.Fragments)-1
	}
	return s.openFragment()
}

func (s *scanOp) openFragment() error {
	it, _, err := s.env.c.FragmentBatches(s.node.Table, s.frag)
	if err != nil {
		return err
	}
	it.SetNeeded(s.need)
	s.it = it
	return nil
}

func (s *scanOp) NextBatch() (*Batch, error) {
	if err := s.env.ctx.Err(); err != nil {
		return nil, err
	}
	b := NewBatch()
	for {
		ok, err := s.it.NextBatch(b.Data())
		if err != nil || (!ok && s.frag >= s.last) {
			b.Release()
			return nil, err
		}
		if ok {
			return b, nil
		}
		s.frag++
		if err := s.openFragment(); err != nil {
			b.Release()
			return nil, err
		}
	}
}

func (s *scanOp) Close() error {
	s.it = nil
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

func newFilter(src BatchOperator, pred expr.Expr, types []expr.Type, vec bool) BatchOperator {
	return &filterOp{src: src, pred: pred, kern: compilePred(pred, types, vec), types: types}
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
// row materializes — a filter below it only narrowed the batch's
// selection, which drives the kernels over the same columnar view.
// Batches that path cannot handle exactly fall back to the interpreter.
type projectOp struct {
	src   BatchOperator
	exprs []expr.Expr
	proj  *vecProj
	types []expr.Type
}

func newProject(n *plan.Node, src BatchOperator, exprs []expr.Expr, vec bool) BatchOperator {
	types := colTypes(n.Children[0])
	return &projectOp{src: src, exprs: exprs, proj: compileProj(exprs, types, vec), types: types}
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
// are opened up front, so exchange inputs of later branches fill their buffers while earlier branches drain.
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
