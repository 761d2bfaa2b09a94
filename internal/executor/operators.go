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

// filterOp narrows each batch to its qualifying rows: only the
// selection vector changes — no rows move and no columns rebuild.
type filterOp struct {
	src   BatchOperator
	kern  *expr.PredKernel
	types []expr.Type
}

func newFilter(src BatchOperator, pred expr.Expr, types []expr.Type, opt ExecOptions) BatchOperator {
	return &filterOp{src: src, kern: opt.pred(pred, types), types: types}
}

func (f *filterOp) Open() error { return f.src.Open() }

func (f *filterOp) NextBatch() (*Batch, error) {
	for {
		b, err := f.src.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		d := b.Data()
		err = d.Bind(f.types)
		if err == nil {
			err = f.narrow(b, d)
		}
		if err != nil {
			b.Release()
			return nil, err
		}
		if b.Len() > 0 {
			return b, nil
		}
		b.Release()
	}
}

// narrow runs the predicate over b's selection; the surviving selection
// lives in batch-owned storage either way.
func (f *filterOp) narrow(b *Batch, d *expr.Batch) error {
	if cur := b.Sel(); cur != nil {
		sel, err := f.kern.Select(d, cur, nil) // compacts cur in place
		b.compactSel(sel)
		return err
	}
	sel, err := f.kern.Select(d, nil, b.SelBuf())
	b.setSel(sel)
	return err
}

func (f *filterOp) Close() error { return f.src.Close() }

// projectOp evaluates the projection over each input batch fully
// columnar: kernel outputs, gathered passthroughs and broadcast
// constants land in the output batch's own vectors, and no row
// materializes — a filter below it only narrowed the batch's selection,
// which drives the kernels over the same columnar view.
type projectOp struct {
	src   BatchOperator
	proj  *vecProj
	types []expr.Type
}

func newProject(n *plan.Node, src BatchOperator, exprs []expr.Expr, opt ExecOptions) BatchOperator {
	types := colTypes(n.Children[0])
	return &projectOp{src: src, proj: compileProj(exprs, types, opt), types: types}
}

func (p *projectOp) Open() error { return p.src.Open() }

func (p *projectOp) NextBatch() (*Batch, error) {
	in, err := p.src.NextBatch()
	if err != nil || in == nil {
		return nil, err
	}
	out := NewBatch()
	d := in.Data()
	err = d.Bind(p.types)
	if err == nil {
		err = p.proj.apply(d, in.Sel(), out.Data())
	}
	in.Release()
	if err != nil {
		out.Release()
		return nil, err
	}
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
