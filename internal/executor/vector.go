package executor

import (
	"fmt"

	"cgdqp/internal/expr"
	"cgdqp/internal/plan"
)

// This file is the glue between the operators and the compiled columnar
// kernels of internal/expr: the projection evaluator and the feed that
// lets blocking operators (hash join, hash aggregate, NL and
// index-lookup join) consume their input a batch at a time.

// colTypes returns the static lane types of a node's output columns,
// indexed the way bound Col.Index values address them.
func colTypes(n *plan.Node) []expr.Type {
	out := make([]expr.Type, len(n.Cols))
	for i, c := range n.Cols {
		out[i] = c.Type
	}
	return out
}

// --- feed ------------------------------------------------------------------

// feed delivers an operator's stream to a blocking consumer one batch
// at a time. The returned batch stays valid until the next nextChunk or
// close call; the feed owns its lifecycle, the consumer must not
// release it.
type feed struct {
	src BatchOperator
	cur *Batch
}

func (f *feed) open() error { return f.src.Open() }

// nextChunk returns the next batch, nil at end of stream.
func (f *feed) nextChunk() (*Batch, error) {
	f.cur.Release()
	f.cur = nil
	b, err := f.src.NextBatch()
	if err != nil {
		return nil, err
	}
	f.cur = b
	return b, nil
}

func (f *feed) close() error {
	f.cur.Release()
	f.cur = nil
	return f.src.Close()
}

// --- projection evaluation ------------------------------------------------

// vecProj evaluates one projection list over a columnar batch, every
// output column a bare-column passthrough, a constant or a kernel.
type vecProj struct {
	colIdx []int          // >= 0: bare column passthrough
	consts []*expr.Value  // non-nil: constant output
	kerns  []*expr.Kernel // non-nil: kernel
	outs   []*expr.Vec    // kernel results for the current batch
}

func compileProj(exprs []expr.Expr, types []expr.Type, opt ExecOptions) *vecProj {
	p := &vecProj{
		colIdx: make([]int, len(exprs)),
		consts: make([]*expr.Value, len(exprs)),
		kerns:  make([]*expr.Kernel, len(exprs)),
		outs:   make([]*expr.Vec, len(exprs)),
	}
	for i, e := range exprs {
		p.colIdx[i] = -1
		switch n := e.(type) {
		case *expr.Col:
			p.colIdx[i] = n.Index
		case *expr.Const:
			v := n.Val
			p.consts[i] = &v
		default:
			p.kerns[i] = opt.kernel(e, types)
		}
	}
	return p
}

// apply projects the selected rows of in into out's own vectors: kernel
// outputs are copied, passthrough columns gathered, and constants
// broadcast.
func (p *vecProj) apply(in *expr.Batch, sel []int32, out *expr.Batch) error {
	for i, k := range p.kerns {
		if k == nil {
			continue
		}
		v, err := k.EvalVec(in, sel)
		if err != nil {
			return err
		}
		p.outs[i] = v
	}
	n := in.Len()
	if sel != nil {
		n = len(sel)
	}
	out.StartCols(len(p.colIdx), n)
	for i, idx := range p.colIdx {
		dst := out.OwnCol(i)
		switch {
		case idx >= 0:
			src, ok := in.ColVec(idx)
			if !ok {
				return fmt.Errorf("executor: projected column %d not produced", idx)
			}
			dst.GatherFrom(src, sel)
		case p.consts[i] != nil:
			dst.Broadcast(*p.consts[i], n)
		default:
			// Kernel scratch is reused on the next batch; the output
			// column owns a copy.
			dst.CopyFrom(p.outs[i])
		}
	}
	return nil
}
