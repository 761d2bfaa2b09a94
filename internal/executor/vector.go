package executor

import (
	"cgdqp/internal/expr"
	"cgdqp/internal/plan"
)

// This file is the glue between the operators and the compiled columnar
// kernels of internal/expr: the filter/projection evaluators and the
// feed that lets blocking operators (hash join, hash aggregate, NL and
// index-lookup join) consume their input a batch at a time. Every
// helper falls back to the row interpreter — per batch — whenever a
// column is not lane-pure or a kernel reports an error, so results (and
// error behavior) match the interpreter exactly.

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
	src  BatchOperator
	cur  *Batch
	rows []expr.Row // nextRow's cursor into cur
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

// nextRow walks the stream row by row (do not mix with nextChunk); ok
// is false at end of stream.
func (f *feed) nextRow() (row expr.Row, ok bool, err error) {
	for len(f.rows) == 0 {
		chunk, err := f.nextChunk()
		if err != nil || chunk == nil {
			return nil, false, err
		}
		f.rows = chunk.Rows()
	}
	row, f.rows = f.rows[0], f.rows[1:]
	return row, true, nil
}

func (f *feed) close() error {
	f.cur.Release()
	f.cur, f.rows = nil, nil
	return f.src.Close()
}

// --- predicate evaluation -------------------------------------------------

// vecPred is a compiled filter predicate.
type vecPred struct {
	kern *expr.PredKernel
}

// compilePred compiles a predicate when kernels are enabled; nil means
// the caller keeps the plain interpreter.
func compilePred(pred expr.Expr, types []expr.Type, vec bool) *vecPred {
	if !vec {
		return nil
	}
	k, ok := expr.CompilePred(pred, types)
	if !ok {
		return nil
	}
	return &vecPred{kern: k}
}

// --- projection evaluation ------------------------------------------------

// vecProj evaluates one projection list over a columnar batch, every
// output column a bare-column passthrough, a constant or a compiled
// kernel.
type vecProj struct {
	colIdx []int          // >= 0: bare column passthrough
	consts []*expr.Value  // non-nil: constant output
	kerns  []*expr.Kernel // non-nil: compiled kernel
	outs   []*expr.Vec    // kernel results for the current batch
	pass   []*expr.Vec    // passthrough sources for the current batch
}

// compileProj compiles a projection list. It reports nil — the caller
// keeps the row interpreter — when kernels are disabled, an expression
// does not compile, or a constant does not reproduce itself through a
// vector (payload residue a columnar broadcast would drop). A list of
// nothing but passthroughs does compile: it gathers columns and never
// builds an input row.
func compileProj(exprs []expr.Expr, types []expr.Type, vec bool) *vecProj {
	if !vec {
		return nil
	}
	p := &vecProj{
		colIdx: make([]int, len(exprs)),
		consts: make([]*expr.Value, len(exprs)),
		kerns:  make([]*expr.Kernel, len(exprs)),
		outs:   make([]*expr.Vec, len(exprs)),
		pass:   make([]*expr.Vec, len(exprs)),
	}
	var probe expr.Vec
	for i, e := range exprs {
		p.colIdx[i] = -1
		switch n := e.(type) {
		case *expr.Col:
			p.colIdx[i] = n.Index
		case *expr.Const:
			v := n.Val
			p.consts[i] = &v
			if probe.Broadcast(v, 1); !probe.Exact {
				return nil
			}
		default:
			k, ok := expr.Compile(e, types)
			if !ok {
				return nil
			}
			p.kerns[i] = k
		}
	}
	return p
}

// applyCols projects the selected rows of in fully columnar: kernel
// outputs are copied, passthrough columns gathered, and constants
// broadcast into out's owned vectors — no row is materialized. ok is
// false when the batch cannot be projected columnar with row-identical
// results: a kernel error, or a passthrough column that is unavailable
// or not exact (its vector would canonicalize values the row path
// passes through verbatim). The caller then runs the interpreter.
func (p *vecProj) applyCols(in *expr.Batch, sel []int32, out *expr.Batch) bool {
	for i, k := range p.kerns {
		if k == nil {
			continue
		}
		v, err := k.EvalVec(in, sel)
		if err != nil {
			return false
		}
		p.outs[i] = v
	}
	for i, idx := range p.colIdx {
		if idx < 0 {
			continue
		}
		v, ok := in.ColVec(idx)
		if !ok || !v.Exact {
			return false
		}
		p.pass[i] = v
	}
	n := in.Len()
	if sel != nil {
		n = len(sel)
	}
	out.StartCols(len(p.colIdx), n)
	for i := range p.colIdx {
		dst := out.OwnCol(i)
		switch {
		case p.colIdx[i] >= 0:
			dst.GatherFrom(p.pass[i], sel)
		case p.consts[i] != nil:
			dst.Broadcast(*p.consts[i], n)
		default:
			// Kernel scratch is reused on the next batch; the output
			// column owns a copy.
			dst.CopyFrom(p.outs[i])
		}
	}
	out.FinishCols()
	return true
}

// projectRow is the interpreter path shared by the fallback branches.
func projectRow(exprs []expr.Expr, row expr.Row) (expr.Row, error) {
	out := make(expr.Row, len(exprs))
	for i, e := range exprs {
		v, err := expr.Eval(e, row)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
