package executor

import (
	"fmt"
	"slices"

	"cgdqp/internal/expr"
	"cgdqp/internal/plan"
	"cgdqp/internal/store"
)

// Index access-path operators. An IndexScan serves a Filter-over-Scan
// through a B+ tree range, re-applying the full predicate as a residual;
// an IndexLookupJoin replaces a join's inner scan with one index lookup
// per outer batch. Both read through a store.Gather, in row-ID order
// (only a SortExec defines result order), and fail the run on a page
// they cannot decode rather than degrading to a scan.

// filtered runs n's predicate, if any, as a filter over src's batches
// of n's output, after adding the columns it reads (from column off of
// n's output on) to *need, the columns src fills (nil: all).
func filtered(src BatchOperator, n *plan.Node, need *[]bool, off int, env *execEnv) (BatchOperator, error) {
	if n.Pred == nil {
		return src, nil
	}
	pred, err := expr.Bind(n.Pred, resolver(n))
	if err != nil {
		return nil, fmt.Errorf("executor: %s bind: %w", n.Kind, err)
	}
	if *need != nil {
		*need = slices.Clone(*need)
		for _, c := range expr.Columns(pred) {
			if c.Index >= off {
				(*need)[c.Index-off] = true
			}
		}
	}
	return newFilter(src, pred, colTypes(n), env.opt), nil
}

// --- index scan ---------------------------------------------------------

// indexScanOp is plan.IndexScan's read: the range's rows, gathered with
// the columns need selects, under newIndexScan's residual filter. With
// the index unusable at runtime (a plan carried across a schema change)
// it reads through the full fragment scan the plan replaced. Every
// batch first consults the run's context.
type indexScanOp struct {
	node *plan.Node
	env  *execEnv
	need []bool
	g    *store.Gather
	scan *scanOp // the fallback, when the index is unusable
}

func newIndexScan(n *plan.Node, env *execEnv, need []bool) (BatchOperator, error) {
	if n.Table == nil {
		return nil, fmt.Errorf("executor: index scan without table")
	}
	src := &indexScanOp{node: n, env: env, need: need}
	return filtered(src, n, &src.need, 0, env)
}

func (s *indexScanOp) Open() error {
	n := s.node
	g, err := s.env.c.FragmentGather(n.Table, n.FragIdx, s.need)
	if err != nil {
		return err
	}
	s.g, s.scan = g, nil
	if !g.Range(n.IdxCol, n.IdxLo, n.IdxHi, n.IdxLoInc, n.IdxHiInc) {
		s.g, s.scan = nil, &scanOp{node: n, env: s.env, need: s.need}
		return s.scan.Open()
	}
	return nil
}

func (s *indexScanOp) NextBatch() (*Batch, error) {
	if s.scan != nil {
		return s.scan.NextBatch()
	}
	if err := s.env.ctx.Err(); err != nil {
		return nil, err
	}
	b := NewBatch()
	if more, err := s.g.NextBatch(b.Data(), BatchSize); err != nil || !more {
		b.Release()
		return nil, err
	}
	return b, nil
}

func (s *indexScanOp) Close() error {
	s.g, s.scan = nil, nil
	return nil
}

// --- index lookup join --------------------------------------------------

// indexLookupJoinOp is plan.IndexLookupJoin's candidate stream: each
// outer batch's keys go to the inner fragment's index as one lookup,
// whose matches are gathered in row-ID order; each fetched batch is one
// batch of pairs (outer columns gathered by pair, inner as fetched)
// under newIndexLookupJoin's join-predicate filter. The inner scan
// child never runs. With the index unusable at runtime the pairs come
// from a nested-loop join with a scan of the inner fragment.
type indexLookupJoinOp struct {
	node   *plan.Node
	env    *execEnv
	outer  feed
	key    int         // probe key column of the outer schema
	oTypes []expr.Type // outer schema
	need   []bool      // inner columns to fetch

	g     *store.Gather
	keys  []expr.Value // the outer batch's probe keys, by selected row
	from  []int32      // per fetched row: its outer row
	pos   int          // fetched rows handed out
	inner expr.Batch   // the fetched batch
	osel  []int32      // per pair: its outer row's vector index
	ovecs []*expr.Vec  // the outer batch's vectors
	nl    BatchOperator
}

func newIndexLookupJoin(n *plan.Node, outer BatchOperator, env *execEnv, need []bool) (BatchOperator, error) {
	if len(n.Children) != 2 || n.Children[1].Table == nil {
		return nil, fmt.Errorf("executor: index lookup join without inner scan")
	}
	key, err := expr.Bind(n.IdxOuter, resolver(n.Children[0]))
	if err != nil {
		return nil, fmt.Errorf("executor: index lookup key bind: %w", err)
	}
	lw := len(n.Children[0].Cols)
	j := &indexLookupJoinOp{node: n, env: env, outer: feed{src: outer}, key: key.(*expr.Col).Index,
		oTypes: colTypes(n.Children[0]), ovecs: make([]*expr.Vec, lw)}
	if need != nil {
		j.need = need[lw:]
	}
	return filtered(j, n, &j.need, lw, env)
}

func (j *indexLookupJoinOp) Open() error {
	inner := j.node.Children[1]
	g, err := j.env.c.FragmentGather(inner.Table, inner.FragIdx, j.need)
	if err != nil {
		return err
	}
	j.g, j.pos, j.nl = g, 0, nil
	if _, ok := g.Lookup(j.node.IdxCol, nil); !ok {
		if j.nl, err = newNLJoin(j.node, j.outer.src, &scanOp{node: inner, env: j.env}); err != nil {
			return err
		}
		return j.nl.Open()
	}
	return j.outer.open()
}

func (j *indexLookupJoinOp) NextBatch() (*Batch, error) {
	if j.nl != nil {
		return j.nl.NextBatch()
	}
	for {
		more, err := j.g.NextBatch(&j.inner, BatchSize)
		if err != nil {
			return nil, err
		}
		if more {
			return j.pairs()
		}
		if err = j.probe(); err != nil || j.outer.cur == nil {
			return nil, err
		}
	}
}

// probe takes the next outer batch (none at the end of the stream) and
// looks up all of its keys.
func (j *indexLookupJoinOp) probe() error {
	if err := j.env.ctx.Err(); err != nil {
		return err
	}
	cur, err := j.outer.nextChunk()
	if err != nil || cur == nil {
		return err
	}
	j.keys = j.keys[:0]
	for r := 0; r < cur.Len(); r++ {
		j.keys = append(j.keys, cur.RowValue(r, j.key))
	}
	j.from, _ = j.g.Lookup(j.node.IdxCol, j.keys)
	j.pos = 0
	return nil
}

// pairs builds the candidate batch of the fetched rows: the outer
// columns gathered by pair, the inner ones as fetched.
func (j *indexLookupJoinOp) pairs() (*Batch, error) {
	cur, n, lw := j.outer.cur, j.inner.Len(), len(j.oTypes)
	from := j.from[j.pos : j.pos+n]
	j.pos += n
	if err := bindCols(cur, j.oTypes, j.ovecs); err != nil {
		return nil, err
	}
	j.osel = j.osel[:0]
	for _, r := range from {
		if sel := cur.Sel(); sel != nil {
			r = sel[r]
		}
		j.osel = append(j.osel, r)
	}
	out := NewBatch()
	d := out.Data()
	d.StartCols(lw+j.inner.Width(), n)
	for c, v := range j.ovecs[:lw] {
		d.OwnCol(c).GatherFrom(v, j.osel)
	}
	for c := range j.inner.Width() {
		if v, ok := j.inner.ColVec(c); ok {
			d.OwnCol(lw + c).CopyFrom(v)
		}
	}
	return out, nil
}

func (j *indexLookupJoinOp) Close() error {
	j.g = nil
	if j.nl != nil {
		return j.nl.Close()
	}
	return j.outer.close()
}
