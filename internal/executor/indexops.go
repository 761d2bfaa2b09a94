package executor

import (
	"fmt"
	"strings"

	"cgdqp/internal/cluster"
	"cgdqp/internal/expr"
	"cgdqp/internal/plan"
)

// Index access-path operators. An IndexScan serves a Filter-over-Scan
// through a B+ tree range on one indexed column, re-applying the full
// predicate as a residual; an IndexLookupJoin replaces a join's inner
// scan with one index probe per outer row. Both read through the
// cluster's store, in (key, insertion) order on either pager; a page
// the index read cannot decode fails the run rather than degrading to
// a scan.

// --- index scan ---------------------------------------------------------

// indexScanOp implements plan.IndexScan. Should the store report the
// index unusable at runtime (ok=false — a plan carried across a schema
// change), it degrades to the full fragment scan the plan replaced:
// same surviving rows, insertion order instead of key order. Like the
// table scan, every batch first consults the run's context.
type indexScanOp struct {
	node *plan.Node
	env  *execEnv
	pred expr.Expr
	rows []expr.Row // index range, residual not yet applied
	pos  int
	out  rowOut
}

func newIndexScan(n *plan.Node, env *execEnv) (BatchOperator, error) {
	if n.Table == nil {
		return nil, fmt.Errorf("executor: index scan without table")
	}
	var pred expr.Expr
	if n.Pred != nil {
		bound, err := expr.Bind(n.Pred, resolver(n))
		if err != nil {
			return nil, fmt.Errorf("executor: index scan bind: %w", err)
		}
		pred = bound
	}
	return &indexScanOp{node: n, env: env, pred: pred}, nil
}

func (s *indexScanOp) Open() error {
	n, c := s.node, s.env.c
	rows, ok, err := c.IndexRangeRows(n.Table, n.FragIdx, n.IdxCol, n.IdxLo, n.IdxHi, n.IdxLoInc, n.IdxHiInc)
	if err != nil {
		return err
	}
	if !ok {
		rows, err = c.FragmentRows(n.Table, n.FragIdx)
		if err != nil {
			return err
		}
	}
	s.rows, s.pos = rows, 0
	s.out.reset()
	return nil
}

func (s *indexScanOp) NextBatch() (*Batch, error) {
	if err := s.env.ctx.Err(); err != nil {
		return nil, err
	}
	return s.out.nextBatch(s.filterNext)
}

// filterNext refills out with the residual's survivors among the next
// BatchSize index rows.
func (s *indexScanOp) filterNext() (bool, error) {
	if s.pos >= len(s.rows) {
		return false, nil
	}
	end := s.pos + BatchSize
	if end > len(s.rows) {
		end = len(s.rows)
	}
	s.out.reset()
	for _, row := range s.rows[s.pos:end] {
		keep, err := expr.EvalBool(s.pred, row)
		if err != nil {
			return false, err
		}
		if keep {
			s.out.buf = append(s.out.buf, row)
		}
	}
	s.pos = end
	return true, nil
}

func (s *indexScanOp) Close() error {
	s.rows = nil
	s.out = rowOut{}
	return nil
}

// --- index lookup join --------------------------------------------------

// indexLookupJoinOp implements plan.IndexLookupJoin: the outer child
// streams; each outer row's key probes the inner table's index at the
// inner site, and the full join predicate runs as a residual over each
// candidate pair. The inner scan child is never executed — its rows are
// reached through the index — but its node describes the probed
// fragment and the concatenated output schema.
type indexLookupJoinOp struct {
	node  *plan.Node
	c     *cluster.Cluster
	outer feed
	inner *plan.Node
	key   expr.Expr // probe key, bound against the outer schema
	pred  expr.Expr // full join predicate over the concatenated schema

	out rowOut

	// Degraded path (index unusable at runtime): the inner fragment is
	// materialized once and probed by value comparison.
	innerRows   []expr.Row
	innerKeyIdx int
	innerLoaded bool
}

func newIndexLookupJoin(n *plan.Node, children []BatchOperator, c *cluster.Cluster) (BatchOperator, error) {
	if len(n.Children) != 2 || n.Children[1].Table == nil {
		return nil, fmt.Errorf("executor: index lookup join without inner scan")
	}
	key, err := expr.Bind(n.IdxOuter, resolver(n.Children[0]))
	if err != nil {
		return nil, fmt.Errorf("executor: index lookup key bind: %w", err)
	}
	var pred expr.Expr
	if n.Pred != nil {
		bound, err := expr.Bind(n.Pred, resolver(n))
		if err != nil {
			return nil, fmt.Errorf("executor: index lookup join bind: %w", err)
		}
		pred = bound
	}
	return &indexLookupJoinOp{node: n, c: c, outer: feed{src: children[0]}, inner: n.Children[1], key: key, pred: pred}, nil
}

func (j *indexLookupJoinOp) Open() error {
	j.out.reset()
	j.innerRows, j.innerLoaded = nil, false
	return j.outer.open()
}

func (j *indexLookupJoinOp) NextBatch() (*Batch, error) { return j.out.nextBatch(j.probeNext) }

// probeNext probes the index with the next outer row and refills out
// with the candidate pairs the join predicate keeps.
func (j *indexLookupJoinOp) probeNext() (bool, error) {
	row, ok, err := j.outer.nextRow()
	if err != nil || !ok {
		return false, err
	}
	j.out.reset()
	k, err := expr.Eval(j.key, row)
	if err != nil {
		return false, err
	}
	if k.IsNull() {
		return true, nil // NULL keys never match
	}
	matches, idxOK, err := j.c.IndexLookupRows(j.inner.Table, j.inner.FragIdx, j.node.IdxCol, k)
	if err != nil {
		return false, err
	}
	if !idxOK {
		matches, err = j.probeFallback(k)
		if err != nil {
			return false, err
		}
	}
	for _, r := range matches {
		out := concatRow(row, r)
		keep, err := expr.EvalBool(j.pred, out)
		if err != nil {
			return false, err
		}
		if keep {
			j.out.buf = append(j.out.buf, out)
		}
	}
	return true, nil
}

// probeFallback answers one probe without the index: the inner fragment
// is scanned once into memory and filtered by key equality, preserving
// the index path's insertion order among equal keys.
func (j *indexLookupJoinOp) probeFallback(k expr.Value) ([]expr.Row, error) {
	if !j.innerLoaded {
		rows, err := j.c.FragmentRows(j.inner.Table, j.inner.FragIdx)
		if err != nil {
			return nil, err
		}
		idx := -1
		for i, cr := range j.inner.Cols {
			if strings.EqualFold(cr.Name, j.node.IdxCol) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("executor: index lookup join: inner column %s not in schema", j.node.IdxCol)
		}
		j.innerRows, j.innerKeyIdx, j.innerLoaded = rows, idx, true
	}
	var out []expr.Row
	for _, r := range j.innerRows {
		v := r[j.innerKeyIdx]
		if v.IsNull() {
			continue
		}
		if c, err := v.Compare(k); err == nil && c == 0 {
			out = append(out, r)
		}
	}
	return out, nil
}

func (j *indexLookupJoinOp) Close() error {
	j.innerRows = nil
	j.out = rowOut{}
	return j.outer.close()
}
