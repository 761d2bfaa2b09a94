package executor

import (
	"sort"

	"cgdqp/internal/expr"
	"cgdqp/internal/plan"
)

// mergeJoinOp implements sort-merge join: both inputs are materialized,
// sorted by their equi-join keys, and merged; duplicate key groups join
// block-wise. Residual (non-equi) conjuncts are evaluated on the
// concatenated row. The output is ordered by the left join keys
// (ascending), which is the property the optimizer's sort-elision relies
// on.
type mergeJoinOp struct {
	left, right BatchOperator
	leftKeys    []expr.Expr
	rightKeys   []expr.Expr
	residual    expr.Expr
	out         rowOut
}

func newMergeJoin(n *plan.Node, left, right BatchOperator) (BatchOperator, error) {
	lk, rk, res, err := equiKeys(n, "merge join")
	if err != nil {
		return nil, err
	}
	return &mergeJoinOp{left: left, right: right, leftKeys: lk, rightKeys: rk, residual: res}, nil
}

// keyOf evaluates the join key tuple; ok=false when any component is
// NULL (NULL keys never join).
func keyOf(keys []expr.Expr, row expr.Row) ([]expr.Value, bool, error) {
	out := make([]expr.Value, len(keys))
	for i, k := range keys {
		v, err := expr.Eval(k, row)
		if err != nil {
			return nil, false, err
		}
		if v.IsNull() {
			return nil, false, nil
		}
		out[i] = v
	}
	return out, true, nil
}

// compareKeys orders two key tuples.
func compareKeys(a, b []expr.Value) (int, error) {
	for i := range a {
		c, err := a[i].Compare(b[i])
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return c, nil
		}
	}
	return 0, nil
}

type keyedRow struct {
	key []expr.Value
	row expr.Row
}

func collectKeyed(op BatchOperator, keys []expr.Expr) ([]keyedRow, error) {
	rows, err := collect(op)
	if err != nil {
		return nil, err
	}
	out := make([]keyedRow, 0, len(rows))
	for _, r := range rows {
		k, ok, err := keyOf(keys, r)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, keyedRow{key: k, row: r})
		}
	}
	var sortErr error
	sort.SliceStable(out, func(i, j int) bool {
		c, err := compareKeys(out[i].key, out[j].key)
		if err != nil && sortErr == nil {
			sortErr = err
		}
		return c < 0
	})
	return out, sortErr
}

func (m *mergeJoinOp) Open() error {
	lrows, err := collectKeyed(m.left, m.leftKeys)
	if err != nil {
		return err
	}
	rrows, err := collectKeyed(m.right, m.rightKeys)
	if err != nil {
		return err
	}
	m.out.reset()
	li, ri := 0, 0
	for li < len(lrows) && ri < len(rrows) {
		c, err := compareKeys(lrows[li].key, rrows[ri].key)
		if err != nil {
			return err
		}
		switch {
		case c < 0:
			li++
		case c > 0:
			ri++
		default:
			// Find the right-side block sharing this key.
			rEnd := ri
			for rEnd < len(rrows) {
				cc, err := compareKeys(lrows[li].key, rrows[rEnd].key)
				if err != nil {
					return err
				}
				if cc != 0 {
					break
				}
				rEnd++
			}
			// Every left row with this key joins the block.
			for ; li < len(lrows); li++ {
				cc, err := compareKeys(lrows[li].key, rrows[ri].key)
				if err != nil {
					return err
				}
				if cc != 0 {
					break
				}
				for k := ri; k < rEnd; k++ {
					row := make(expr.Row, 0, len(lrows[li].row)+len(rrows[k].row))
					row = append(row, lrows[li].row...)
					row = append(row, rrows[k].row...)
					if m.residual != nil {
						keep, err := expr.EvalBool(m.residual, row)
						if err != nil {
							return err
						}
						if !keep {
							continue
						}
					}
					m.out.buf = append(m.out.buf, row)
				}
			}
			ri = rEnd
		}
	}
	return nil
}

func (m *mergeJoinOp) NextBatch() (*Batch, error) { return m.out.nextBatch(nil) }

func (m *mergeJoinOp) Close() error {
	m.out = rowOut{}
	return nil
}
