package memo

import (
	"strings"

	"cgdqp/internal/expr"
	"cgdqp/internal/plan"
)

// Index access paths. A Filter over a bare Scan may be implemented as an
// IndexScan (B+ tree range scan on an indexed column with the full
// predicate re-applied as a residual), and a Join whose inner side is a
// bare Scan with an index on the join key may be implemented as an
// IndexLookupJoin (probe the inner index once per outer row instead of
// building a hash table). Both paths pin execution to the table's site —
// the index lives where the data lives — and derive their shipping trait
// through the same AR3 ∪ AR4 rules as every other alternative; the policy
// analyzer describes them exactly as the operators they replace, so
// compliance decisions are unchanged by access-path choice.

// scanExpr returns the bare logical Scan expression of a group, or nil
// when the group is not a scan group.
func scanExpr(g *Group) *plan.Node {
	for _, e := range g.Exprs {
		if e.Op.Kind == plan.Scan && e.Op.Table != nil {
			return e.Op
		}
	}
	return nil
}

// indexableType mirrors the store's rule: int64-class or string keys.
func indexableType(t expr.Type) bool {
	switch t {
	case expr.TInt, expr.TDate, expr.TBool, expr.TString:
		return true
	}
	return false
}

// intClassType groups the types sharing the B+ tree int64 key lane.
func intClassType(t expr.Type) bool {
	return t == expr.TInt || t == expr.TDate || t == expr.TBool
}

// laneCompatible reports whether a value of type vt can probe an index
// over a column of type ct (same key lane).
func laneCompatible(ct, vt expr.Type) bool {
	if ct == expr.TString {
		return vt == expr.TString
	}
	return intClassType(ct) && intClassType(vt)
}

// idxBounds accumulates the tightest [lo, hi] range the predicate's
// conjuncts impose on one column.
type idxBounds struct {
	lo, hi       *expr.Value
	loInc, hiInc bool
	found        bool
}

func (b *idxBounds) tightenLo(v expr.Value, inc bool) {
	if b.lo == nil {
		b.lo, b.loInc, b.found = &v, inc, true
		return
	}
	c, err := v.Compare(*b.lo)
	if err != nil {
		return
	}
	if c > 0 || (c == 0 && !inc) {
		b.lo, b.loInc = &v, inc
	}
	b.found = true
}

func (b *idxBounds) tightenHi(v expr.Value, inc bool) {
	if b.hi == nil {
		b.hi, b.hiInc, b.found = &v, inc, true
		return
	}
	c, err := v.Compare(*b.hi)
	if err != nil {
		return
	}
	if c < 0 || (c == 0 && !inc) {
		b.hi, b.hiInc = &v, inc
	}
	b.found = true
}

// matchesCol reports whether e is a column reference to alias.col (an
// unqualified reference matches any alias, as in the scan's own schema).
func matchesCol(e expr.Expr, alias, col string) bool {
	c, ok := e.(*expr.Col)
	if !ok {
		return false
	}
	if !strings.EqualFold(c.Name, col) {
		return false
	}
	return c.Table == "" || strings.EqualFold(c.Table, alias)
}

// constVal unwraps a literal operand.
func constVal(e expr.Expr) (expr.Value, bool) {
	c, ok := e.(*expr.Const)
	if !ok {
		return expr.Value{}, false
	}
	return c.Val, true
}

// indexBounds extracts the tightest index range the predicate imposes on
// alias.col through `col CMP literal` conjuncts (either operand order)
// and BETWEEN. found is false when no conjunct bounds the column — a
// full-index sweep never beats the plain scan, so no alternative is
// generated then.
func (m *Memo) indexBounds(pred expr.Expr, alias, col string, colType expr.Type) idxBounds {
	var b idxBounds
	for _, c := range m.cachedConjuncts(pred) {
		switch n := c.(type) {
		case *expr.Cmp:
			op := n.Op
			var v expr.Value
			if matchesCol(n.L, alias, col) {
				val, ok := constVal(n.R)
				if !ok {
					continue
				}
				v = val
			} else if matchesCol(n.R, alias, col) {
				val, ok := constVal(n.L)
				if !ok {
					continue
				}
				v = val
				op = op.Flip()
			} else {
				continue
			}
			if v.IsNull() || !laneCompatible(colType, v.T) {
				continue
			}
			switch op {
			case expr.EQ:
				b.tightenLo(v, true)
				b.tightenHi(v, true)
			case expr.LT:
				b.tightenHi(v, false)
			case expr.LE:
				b.tightenHi(v, true)
			case expr.GT:
				b.tightenLo(v, false)
			case expr.GE:
				b.tightenLo(v, true)
			}
		case *expr.Between:
			if !matchesCol(n.E, alias, col) {
				continue
			}
			if n.Lo.IsNull() || n.Hi.IsNull() {
				continue
			}
			if !laneCompatible(colType, n.Lo.T) || !laneCompatible(colType, n.Hi.T) {
				continue
			}
			b.tightenLo(n.Lo, true)
			b.tightenHi(n.Hi, true)
		}
	}
	return b
}

// indexScanAlts generates the IndexScan alternatives of a Filter
// expression whose child group is a bare Scan: one per indexed column
// the predicate bounds.
func (m *Memo) indexScanAlts(e *MExpr, eCols []plan.ColRef, cfg *ImplConfig) []*Alt {
	scanOp := scanExpr(e.Children[0])
	if scanOp == nil || e.Op.Pred == nil {
		return nil
	}
	t := scanOp.Table
	var out []*Alt
	for _, idxName := range t.IndexList() {
		col, ok := t.Column(idxName)
		if !ok || !indexableType(col.Type) {
			continue
		}
		b := m.indexBounds(e.Op.Pred, scanOp.Alias, col.Name, col.Type)
		if !b.found {
			continue
		}
		blk := &altBlock{node: *scanOp}
		node := &blk.node
		node.Kind = plan.IndexScan
		node.Cols = eCols
		node.Pred = e.Op.Pred
		node.IdxCol = col.Name
		node.IdxLo, node.IdxHi = b.lo, b.hi
		node.IdxLoInc, node.IdxHiInc = b.loInc, b.hiInc
		node.Card = e.Group.Card
		// AR1: the index lives with the table; the scan runs at its site.
		node.Exec = plan.NewSiteSet(scanLocation(scanOp))
		node.Cost = cfg.Est.AccessPathCost(node, node.Card)

		alt := &blk.alt
		alt.Tree = node
		alt.Cost = node.Cost
		if cfg.Compliant {
			ship := node.Exec
			if q, ok := cfg.analyzer.Describe(node); ok {
				ship = ship.Union(cfg.Evaluator.EvaluateWith(q, cfg.Stats))
				alt.DescKey = q.Digest()
			}
			node.ShipT = ship
			alt.Ship = ship
		}
		out = append(out, cfg.canonicalizeAlt(alt, e.Group))
	}
	return out
}

// indexLookupJoinAlt builds an IndexLookupJoin alternative for a Join
// expression: the inner (right) child group must be a bare Scan with an
// index on one side of an equi-join conjunct whose other side comes from
// the outer child. Returns nil when no such access path exists or the
// alternative is infeasible.
func (m *Memo) indexLookupJoinAlt(e *MExpr, left *Alt, eCols []plan.ColRef, cfg *ImplConfig) *Alt {
	scanOp := scanExpr(e.Children[1])
	if scanOp == nil {
		return nil
	}
	t := scanOp.Table
	if len(t.IndexList()) == 0 {
		return nil
	}
	// Find an equi conjunct inner.idxCol = outer.col with lane-compatible
	// types; the full join predicate is re-applied per probe, so any one
	// usable key suffices.
	var idxCol string
	var outerKey *expr.Col
	outerCols := e.Children[0].Cols
	for _, cmp := range cfg.equiCmps(e.Op.Pred) {
		l := cmp.L.(*expr.Col)
		r := cmp.R.(*expr.Col)
		for _, pair := range [2][2]*expr.Col{{l, r}, {r, l}} {
			inner, outer := pair[0], pair[1]
			col, ok := t.Column(inner.Name)
			if !ok || !t.Indexed(col.Name) || !indexableType(col.Type) {
				continue
			}
			if !(inner.Table == "" || strings.EqualFold(inner.Table, scanOp.Alias)) {
				continue
			}
			oi := colRefIndex(outer, outerCols)
			if oi < 0 || !laneCompatible(col.Type, outerCols[oi].Type) {
				continue
			}
			idxCol, outerKey = col.Name, outer
			break
		}
		if outerKey != nil {
			break
		}
	}
	if outerKey == nil {
		return nil
	}
	innerLoc := scanLocation(scanOp)
	// The probe runs where the index lives; the outer stream must be
	// allowed to ship there (AR2 over the single shipped input).
	exec := plan.NewSiteSet(innerLoc)
	if cfg.Compliant {
		exec = exec.Intersect(left.Ship)
		if exec.Empty() {
			return nil
		}
	}
	innerCard := cfg.Est.NodeCard(scanOp, nil)
	inner := &plan.Node{
		Kind:    plan.TableScan,
		Table:   t,
		Alias:   scanOp.Alias,
		FragIdx: scanOp.FragIdx,
		Cols:    e.Children[1].Cols,
		Card:    innerCard,
		Exec:    plan.NewSiteSet(innerLoc),
		ShipT:   plan.NewSiteSet(innerLoc),
	}
	blk := &altBlock{node: *e.Op}
	node := &blk.node
	node.Kind = plan.IndexLookupJoin
	node.Cols = eCols
	node.Card = e.Group.Card
	node.Exec = exec
	blk.kids[0], blk.kids[1] = left.Tree, inner
	node.Children = blk.kids[:2:2]
	node.IdxCol = idxCol
	node.IdxOuter = outerKey
	// The inner scan is never executed (its pages are reached through the
	// index), so only the outer subtree's cost accrues.
	node.Cost = left.Cost + cfg.Est.AccessPathCost(node, node.Card, left.Tree.Card, innerCard)

	alt := &blk.alt
	alt.Tree = node
	alt.Cost = node.Cost
	if cfg.Compliant {
		ship := exec
		if q, ok := cfg.analyzer.Describe(node); ok {
			ship = ship.Union(cfg.Evaluator.EvaluateWith(q, cfg.Stats))
			alt.DescKey = q.Digest()
		}
		node.ShipT = ship
		alt.Ship = ship
	}
	return cfg.canonicalizeAlt(alt, e.Group)
}

// colRefIndex resolves a column reference against a schema (the group
// column order), or -1.
func colRefIndex(c *expr.Col, cols []plan.ColRef) int {
	idx := -1
	for i, cr := range cols {
		if !strings.EqualFold(c.Name, cr.Name) {
			continue
		}
		if c.Table != "" {
			if strings.EqualFold(c.Table, cr.Table) {
				return i
			}
			continue
		}
		if idx >= 0 {
			return -1 // ambiguous
		}
		idx = i
	}
	return idx
}
