package plan

import (
	"strings"
	"testing"

	"cgdqp/internal/expr"
)

func TestCanonFoldsPhysicalKinds(t *testing.T) {
	folds := map[Kind]Kind{
		TableScan:  Scan,
		FilterExec: Filter,
		HashJoin:   Join,
		NLJoin:     Join,
		HashAgg:    Aggregate,
		SortExec:   Sort,
		LimitExec:  Limit,
		// Logical kinds are fixed points.
		Scan: Scan,
		Join: Join,
		Ship: Ship,
	}
	for k, want := range folds {
		if got := k.Canon(); got != want {
			t.Errorf("Canon(%v) = %v, want %v", k, got, want)
		}
	}
}

// TestSubplanDigestErasesPhysicalChoice: the digest of an executed
// physical tree must match the digest of the logical tree it implements
// — that is the key the feedback store and the memo agree on.
func TestSubplanDigestErasesPhysicalChoice(t *testing.T) {
	logical := func() *Node {
		l := NewScan(custTable(), "C", -1)
		r := NewScan(ordTable(), "O", -1)
		cond := expr.NewCmp(expr.EQ, expr.NewCol("C", "custkey"), expr.NewCol("O", "custkey"))
		return NewJoin(l, r, cond)
	}
	base := logical().SubplanDigest()
	for _, k := range []Kind{HashJoin, NLJoin} {
		p := logical()
		p.Kind = k
		p.Children[0].Kind = TableScan
		p.Children[1].Kind = TableScan
		if got := p.SubplanDigest(); got != base {
			t.Errorf("%v digest %q != logical digest %q", k, got, base)
		}
	}
}

// TestSubplanDigestSkipsShip: a Ship over a subtree must not change its
// digest — shipping moves the stream, not its cardinality.
func TestSubplanDigestSkipsShip(t *testing.T) {
	s := NewScan(custTable(), "C", -1)
	base := s.SubplanDigest()
	shipped := &Node{Kind: Ship, Children: []*Node{s}, Cols: s.Cols, FromLoc: "N", Loc: "E"}
	if got := shipped.SubplanDigest(); got != base {
		t.Errorf("ship-wrapped digest %q != bare digest %q", got, base)
	}
	// Ship inside a larger tree is equally transparent.
	f := &Node{Kind: Filter, Children: []*Node{shipped}, Cols: s.Cols,
		Pred: expr.NewCmp(expr.LT, expr.NewCol("C", "custkey"), expr.NewConst(expr.NewInt(5)))}
	direct := &Node{Kind: Filter, Children: []*Node{s}, Cols: s.Cols, Pred: f.Pred}
	if f.SubplanDigest() != direct.SubplanDigest() {
		t.Error("ship inside a tree changed the enclosing digest")
	}
}

func TestSubplanDigestDistinguishesOperators(t *testing.T) {
	c := NewScan(custTable(), "C", -1)
	o := NewScan(ordTable(), "O", -1)
	if c.SubplanDigest() == o.SubplanDigest() {
		t.Error("different tables share a digest")
	}
	f1 := NewFilter(c, expr.NewCmp(expr.LT, expr.NewCol("C", "custkey"), expr.NewConst(expr.NewInt(5))))
	f2 := NewFilter(c, expr.NewCmp(expr.LT, expr.NewCol("C", "custkey"), expr.NewConst(expr.NewInt(9))))
	if f1.SubplanDigest() == f2.SubplanDigest() {
		t.Error("different predicates share a digest")
	}
	if !strings.Contains(f1.SubplanDigest(), c.SubplanDigest()) {
		t.Error("digest does not compose over children")
	}
}

func TestCanonOpDigestLeavesNodeIntact(t *testing.T) {
	s := NewScan(custTable(), "C", -1)
	s.Kind = TableScan
	_ = s.SubplanDigest()
	if s.Kind != TableScan {
		t.Error("digesting under the logical kind mutated the node")
	}
}

// TestJoinDigestIgnoresJoinOrder: every commutation and re-association
// of one three-way join — under any physical kind, with the reorder
// projections and shipments a located plan carries — has one digest; a
// different conjunct is a different subplan.
func TestJoinDigestIgnoresJoinOrder(t *testing.T) {
	c := func() *Node { return NewScan(custTable(), "C", -1) }
	o := func() *Node { return NewScan(ordTable(), "O", -1) }
	p := func() *Node { return NewScan(ordTable(), "P", -1) }
	co := expr.NewCmp(expr.EQ, expr.NewCol("C", "custkey"), expr.NewCol("O", "custkey"))
	op := expr.NewCmp(expr.EQ, expr.NewCol("O", "ordkey"), expr.NewCol("P", "ordkey"))
	cp := expr.NewCmp(expr.EQ, expr.NewCol("C", "custkey"), expr.NewCol("P", "custkey"))

	base := NewJoin(NewJoin(c(), o(), co), p(), op).SubplanDigest()
	reorder := func(n *Node) *Node {
		projs := make([]NamedExpr, len(n.Cols))
		for i, cr := range n.Cols {
			projs[i] = NamedExpr{E: cr.Col(), Name: cr.Name, Type: cr.Type}
		}
		pr := NewProject(n, projs)
		pr.Kind = ProjectExec
		return &Node{Kind: Ship, Children: []*Node{pr}, Cols: pr.Cols, FromLoc: "N", Loc: "E"}
	}
	inner := NewJoin(p(), o(), op)
	inner.Kind = NLJoin
	lookup := NewJoin(reorder(inner), c(), co)
	lookup.Kind = IndexLookupJoin
	same := map[string]*Node{
		"commuted":            NewJoin(p(), NewJoin(o(), c(), co), op),
		"re-associated":       NewJoin(c(), NewJoin(o(), p(), op), co),
		"conjuncts in one":    NewJoin(c(), NewJoin(o(), p(), nil), expr.NewAnd(op, co)),
		"physical + reorders": lookup,
	}
	for name, n := range same {
		if got := n.SubplanDigest(); got != base {
			t.Errorf("%s: digest %q, want %q", name, got, base)
		}
	}
	if got := NewJoin(NewJoin(c(), o(), co), p(), cp).SubplanDigest(); got == base {
		t.Errorf("a different conjunct kept the digest %q", got)
	}
	if a, b := JoinDigest([]string{"x", "y"}, []string{"p"}), JoinDigest([]string{"x"}, []string{"p", "y"}); a == b {
		t.Errorf("leaves and conjuncts are not delimited: %q", a)
	}
}

// TestIndexScanIsFilterOverScan: the access path shares the identity of
// the logical operators it implements.
func TestIndexScanIsFilterOverScan(t *testing.T) {
	pred := expr.NewCmp(expr.LT, expr.NewCol("C", "custkey"), expr.NewConst(expr.NewInt(5)))
	scan := NewScan(custTable(), "C", -1)
	idx := *scan
	idx.Kind, idx.Pred, idx.IdxCol = IndexScan, pred, "custkey"
	if got, want := idx.SubplanDigest(), NewFilter(scan, pred).SubplanDigest(); got != want {
		t.Errorf("IndexScan digest %q, Filter(Scan) digest %q", got, want)
	}
}
