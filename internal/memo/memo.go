// Package memo implements the Volcano-style memo at the core of the
// compliance-based optimizer (Section 6): equivalence groups of logical
// expressions, a rule engine that explores the plan space to fixpoint,
// and a bottom-up implementation pass that produces physical alternatives
// annotated with execution and shipping traits (annotation rules AR1–AR4)
// using the compliance-based cost function (infinite cost — i.e.
// discarded — when an operator's execution trait is empty). Explore is
// the only writer: Implement keeps its results in its ImplConfig, so one
// explored memo serves any number of concurrent implementation passes.
package memo

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"cgdqp/internal/cost"
	"cgdqp/internal/expr"
	"cgdqp/internal/plan"
)

// Memo is the search space: a set of equivalence groups.
type Memo struct {
	Groups []*Group

	byDigest map[string]*MExpr // expression digest -> canonical expression
	// bySig maps a join's logical signature (see joinSig) to its group:
	// every join tree computing the same relation lands in one group.
	bySig map[string]*Group
	est   *cost.Estimator
	// predStrs caches predicate renderings by pointer: rules share
	// predicate expressions across the alternatives they derive, and the
	// recursive String() inside OpDigest dominates digest cost.
	predStrs map[expr.Expr]string
	// conjs and exprCols cache per-predicate conjunct splits and column
	// references for the rule engine, which re-derives them on every
	// rule application otherwise.
	conjs    map[expr.Expr][]expr.Expr
	exprCols map[expr.Expr][]*expr.Col

	// MaxExprs bounds the number of logical expressions created during
	// exploration (a safety valve for very large join graphs).
	MaxExprs int
	// exprCount counts inserted expressions.
	exprCount int
	// DigestConflicts counts rule outputs that proved two distinct groups
	// equal: the expression's digest, or a join's signature, already
	// belonged to a group other than the rule's target. Groups are never
	// merged after the fact, so each one is a lost equivalence link.
	DigestConflicts int
}

// Group is one equivalence class of logically equivalent expressions.
// Logical properties (schema, estimated cardinality) are derived from the
// first inserted expression.
type Group struct {
	ID    int
	Exprs []*MExpr
	Cols  []plan.ColRef
	Card  float64

	// leaves and conjs are a join group's logical signature: the sorted
	// IDs of its non-join input groups and the sorted renderings of every
	// conjunct applied beneath it. Joins are inner, so the group is
	// σ_{∧conjs}(× leaves) whatever tree reached it first. Both are nil
	// for groups not created by a join.
	leaves []int
	conjs  []string
}

// MExpr is one logical expression: an operator whose children are groups.
type MExpr struct {
	Op       *plan.Node // operator parameters; Children field unused
	Children []*Group
	Group    *Group

	// ruleState remembers, per rule position, how many expressions of the
	// first two child groups the rule has been bound against. Group
	// expression lists are append-only, so a re-application only has to
	// bind what was appended since.
	ruleState [maxRules]struct {
		applied bool
		bound   [2]int
	}
}

// maxRules bounds the rule list one memo can be explored with.
const maxRules = 4

// New creates an empty memo using the estimator for group cardinalities.
func New(est *cost.Estimator) *Memo {
	return &Memo{
		byDigest: map[string]*MExpr{},
		bySig:    map[string]*Group{},
		predStrs: map[expr.Expr]string{},
		conjs:    map[expr.Expr][]expr.Expr{},
		exprCols: map[expr.Expr][]*expr.Col{},
		est:      est,
		MaxExprs: 200000,
	}
}

// Conjuncts returns expr.Conjuncts(e) cached per expression pointer.
// Callers must treat the result as read-only (copy before appending).
// Exploration only: it fills the cache (see cachedConjuncts).
func (m *Memo) Conjuncts(e expr.Expr) []expr.Expr {
	if e == nil {
		return nil
	}
	if cs, ok := m.conjs[e]; ok {
		return cs
	}
	cs := expr.Conjuncts(e)
	// Clamp capacity so an append by a careless caller cannot scribble
	// over the cached backing array.
	cs = cs[:len(cs):len(cs)]
	m.conjs[e] = cs
	return cs
}

// cachedConjuncts is Conjuncts for the implementation pass, which must
// not write to the memo: a split exploration did not cache is computed
// and dropped.
func (m *Memo) cachedConjuncts(e expr.Expr) []expr.Expr {
	if cs, ok := m.conjs[e]; ok {
		return cs
	}
	return expr.Conjuncts(e)
}

// ColsOf returns the column references appearing in e, cached per
// expression pointer. Callers must treat the result as read-only.
func (m *Memo) ColsOf(e expr.Expr) []*expr.Col {
	if e == nil {
		return nil
	}
	if cols, ok := m.exprCols[e]; ok {
		return cols
	}
	var cols []*expr.Col
	expr.Walk(e, func(n expr.Expr) bool {
		if c, ok := n.(*expr.Col); ok {
			cols = append(cols, c)
		}
		return true
	})
	cols = cols[:len(cols):len(cols)]
	m.exprCols[e] = cols
	return cols
}

// exprDigest is the identity of an expression: operator digest plus
// child group IDs, with the predicate renderings memoized on the memo
// (predicates are shared by pointer across derived expressions, and rule
// re-application recomputes digests of mostly-known expressions, so the
// rendering dominates insert cost).
func (m *Memo) exprDigest(op *plan.Node, children []*Group) string {
	var b strings.Builder
	b.Grow(64)
	switch op.Kind {
	case plan.Filter, plan.FilterExec, plan.Join, plan.HashJoin, plan.NLJoin:
		b.WriteString(op.Kind.String())
		b.WriteByte(':')
		if op.Pred != nil {
			b.WriteString(m.predString(op.Pred))
		}
	default:
		b.WriteString(op.OpDigest())
	}
	for _, c := range children {
		b.WriteByte('[')
		b.WriteString(strconv.Itoa(c.ID))
		b.WriteByte(']')
	}
	return b.String()
}

func (m *Memo) predString(e expr.Expr) string {
	if s, ok := m.predStrs[e]; ok {
		return s
	}
	var s string
	if a, ok := e.(*expr.And); ok {
		// Recurse through conjunctions so freshly rebuilt And chains
		// (rules recombine conjuncts on every application) reuse the
		// cached renderings of their stable leaves. Mirrors And.String.
		s = "(" + m.predString(a.L) + " AND " + m.predString(a.R) + ")"
	} else {
		s = e.String()
	}
	m.predStrs[e] = s
	return s
}

// Seal drops what only exploration reads — the digest and signature
// indexes, predicate renderings and column lists — and so ends it: an
// insert or Explore after Seal panics. Implement reads none of them.
func (m *Memo) Seal() {
	m.byDigest, m.bySig, m.predStrs, m.exprCols = nil, nil, nil, nil
}

// Budget reports whether the exploration budget is exhausted.
func (m *Memo) Budget() bool { return m.exprCount >= m.MaxExprs }

// ExprCount returns the number of logical expressions in the memo.
func (m *Memo) ExprCount() int { return m.exprCount }

// InsertTree recursively inserts a logical plan tree, returning its root
// group. Identical subtrees share groups via digest deduplication.
func (m *Memo) InsertTree(n *plan.Node) *Group {
	children := make([]*Group, len(n.Children))
	for i, c := range n.Children {
		children[i] = m.InsertTree(c)
	}
	op := stripChildren(n)
	e, _ := m.InsertExpr(op, children, nil)
	return e.Group
}

// stripChildren copies the operator parameters without the subtree.
func stripChildren(n *plan.Node) *plan.Node {
	cp := *n
	cp.Children = nil
	cp.Exec = plan.SiteSet{}
	cp.ShipT = plan.SiteSet{}
	cp.Loc = ""
	cp.Cost = 0
	return &cp
}

// InsertExpr inserts an expression into the memo. A known digest returns
// the existing expression. Otherwise a join lands in the group owning its
// signature — whatever tree reached that relation first — and any other
// operator in target, or in a fresh group when target is nil. The bool
// reports whether a new expression was created.
func (m *Memo) InsertExpr(op *plan.Node, children []*Group, target *Group) (*MExpr, bool) {
	d := m.exprDigest(op, children)
	if existing, ok := m.byDigest[d]; ok {
		if target != nil && existing.Group != target {
			m.DigestConflicts++
		}
		return existing, false
	}
	if op.Kind == plan.Join {
		leaves, conjs := m.joinSig(op, children)
		key := sigKey(leaves, conjs)
		g := m.bySig[key]
		if g == nil {
			g = m.newGroup(op, children)
			g.leaves, g.conjs = leaves, conjs
			m.bySig[key] = g
		}
		if target != nil && g != target {
			m.DigestConflicts++
		}
		target = g
	} else if target == nil {
		target = m.newGroup(op, children)
	}
	e := &MExpr{Op: op, Children: children, Group: target}
	target.Exprs = append(target.Exprs, e)
	m.byDigest[d] = e
	m.exprCount++
	return e, true
}

// joinSig computes the logical signature of a join over the given child
// groups: a child that is itself a join group contributes its own leaves
// and conjuncts, any other child is a leaf.
func (m *Memo) joinSig(op *plan.Node, children []*Group) (leaves []int, conjs []string) {
	for _, c := range children {
		if c.leaves == nil {
			leaves = append(leaves, c.ID)
			continue
		}
		leaves = append(leaves, c.leaves...)
		conjs = append(conjs, c.conjs...)
	}
	for _, c := range m.Conjuncts(op.Pred) {
		conjs = append(conjs, m.predString(c))
	}
	sort.Ints(leaves)
	sort.Strings(conjs)
	return leaves, conjs
}

func sigKey(leaves []int, conjs []string) string {
	var b strings.Builder
	for _, id := range leaves {
		b.WriteString(strconv.Itoa(id))
		b.WriteByte(',')
	}
	for _, c := range conjs {
		b.WriteByte('|')
		b.WriteString(c)
	}
	return b.String()
}

// newGroup creates a group, deriving schema and cardinality from the
// creating expression.
func (m *Memo) newGroup(op *plan.Node, children []*Group) *Group {
	g := &Group{ID: len(m.Groups)}
	g.Cols = outputCols(op, children)
	cards := make([]float64, len(children))
	for i, c := range children {
		cards[i] = c.Card
	}
	probe := *op
	probe.Cols = g.Cols
	g.Card = m.est.NodeCard(&probe, cards)
	m.Groups = append(m.Groups, g)
	return g
}

// outputCols computes an operator's output schema from its parameters and
// child group schemas. Scans, projections and aggregations define their
// own schema; joins concatenate; the rest pass through.
func outputCols(op *plan.Node, children []*Group) []plan.ColRef {
	switch op.Kind {
	case plan.Scan, plan.TableScan:
		return op.Cols
	case plan.Project, plan.ProjectExec, plan.Aggregate, plan.HashAgg:
		return op.Cols
	case plan.Join, plan.HashJoin, plan.NLJoin:
		out := make([]plan.ColRef, 0, len(children[0].Cols)+len(children[1].Cols))
		out = append(out, children[0].Cols...)
		return append(out, children[1].Cols...)
	default:
		if len(children) > 0 {
			return children[0].Cols
		}
		return op.Cols
	}
}

// NewExpr is a rule output: an operator over children that are either
// existing groups (*Group) or nested *NewExpr subtrees to be inserted.
type NewExpr struct {
	Op       *plan.Node
	Children []any // *Group | *NewExpr
}

// InsertNew resolves a NewExpr bottom-up. The root lands in target.
func (m *Memo) InsertNew(ne *NewExpr, target *Group) (*MExpr, bool) {
	children := make([]*Group, len(ne.Children))
	for i, c := range ne.Children {
		switch ch := c.(type) {
		case *Group:
			children[i] = ch
		case *NewExpr:
			sub, _ := m.InsertNew(ch, nil)
			children[i] = sub.Group
		default:
			panic(fmt.Sprintf("memo: invalid NewExpr child %T", c))
		}
	}
	return m.InsertExpr(ne.Op, children, target)
}

// Rule is a transformation rule: given a logical expression (with access
// to the memo for matching child-group expressions), it produces zero or
// more equivalent expressions for the same group. The engine re-applies a
// rule to an expression whenever one of its first two child groups has
// gained expressions; from[i] is how many of child i's expressions
// earlier applications already saw, so a rule that binds child
// expressions enumerates Children[i].Exprs[from[i]:] only.
type Rule interface {
	Name() string
	Apply(m *Memo, e *MExpr, from [2]int) []*NewExpr
}

// Explore applies the rules to fixpoint (or until the expression budget
// is exhausted). Rules are re-applied across passes because a rule's
// bindings grow as child groups gain expressions; digest-based
// deduplication guarantees termination (the space of derivable
// expressions is finite). A memo is explored with one rule list: the
// per-expression binding state is indexed by rule position.
func (m *Memo) Explore(rules []Rule) {
	if len(rules) > maxRules {
		panic(fmt.Sprintf("memo: %d rules, at most %d supported", len(rules), maxRules))
	}
	for {
		changed := false
		// Iterate with growing bounds: rules may append groups/exprs.
		for gi := 0; gi < len(m.Groups); gi++ {
			g := m.Groups[gi]
			for ei := 0; ei < len(g.Exprs); ei++ {
				e := g.Exprs[ei]
				for ri, r := range rules {
					if m.Budget() {
						return
					}
					var now [2]int // re-read per rule: the previous one may have grown a child
					for i := 0; i < len(now) && i < len(e.Children); i++ {
						now[i] = len(e.Children[i].Exprs)
					}
					// Skip when the binding universe has not grown since
					// the last application.
					st := &e.ruleState[ri]
					if st.applied && st.bound == now {
						continue
					}
					from := st.bound
					st.applied, st.bound = true, now
					for _, ne := range r.Apply(m, e, from) {
						if _, fresh := m.InsertNew(ne, g); fresh {
							changed = true
						}
					}
				}
			}
		}
		if !changed {
			return
		}
	}
}
