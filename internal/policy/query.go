package policy

import (
	"sort"
	"strings"

	"cgdqp/internal/expr"
	"cgdqp/internal/plan"
)

// Attr identifies a base-table column (both parts lowercase).
type Attr struct {
	Table string
	Name  string
}

// Key returns "table.name".
func (a Attr) Key() string { return a.Table + "." + a.Name }

// OutAttr is one entry of A_q: a base attribute exposed by the query
// output, optionally through an aggregate function. Following Section 5,
// an aggregate over an expression (e.g. SUM(F*(1-G))) exposes every
// referenced base attribute with that aggregate function.
type OutAttr struct {
	Attr
	Agg    expr.AggFn
	HasAgg bool
}

// Key returns a canonical string for the output attribute.
func (o OutAttr) Key() string {
	if o.HasAgg {
		return o.Attr.Key() + "#" + o.Agg.String()
	}
	return o.Attr.Key()
}

// Query is the descriptor of a local query handed to the policy
// evaluation algorithm 𝒜: the database it runs against, its output
// attributes A_q, its predicate P_q (canonicalized to base-table column
// names), its grouping attributes G_q, and whether it aggregates.
type Query struct {
	DB         string
	Home       string // location hosting the database ("" = unknown)
	OutAttrs   []OutAttr
	GroupBy    []Attr
	Pred       expr.Expr
	Aggregated bool

	// digest memoizes Digest(); descriptors are immutable once built.
	digest string
}

// Digest returns a canonical cache key for the descriptor.
func (q *Query) Digest() string {
	if q.digest != "" {
		return q.digest
	}
	keys := make([]string, len(q.OutAttrs))
	for i, a := range q.OutAttrs {
		keys[i] = a.Key()
	}
	gb := make([]string, len(q.GroupBy))
	for i, a := range q.GroupBy {
		gb[i] = a.Key()
	}
	pred := ""
	if q.Pred != nil {
		pred = q.Pred.String()
	}
	q.digest = digestKey(q.DB, q.Home, keys, gb, pred, q.Aggregated)
	return q.digest
}

// digestKey is the one builder of Digest's key format from a
// descriptor's parts: the output and grouping attribute keys (sorted in
// place) and the predicate's rendering. Analyzer.Describe passes its
// cached renderings, Digest computes them, so the two agree byte for
// byte (the evaluator cache is keyed on it).
func digestKey(db, home string, outKeys, groupKeys []string, pred string, aggregated bool) string {
	n := len(db) + len(home) + len(pred) + 8
	for _, k := range outKeys {
		n += len(k) + 1
	}
	for _, k := range groupKeys {
		n += len(k) + 1
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(db)
	b.WriteByte('@')
	b.WriteString(home)
	for _, keys := range [][]string{outKeys, groupKeys} {
		b.WriteByte('|')
		sort.Strings(keys)
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(k)
		}
	}
	b.WriteByte('|')
	b.WriteString(pred)
	if aggregated {
		b.WriteString("|agg")
	}
	return b.String()
}

// term is the lineage of one output column: the base attributes it
// exposes, each optionally through an aggregate function.
type term struct {
	attr   Attr
	fn     expr.AggFn
	hasAgg bool
}

// colLineage is the set of terms one output column carries.
type colLineage []term

func (c colLineage) allRaw() bool {
	for _, t := range c {
		if t.hasAgg {
			return false
		}
	}
	return true
}

// descState is the running analysis of a subtree.
type descState struct {
	db         string
	home       string       // location of the scanned fragments
	cols       []colLineage // parallel to node.Cols
	conjuncts  []expr.Expr  // canonicalized predicate conjuncts
	groupBy    []Attr
	aggregated bool
}

// Analyzer computes local-query descriptors with a per-node cache. Plan
// subtrees are shared across memo alternatives and treated as immutable
// during optimization, so analysis results can be memoized by pointer.
type Analyzer struct {
	cache map[*plan.Node]analyzeEntry
	// strs and cols memoize per-conjunct renderings and column lists.
	// Conjunct expressions are shared by pointer across the alternatives
	// the optimizer describes, while the descriptor (and its digest) is
	// rebuilt per alternative; re-rendering the shared predicate tree
	// dominates descriptor cost without these caches.
	strs map[expr.Expr]string
	cols map[expr.Expr][]*expr.Col
	// oaKeys memoizes OutAttr.Key renderings (OutAttr is comparable).
	oaKeys map[OutAttr]string
	aKeys  map[Attr]string
}

type analyzeEntry struct {
	st *descState
	ok bool
}

// NewAnalyzer returns an empty analyzer.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		cache:  map[*plan.Node]analyzeEntry{},
		strs:   map[expr.Expr]string{},
		cols:   map[expr.Expr][]*expr.Col{},
		oaKeys: map[OutAttr]string{},
		aKeys:  map[Attr]string{},
	}
}

// exprString renders e, memoized by pointer. And nodes recurse so chains
// rebuilt from stable conjuncts reuse the cached leaf renderings.
func (a *Analyzer) exprString(e expr.Expr) string {
	if s, ok := a.strs[e]; ok {
		return s
	}
	var s string
	if and, ok := e.(*expr.And); ok {
		s = "(" + a.exprString(and.L) + " AND " + a.exprString(and.R) + ")"
	} else {
		s = e.String()
	}
	a.strs[e] = s
	return s
}

// colsOf returns the column references in e, memoized by pointer. The
// result is read-only.
func (a *Analyzer) colsOf(e expr.Expr) []*expr.Col {
	if cs, ok := a.cols[e]; ok {
		return cs
	}
	cs := expr.Columns(e)
	cs = cs[:len(cs):len(cs)]
	a.cols[e] = cs
	return cs
}

func (a *Analyzer) outAttrKey(oa OutAttr) string {
	if s, ok := a.oaKeys[oa]; ok {
		return s
	}
	s := oa.Key()
	a.oaKeys[oa] = s
	return s
}

func (a *Analyzer) attrKey(at Attr) string {
	if s, ok := a.aKeys[at]; ok {
		return s
	}
	s := at.Key()
	a.aKeys[at] = s
	return s
}

// Describe analyzes a plan subtree and produces the local-query
// descriptor used by annotation rule AR4 and by the compliance checker.
// ok is false when the subtree is not a local query over a single
// database (it spans databases, contains SHIP operators, or has a shape
// the descriptor cannot express, such as filters over aggregated values);
// in that case the caller must not invoke the policy evaluator and must
// fall back to the conservative default (no legal destinations beyond the
// execution trait).
func Describe(n *plan.Node) (*Query, bool) {
	return NewAnalyzer().Describe(n)
}

// Describe analyzes a subtree through the cache.
func (a *Analyzer) Describe(n *plan.Node) (*Query, bool) {
	st, ok := a.analyze(n)
	if !ok {
		return nil, false
	}
	q := &Query{DB: st.db, Home: st.home, GroupBy: st.groupBy, Aggregated: st.aggregated}
	q.Pred = expr.AndAll(st.conjuncts...)
	var keyBuf [12]string
	keys := keyBuf[:0] // parallel to q.OutAttrs; dedup key is OutAttr.Key
	add := func(oa OutAttr) {
		k := a.outAttrKey(oa)
		for _, have := range keys {
			if have == k {
				return
			}
		}
		keys = append(keys, k)
		q.OutAttrs = append(q.OutAttrs, oa)
	}
	for _, col := range st.cols {
		for _, t := range col {
			add(OutAttr{Attr: t.attr, Agg: t.fn, HasAgg: t.hasAgg})
		}
	}
	// Predicate columns count as accessed attributes (Example 1: a query
	// filtering on mktsegment must be covered by an expression shipping
	// mktsegment under an implied predicate). They are raw accesses.
	for _, c := range st.conjuncts {
		for _, col := range a.colsOf(c) {
			add(OutAttr{Attr: Attr{Table: col.Table, Name: col.Name}})
		}
	}
	// The digest from the cached renderings. AndAll folds
	// left-associatively, so the predicate rendering mirrors that shape.
	var gbBuf [8]string
	gb := gbBuf[:0]
	for _, at := range st.groupBy {
		gb = append(gb, a.attrKey(at))
	}
	pred := ""
	if len(st.conjuncts) > 0 {
		pred = a.exprString(st.conjuncts[0])
		for _, c := range st.conjuncts[1:] {
			pred = "(" + pred + " AND " + a.exprString(c) + ")"
		}
	}
	q.digest = digestKey(st.db, st.home, keys, gb, pred, st.aggregated)
	return q, true
}

func (a *Analyzer) analyze(n *plan.Node) (*descState, bool) {
	if e, hit := a.cache[n]; hit {
		return e.st, e.ok
	}
	st, ok := a.analyzeUncached(n)
	a.cache[n] = analyzeEntry{st: st, ok: ok}
	return st, ok
}

func (a *Analyzer) analyzeUncached(n *plan.Node) (*descState, bool) {
	switch n.Kind {
	case plan.Scan, plan.TableScan:
		return analyzeScan(n)
	case plan.Filter, plan.FilterExec:
		return a.analyzeFilter(n)
	case plan.Project, plan.ProjectExec:
		return a.analyzeProject(n)
	case plan.Join, plan.HashJoin, plan.NLJoin, plan.IndexLookupJoin:
		return a.analyzeJoin(n)
	case plan.IndexScan:
		return a.analyzeIndexScan(n)
	case plan.Aggregate, plan.HashAgg:
		return a.analyzeAggregate(n)
	case plan.Union, plan.UnionAll:
		return a.analyzeUnion(n)
	case plan.Sort, plan.SortExec, plan.Limit, plan.LimitExec:
		return a.analyze(n.Children[0])
	}
	// Ship and anything unknown: not a local query.
	return nil, false
}

func analyzeScan(n *plan.Node) (*descState, bool) {
	fragIdx := n.FragIdx
	if fragIdx < 0 {
		if n.Table.Fragmented() {
			// A whole-table scan of a fragmented table spans databases.
			return nil, false
		}
		fragIdx = 0
	}
	st := &descState{
		db:   strings.ToLower(n.Table.Fragments[fragIdx].DB),
		home: n.Table.Fragments[fragIdx].Location,
	}
	table := strings.ToLower(n.Table.Name)
	st.cols = make([]colLineage, len(n.Cols))
	for i, c := range n.Cols {
		st.cols[i] = colLineage{{attr: Attr{Table: table, Name: strings.ToLower(c.Name)}}}
	}
	return st, true
}

// analyzeIndexScan describes an IndexScan exactly as the Filter(Scan)
// it implements: same base attributes, same conjuncts (the index bounds
// are conjuncts of the residual predicate, so they add nothing), hence
// the same descriptor digest and the same AR4 destinations.
func (a *Analyzer) analyzeIndexScan(n *plan.Node) (*descState, bool) {
	st, ok := analyzeScan(n)
	if !ok {
		return nil, false
	}
	if n.Pred == nil {
		return st, true
	}
	canon, ok := canonicalize(n.Pred, n, st)
	if !ok {
		return nil, false
	}
	out := &descState{db: st.db, home: st.home, cols: st.cols, groupBy: st.groupBy, aggregated: st.aggregated}
	out.conjuncts = append(append([]expr.Expr{}, st.conjuncts...), expr.Conjuncts(canon)...)
	return out, true
}

func (a *Analyzer) analyzeFilter(n *plan.Node) (*descState, bool) {
	st, ok := a.analyze(n.Children[0])
	if !ok {
		return nil, false
	}
	canon, ok := canonicalize(n.Pred, n.Children[0], st)
	if !ok {
		return nil, false
	}
	// Child states are cached and shared: never mutate them.
	out := &descState{db: st.db, home: st.home, cols: st.cols, groupBy: st.groupBy, aggregated: st.aggregated}
	out.conjuncts = append(append([]expr.Expr{}, st.conjuncts...), expr.Conjuncts(canon)...)
	return out, true
}

func (a *Analyzer) analyzeProject(n *plan.Node) (*descState, bool) {
	child, ok := a.analyze(n.Children[0])
	if !ok {
		return nil, false
	}
	out := &descState{db: child.db, home: child.home, conjuncts: child.conjuncts, groupBy: child.groupBy, aggregated: child.aggregated}
	out.cols = make([]colLineage, len(n.Projs))
	for i, p := range n.Projs {
		lin, ok := exprLineage(p.E, n.Children[0], child)
		if !ok {
			return nil, false
		}
		out.cols[i] = lin
	}
	return out, true
}

func (a *Analyzer) analyzeJoin(n *plan.Node) (*descState, bool) {
	l, ok := a.analyze(n.Children[0])
	if !ok {
		return nil, false
	}
	r, ok := a.analyze(n.Children[1])
	if !ok {
		return nil, false
	}
	if l.db != r.db {
		return nil, false
	}
	home := l.home
	if r.home != home {
		home = ""
	}
	st := &descState{
		db:         l.db,
		home:       home,
		cols:       append(append([]colLineage{}, l.cols...), r.cols...),
		conjuncts:  append(append([]expr.Expr{}, l.conjuncts...), r.conjuncts...),
		groupBy:    append(append([]Attr{}, l.groupBy...), r.groupBy...),
		aggregated: l.aggregated || r.aggregated,
	}
	if n.Pred != nil {
		// Canonicalize the join condition against the combined schema.
		canon, ok := canonicalize(n.Pred, n, st)
		if !ok {
			return nil, false
		}
		st.conjuncts = append(st.conjuncts, expr.Conjuncts(canon)...)
	}
	return st, true
}

func (a *Analyzer) analyzeAggregate(n *plan.Node) (*descState, bool) {
	child, ok := a.analyze(n.Children[0])
	if !ok {
		return nil, false
	}
	st := &descState{db: child.db, home: child.home, conjuncts: child.conjuncts, aggregated: true}
	// Group-by columns: must be raw base attributes; they become both
	// output columns and G_q entries.
	for _, g := range n.GroupBy {
		lin, ok := colLineageOf(g, n.Children[0], child)
		if !ok || !lin.allRaw() {
			return nil, false
		}
		st.cols = append(st.cols, lin)
		for _, t := range lin {
			st.groupBy = append(st.groupBy, t.attr)
		}
	}
	// Aggregates: every referenced base attribute is exposed through the
	// aggregate function.
	for _, a := range n.Aggs {
		if a.Arg == nil {
			// COUNT(*) exposes no attributes.
			st.cols = append(st.cols, colLineage{})
			continue
		}
		lin, ok := exprLineage(a.Arg, n.Children[0], child)
		if !ok {
			return nil, false
		}
		var out colLineage
		for _, t := range lin {
			nt, ok := composeAgg(t, a.Fn)
			if !ok {
				return nil, false
			}
			out = append(out, nt)
		}
		st.cols = append(st.cols, out)
	}
	// Re-grouping retains any grouping from below (partial aggregation
	// keeps its group keys raw, which is what matters for G_q ⊆ G_e).
	return st, true
}

// composeAgg layers an aggregate over a (possibly already aggregated)
// term. A raw term takes the function directly. Re-aggregation is allowed
// for decomposable functions: SUM∘SUM, MIN∘MIN, MAX∘MAX, and SUM∘COUNT
// (which is COUNT).
func composeAgg(t term, fn expr.AggFn) (term, bool) {
	if !t.hasAgg {
		t.fn = fn
		t.hasAgg = true
		return t, true
	}
	switch {
	case t.fn == fn && (fn == expr.AggSum || fn == expr.AggMin || fn == expr.AggMax):
		return t, true
	case t.fn == expr.AggCount && fn == expr.AggSum:
		return t, true
	}
	return term{}, false
}

func (a *Analyzer) analyzeUnion(n *plan.Node) (*descState, bool) {
	var st *descState
	for _, c := range n.Children {
		cs, ok := a.analyze(c)
		if !ok {
			return nil, false
		}
		if st == nil {
			// Copy the first child's state: cached states are shared and
			// must not be mutated.
			st = &descState{
				db:         cs.db,
				home:       cs.home,
				conjuncts:  append([]expr.Expr{}, cs.conjuncts...),
				groupBy:    cs.groupBy,
				aggregated: cs.aggregated,
			}
			st.cols = make([]colLineage, len(cs.cols))
			for i, col := range cs.cols {
				st.cols[i] = append(colLineage{}, col...)
			}
			continue
		}
		if cs.db != st.db {
			return nil, false
		}
		if cs.home != st.home {
			st.home = ""
		}
		// The union of fragments exposes the union of lineages; the
		// predicate must hold on both branches, so keep only conjuncts
		// appearing in every branch.
		st.conjuncts = intersectConjuncts(st.conjuncts, cs.conjuncts)
		for i := range st.cols {
			st.cols[i] = append(st.cols[i], cs.cols[i]...)
		}
		st.aggregated = st.aggregated || cs.aggregated
	}
	return st, st != nil
}

func intersectConjuncts(a, b []expr.Expr) []expr.Expr {
	var out []expr.Expr
	for _, x := range a {
		for _, y := range b {
			if x.Equal(y) {
				out = append(out, x)
				break
			}
		}
	}
	return out
}

// colLineageOf resolves a column reference against a child node's
// analyzed lineage.
func colLineageOf(c *expr.Col, child *plan.Node, st *descState) (colLineage, bool) {
	idx := child.ColIndex(c)
	if idx < 0 || idx >= len(st.cols) {
		return nil, false
	}
	return st.cols[idx], true
}

// exprLineage computes the union of base attributes referenced by an
// expression over the child's output.
func exprLineage(e expr.Expr, child *plan.Node, st *descState) (colLineage, bool) {
	var out colLineage
	ok := true
	expr.Walk(e, func(n expr.Expr) bool {
		if c, isCol := n.(*expr.Col); isCol {
			lin, found := colLineageOf(c, child, st)
			if !found {
				ok = false
				return false
			}
			out = append(out, lin...)
		}
		return ok
	})
	return out, ok
}

// canonicalize rewrites a predicate so every column becomes its base
// attribute (table-qualified lowercase). It fails when the predicate
// references aggregated or multi-attribute computed columns, which the
// descriptor cannot express soundly.
func canonicalize(p expr.Expr, scope *plan.Node, st *descState) (expr.Expr, bool) {
	if p == nil {
		return nil, true
	}
	okAll := true
	out := expr.Transform(p, func(n expr.Expr) expr.Expr {
		c, isCol := n.(*expr.Col)
		if !isCol || !okAll {
			return n
		}
		lin, found := colLineageOf(c, scope, st)
		if !found || len(lin) != 1 || lin[0].hasAgg {
			okAll = false
			return n
		}
		return &expr.Col{Table: lin[0].attr.Table, Name: lin[0].attr.Name, Index: -1}
	})
	if !okAll {
		return nil, false
	}
	return out, true
}
