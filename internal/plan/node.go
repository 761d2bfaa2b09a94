// Package plan defines the query plan representation shared by the
// optimizer, the policy evaluator and the executor: a single Node type
// covering logical and physical operators, output-schema computation,
// site sets for execution/shipping traits, and plan printing.
package plan

import (
	"fmt"
	"strings"

	"cgdqp/internal/expr"
	"cgdqp/internal/schema"
)

// Kind identifies a plan operator. Logical kinds are produced by the
// query planner; physical kinds by the optimizer's implementation rules;
// Ship operators are introduced by the site selector (phase 2).
type Kind int

// Plan operator kinds.
const (
	// Logical operators.
	Scan Kind = iota
	Filter
	Project
	Join
	Aggregate
	Union
	Sort
	Limit
	// Physical operators.
	TableScan
	FilterExec
	ProjectExec
	HashJoin
	NLJoin
	HashAgg
	SortExec
	LimitExec
	UnionAll
	Ship
	// MergeJoin is retired: no rule emits it and the executor rejects it.
	// The constant keeps its slot because the fenced benchmark module
	// spells it in a case list.
	MergeJoin
	// IndexScan is a physical access path: a B+ tree range scan on an
	// indexed column (IdxCol, bounds IdxLo/IdxHi) with the full original
	// predicate re-applied as a residual — it is Filter(Scan) with the
	// index pre-filtering the rows.
	IndexScan
	// IndexLookupJoin probes the inner table's B+ tree with each outer
	// row's key instead of building a hash table; its second child is the
	// inner TableScan it replaces.
	IndexLookupJoin
)

// String returns the operator name.
func (k Kind) String() string {
	switch k {
	case Scan:
		return "Scan"
	case Filter:
		return "Filter"
	case Project:
		return "Project"
	case Join:
		return "Join"
	case Aggregate:
		return "Aggregate"
	case Union:
		return "Union"
	case Sort:
		return "Sort"
	case Limit:
		return "Limit"
	case TableScan:
		return "TableScan"
	case FilterExec:
		return "FilterExec"
	case ProjectExec:
		return "ProjectExec"
	case HashJoin:
		return "HashJoin"
	case NLJoin:
		return "NLJoin"
	case HashAgg:
		return "HashAgg"
	case SortExec:
		return "SortExec"
	case LimitExec:
		return "LimitExec"
	case UnionAll:
		return "UnionAll"
	case Ship:
		return "Ship"
	case MergeJoin:
		return "MergeJoin"
	case IndexScan:
		return "IndexScan"
	case IndexLookupJoin:
		return "IndexLookupJoin"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Physical reports whether the kind is a physical operator.
func (k Kind) Physical() bool { return k >= TableScan }

// ColRef describes one output column of an operator: its qualifier
// (table alias, empty for computed columns), name, and type.
type ColRef struct {
	Table string
	Name  string
	Type  expr.Type
}

// Key returns the qualified column key.
func (c ColRef) Key() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// Col converts the reference into an expression node.
func (c ColRef) Col() *expr.Col { return expr.NewCol(c.Table, c.Name) }

// NamedExpr is a projection item: an expression with an output name.
type NamedExpr struct {
	E    expr.Expr
	Name string
	Type expr.Type
}

// NamedAgg is an aggregate item of an Aggregate operator.
type NamedAgg struct {
	Fn   expr.AggFn
	Arg  expr.Expr // nil for COUNT(*)
	Name string
	Type expr.Type
}

// String renders the aggregate item.
func (a NamedAgg) String() string {
	if a.Arg == nil {
		return fmt.Sprintf("%s(*) AS %s", a.Fn, a.Name)
	}
	return fmt.Sprintf("%s(%s) AS %s", a.Fn, a.Arg, a.Name)
}

// SortKey is one ORDER BY key.
type SortKey struct {
	E    expr.Expr
	Desc bool
}

// String renders the key.
func (k SortKey) String() string {
	if k.Desc {
		return k.E.String() + " DESC"
	}
	return k.E.String()
}

// Node is a plan operator. A single struct covers every operator kind;
// the fields used depend on Kind. Nodes built by the memo may share
// subtrees across alternatives, so treat extracted plans as immutable
// until cloned (the site selector clones before assigning locations).
type Node struct {
	Kind     Kind
	Children []*Node
	Cols     []ColRef

	// Operator parameters.
	Table    *schema.Table // Scan/TableScan
	Alias    string        // Scan/TableScan
	FragIdx  int           // fragment index; -1 = whole table
	Pred     expr.Expr     // Filter/FilterExec predicate or Join condition
	Projs    []NamedExpr   // Project/ProjectExec
	GroupBy  []*expr.Col   // Aggregate/HashAgg
	Aggs     []NamedAgg    // Aggregate/HashAgg
	SortKeys []SortKey     // Sort/SortExec
	LimitN   int64         // Limit/LimitExec
	FromLoc  string        // Ship
	ToLoc    string        // Ship

	// Index access-path parameters (IndexScan / IndexLookupJoin).
	IdxCol   string      // indexed column (unqualified) on the accessed table
	IdxLo    *expr.Value // IndexScan lower bound; nil = unbounded
	IdxHi    *expr.Value // IndexScan upper bound; nil = unbounded
	IdxLoInc bool        // lower bound inclusive
	IdxHiInc bool        // upper bound inclusive
	IdxOuter *expr.Col   // IndexLookupJoin outer-side key probed into the index

	// Estimates and annotations.
	Card  float64 // estimated output cardinality
	Cost  float64 // accumulated phase-1 cost of the subtree
	Exec  SiteSet // execution trait ℰ (annotated plans)
	ShipT SiteSet // shipping trait 𝒮 (annotated plans)
	Loc   string  // final execution site (set by the site selector)
}

// NewScan builds a scan of a table fragment. fragIdx -1 scans the whole
// (single-fragment) table; otherwise it scans Fragments[fragIdx].
func NewScan(t *schema.Table, alias string, fragIdx int) *Node {
	if alias == "" {
		alias = t.Name
	}
	cols := make([]ColRef, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = ColRef{Table: alias, Name: c.Name, Type: c.Type}
	}
	return &Node{Kind: Scan, Table: t, Alias: alias, FragIdx: fragIdx, Cols: cols}
}

// NewFilter builds a selection.
func NewFilter(child *Node, pred expr.Expr) *Node {
	return &Node{Kind: Filter, Children: []*Node{child}, Cols: child.Cols, Pred: pred}
}

// NewProject builds a projection. Output types are inferred from the
// child schema.
func NewProject(child *Node, projs []NamedExpr) *Node {
	cols := make([]ColRef, len(projs))
	for i := range projs {
		if projs[i].Type == expr.TNull {
			projs[i].Type = InferType(projs[i].E, child.Cols)
		}
		// A bare column reference keeps its qualifier so that policy
		// evaluation and upstream predicates can still resolve it.
		if c, ok := projs[i].E.(*expr.Col); ok && (projs[i].Name == "" || strings.EqualFold(projs[i].Name, c.Name)) {
			cols[i] = ColRef{Table: c.Table, Name: c.Name, Type: projs[i].Type}
			if projs[i].Name == "" {
				projs[i].Name = c.Name
			}
		} else {
			cols[i] = ColRef{Name: projs[i].Name, Type: projs[i].Type}
		}
	}
	return &Node{Kind: Project, Children: []*Node{child}, Cols: cols, Projs: projs}
}

// NewJoin builds an inner join with the given condition (nil = cross).
func NewJoin(l, r *Node, cond expr.Expr) *Node {
	cols := make([]ColRef, 0, len(l.Cols)+len(r.Cols))
	cols = append(cols, l.Cols...)
	cols = append(cols, r.Cols...)
	return &Node{Kind: Join, Children: []*Node{l, r}, Cols: cols, Pred: cond}
}

// NewAggregate builds a grouping aggregation. Output schema is the
// group-by columns followed by the aggregates.
func NewAggregate(child *Node, groupBy []*expr.Col, aggs []NamedAgg) *Node {
	cols := make([]ColRef, 0, len(groupBy)+len(aggs))
	for _, g := range groupBy {
		cols = append(cols, ColRef{Table: g.Table, Name: g.Name, Type: InferType(g, child.Cols)})
	}
	for i := range aggs {
		if aggs[i].Type == expr.TNull {
			aggs[i].Type = InferType(&expr.Agg{Fn: aggs[i].Fn, Arg: aggs[i].Arg}, child.Cols)
		}
		cols = append(cols, ColRef{Name: aggs[i].Name, Type: aggs[i].Type})
	}
	return &Node{Kind: Aggregate, Children: []*Node{child}, Cols: cols, GroupBy: groupBy, Aggs: aggs}
}

// NewRename wraps a subplan so its output columns are re-qualified under
// a new alias; used for derived tables (FROM (SELECT ...) AS x).
func NewRename(child *Node, alias string) *Node {
	projs := make([]NamedExpr, len(child.Cols))
	cols := make([]ColRef, len(child.Cols))
	for i, c := range child.Cols {
		projs[i] = NamedExpr{E: c.Col(), Name: c.Name, Type: c.Type}
		cols[i] = ColRef{Table: alias, Name: c.Name, Type: c.Type}
	}
	return &Node{Kind: Project, Children: []*Node{child}, Cols: cols, Projs: projs}
}

// NewUnion builds a UNION ALL over children with identical schemas.
func NewUnion(children ...*Node) *Node {
	return &Node{Kind: Union, Children: children, Cols: children[0].Cols}
}

// NewSort builds an ORDER BY.
func NewSort(child *Node, keys []SortKey) *Node {
	return &Node{Kind: Sort, Children: []*Node{child}, Cols: child.Cols, SortKeys: keys}
}

// NewLimit builds a LIMIT.
func NewLimit(child *Node, n int64) *Node {
	return &Node{Kind: Limit, Children: []*Node{child}, Cols: child.Cols, LimitN: n}
}

// NewShip builds a SHIP operator moving the child's output from one
// location to another. Its Loc is the destination.
func NewShip(child *Node, from, to string) *Node {
	return &Node{Kind: Ship, Children: []*Node{child}, Cols: child.Cols,
		FromLoc: from, ToLoc: to, Loc: to, Card: child.Card}
}

// InferType infers an expression's type against an operator schema.
func InferType(e expr.Expr, cols []ColRef) expr.Type {
	return expr.TypeOf(e, func(c *expr.Col) expr.Type {
		for _, cr := range cols {
			if matchCol(c, cr) {
				return cr.Type
			}
		}
		return expr.TNull
	})
}

func matchCol(c *expr.Col, cr ColRef) bool {
	if !strings.EqualFold(c.Name, cr.Name) {
		return false
	}
	return c.Table == "" || strings.EqualFold(c.Table, cr.Table)
}

// Resolver returns an expr.Resolver over the node's output schema.
func (n *Node) Resolver() expr.Resolver {
	keys := make([]string, len(n.Cols))
	for i, c := range n.Cols {
		keys[i] = c.Key()
	}
	return expr.SliceResolver(keys)
}

// ColIndex finds the index of a column reference in the node's output
// schema, or -1.
func (n *Node) ColIndex(c *expr.Col) int {
	idx := -1
	for i, cr := range n.Cols {
		if matchCol(c, cr) {
			if c.Table == "" && idx >= 0 {
				return -1 // ambiguous
			}
			idx = i
			if c.Table != "" {
				return i
			}
		}
	}
	return idx
}

// Clone deep-copies the plan tree (expressions are shared; they are
// immutable by convention, and annotations/locations are per-node).
func (n *Node) Clone() *Node {
	cp := *n
	cp.Children = make([]*Node, len(n.Children))
	for i, c := range n.Children {
		cp.Children[i] = c.Clone()
	}
	cp.Cols = append([]ColRef(nil), n.Cols...)
	cp.Projs = append([]NamedExpr(nil), n.Projs...)
	cp.GroupBy = append([]*expr.Col(nil), n.GroupBy...)
	cp.Aggs = append([]NamedAgg(nil), n.Aggs...)
	cp.SortKeys = append([]SortKey(nil), n.SortKeys...)
	return &cp
}

// Walk visits the tree pre-order; fn returning false prunes the subtree.
func (n *Node) Walk(fn func(*Node) bool) {
	if n == nil || !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Tables returns the distinct base tables referenced in the subtree, in
// first-appearance (left-to-right) order of their aliases.
func (n *Node) Tables() []*Node {
	var scans []*Node
	n.Walk(func(x *Node) bool {
		if x.Kind == Scan || x.Kind == TableScan || x.Kind == IndexScan {
			scans = append(scans, x)
		}
		return true
	})
	return scans
}

// OpString renders the operator (without children) for plan printing.
func (n *Node) OpString() string {
	switch n.Kind {
	case Scan, TableScan:
		s := fmt.Sprintf("%s(%s", n.Kind, n.Table.Name)
		if !strings.EqualFold(n.Alias, n.Table.Name) {
			s += " AS " + n.Alias
		}
		if n.FragIdx >= 0 && n.Table.Fragmented() {
			s += fmt.Sprintf(" frag %d@%s", n.FragIdx, n.Table.Fragments[n.FragIdx].Location)
		}
		return s + ")"
	case Filter, FilterExec:
		return fmt.Sprintf("%s[%s]", n.Kind, n.Pred)
	case Project, ProjectExec:
		parts := make([]string, len(n.Projs))
		for i, p := range n.Projs {
			if c, ok := p.E.(*expr.Col); ok && strings.EqualFold(c.Name, p.Name) {
				parts[i] = p.E.String()
			} else {
				parts[i] = fmt.Sprintf("%s AS %s", p.E, p.Name)
			}
		}
		return fmt.Sprintf("%s[%s]", n.Kind, strings.Join(parts, ", "))
	case Join, HashJoin, NLJoin:
		if n.Pred == nil {
			return fmt.Sprintf("%s[cross]", n.Kind)
		}
		return fmt.Sprintf("%s[%s]", n.Kind, n.Pred)
	case Aggregate, HashAgg:
		var gb []string
		for _, g := range n.GroupBy {
			gb = append(gb, g.String())
		}
		var ag []string
		for _, a := range n.Aggs {
			ag = append(ag, a.String())
		}
		return fmt.Sprintf("%s[group by (%s); %s]", n.Kind, strings.Join(gb, ", "), strings.Join(ag, ", "))
	case Sort, SortExec:
		parts := make([]string, len(n.SortKeys))
		for i, k := range n.SortKeys {
			parts[i] = k.String()
		}
		return fmt.Sprintf("%s[%s]", n.Kind, strings.Join(parts, ", "))
	case Limit, LimitExec:
		return fmt.Sprintf("%s[%d]", n.Kind, n.LimitN)
	case Ship:
		return fmt.Sprintf("Ship[%s -> %s]", n.FromLoc, n.ToLoc)
	case Union, UnionAll:
		return n.Kind.String()
	case IndexScan:
		s := fmt.Sprintf("IndexScan(%s", n.Table.Name)
		if !strings.EqualFold(n.Alias, n.Table.Name) {
			s += " AS " + n.Alias
		}
		if n.FragIdx >= 0 && n.Table.Fragmented() {
			s += fmt.Sprintf(" frag %d@%s", n.FragIdx, n.Table.Fragments[n.FragIdx].Location)
		}
		s += " ON " + n.IdxCol + " " + n.idxRange() + ")"
		if n.Pred != nil {
			s += fmt.Sprintf("[%s]", n.Pred)
		}
		return s
	case IndexLookupJoin:
		inner := ""
		if len(n.Children) == 2 {
			inner = n.Children[1].Alias + "."
		}
		return fmt.Sprintf("IndexLookupJoin[%s; probe %s%s]", n.Pred, inner, n.IdxCol)
	}
	return n.Kind.String()
}

// idxRange renders the index bounds of an IndexScan.
func (n *Node) idxRange() string {
	lo, hi := "-inf", "+inf"
	lb, hb := "(", ")"
	if n.IdxLo != nil {
		lo = n.IdxLo.String()
		if n.IdxLoInc {
			lb = "["
		}
	}
	if n.IdxHi != nil {
		hi = n.IdxHi.String()
		if n.IdxHiInc {
			hb = "]"
		}
	}
	return lb + lo + ".." + hi + hb
}

// Format pretty-prints the plan tree with one operator per line. Set
// annotations to include traits, locations and cardinalities.
func (n *Node) Format(annotations bool) string {
	var b strings.Builder
	n.format(&b, 0, annotations)
	return b.String()
}

func (n *Node) format(b *strings.Builder, depth int, ann bool) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.OpString())
	if ann {
		var tags []string
		if n.Loc != "" {
			tags = append(tags, "@"+n.Loc)
		}
		if !n.Exec.Empty() {
			tags = append(tags, "exec="+n.Exec.String())
		}
		if !n.ShipT.Empty() {
			tags = append(tags, "ship="+n.ShipT.String())
		}
		if n.Card > 0 {
			tags = append(tags, fmt.Sprintf("rows=%.0f", n.Card))
		}
		if len(tags) > 0 {
			b.WriteString("  [" + strings.Join(tags, " ") + "]")
		}
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		c.format(b, depth+1, ann)
	}
}

// String renders the plan without annotations.
func (n *Node) String() string { return n.Format(false) }

// RowWidth estimates the width in bytes of one output row.
func (n *Node) RowWidth() float64 {
	var w float64
	for _, c := range n.Cols {
		switch c.Type {
		case expr.TString:
			w += 16
		case expr.TBool:
			w++
		default:
			w += 8
		}
	}
	// Scans know real column widths from the catalog.
	if (n.Kind == Scan || n.Kind == TableScan || n.Kind == IndexScan) && n.Table != nil {
		return float64(n.Table.RowWidth())
	}
	return w
}

// Digest returns a canonical string identifying the operator together
// with child digests; used for memoization and deduplication.
func (n *Node) Digest() string {
	var b strings.Builder
	n.digest(&b)
	return b.String()
}

func (n *Node) digest(b *strings.Builder) {
	b.WriteString(n.OpDigest())
	b.WriteByte('(')
	for i, c := range n.Children {
		if i > 0 {
			b.WriteByte(',')
		}
		c.digest(b)
	}
	b.WriteByte(')')
}

// OpDigest returns a canonical string for the operator parameters only
// (no children).
func (n *Node) OpDigest() string {
	switch n.Kind {
	case Scan, TableScan:
		return fmt.Sprintf("%s:%s:%s:%d", n.Kind, n.Table.Name, n.Alias, n.FragIdx)
	case Filter, FilterExec, Join, HashJoin, NLJoin:
		p := ""
		if n.Pred != nil {
			p = n.Pred.String()
		}
		return fmt.Sprintf("%s:%s", n.Kind, p)
	case Project, ProjectExec:
		parts := make([]string, len(n.Projs))
		for i, pr := range n.Projs {
			parts[i] = pr.E.String() + ">" + pr.Name
		}
		return fmt.Sprintf("%s:%s", n.Kind, strings.Join(parts, "|"))
	case Aggregate, HashAgg:
		var parts []string
		for _, g := range n.GroupBy {
			parts = append(parts, g.String())
		}
		for _, a := range n.Aggs {
			parts = append(parts, a.String())
		}
		return fmt.Sprintf("%s:%s", n.Kind, strings.Join(parts, "|"))
	case Sort, SortExec:
		parts := make([]string, len(n.SortKeys))
		for i, k := range n.SortKeys {
			parts[i] = k.String()
		}
		return fmt.Sprintf("%s:%s", n.Kind, strings.Join(parts, "|"))
	case Limit, LimitExec:
		return fmt.Sprintf("%s:%d", n.Kind, n.LimitN)
	case Ship:
		return fmt.Sprintf("Ship:%s>%s", n.FromLoc, n.ToLoc)
	case IndexScan:
		p := ""
		if n.Pred != nil {
			p = n.Pred.String()
		}
		return fmt.Sprintf("IndexScan:%s:%s:%d:%s%s:%s", n.Table.Name, n.Alias, n.FragIdx, n.IdxCol, n.idxRange(), p)
	case IndexLookupJoin:
		p := ""
		if n.Pred != nil {
			p = n.Pred.String()
		}
		return fmt.Sprintf("IndexLookupJoin:%s:probe=%s<=%s", p, n.IdxCol, n.IdxOuter)
	}
	return n.Kind.String()
}
