package expr

import (
	"fmt"
	"strings"
)

// Expr is a scalar expression tree node. Expressions are immutable once
// built; rewrites (such as column binding) return new trees.
type Expr interface {
	// String renders the expression in SQL-ish syntax.
	String() string
	// Children returns the direct scalar sub-expressions.
	Children() []Expr
	// Equal reports structural equality.
	Equal(Expr) bool
}

// CmpOp enumerates comparison operators.
type CmpOp int

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return "?"
}

// Negate returns the complement operator (e.g. < becomes >=).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	case GE:
		return LT
	}
	return op
}

// Flip returns the operator with sides exchanged (a < b  ==  b > a).
func (op CmpOp) Flip() CmpOp {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	}
	return op
}

// ArithOp enumerates arithmetic operators.
type ArithOp int

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

// String returns the SQL spelling of the operator.
func (op ArithOp) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	}
	return "?"
}

// AggFn enumerates aggregate functions.
type AggFn int

// Aggregate functions supported by the engine and by aggregate policy
// expressions (Section 4.2).
const (
	AggSum AggFn = iota
	AggAvg
	AggCount
	AggMin
	AggMax
)

// String returns the SQL spelling of the aggregate function.
func (f AggFn) String() string {
	switch f {
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggCount:
		return "COUNT"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	}
	return "?"
}

// ParseAggFn resolves an aggregate function name (case-insensitive).
func ParseAggFn(name string) (AggFn, error) {
	switch strings.ToUpper(name) {
	case "SUM":
		return AggSum, nil
	case "AVG":
		return AggAvg, nil
	case "COUNT":
		return AggCount, nil
	case "MIN":
		return AggMin, nil
	case "MAX":
		return AggMax, nil
	}
	return 0, fmt.Errorf("expr: unknown aggregate function %q", name)
}

// Col is a column reference. Table holds the (possibly aliased) qualifier
// and Name the column name. Index is the position of the column in the
// input row; it is -1 until the expression is bound to a schema.
type Col struct {
	Table string
	Name  string
	Index int
}

// NewCol returns an unbound column reference.
func NewCol(table, name string) *Col { return &Col{Table: table, Name: name, Index: -1} }

// String renders the qualified column name.
func (c *Col) String() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// Children returns no children; columns are leaves.
func (c *Col) Children() []Expr { return nil }

// Equal reports structural equality. Binding indexes are ignored so that a
// bound and an unbound reference to the same column compare equal.
func (c *Col) Equal(o Expr) bool {
	oc, ok := o.(*Col)
	return ok && oc.Table == c.Table && oc.Name == c.Name
}

// Key returns the qualified name used for schema resolution.
func (c *Col) Key() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// Const is a literal value.
type Const struct{ Val Value }

// NewConst wraps a value as a literal expression.
func NewConst(v Value) *Const { return &Const{Val: v} }

// String renders the literal.
func (c *Const) String() string { return c.Val.String() }

// Children returns no children; literals are leaves.
func (c *Const) Children() []Expr { return nil }

// Equal reports structural equality.
func (c *Const) Equal(o Expr) bool {
	oc, ok := o.(*Const)
	return ok && oc.Val.Equal(c.Val)
}

// Cmp is a binary comparison L op R.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// NewCmp builds a comparison node.
func NewCmp(op CmpOp, l, r Expr) *Cmp { return &Cmp{Op: op, L: l, R: r} }

// String renders the comparison.
func (c *Cmp) String() string { return c.L.String() + " " + c.Op.String() + " " + c.R.String() }

// Children returns both operands.
func (c *Cmp) Children() []Expr { return []Expr{c.L, c.R} }

// Equal reports structural equality (no commutative normalization).
func (c *Cmp) Equal(o Expr) bool {
	oc, ok := o.(*Cmp)
	return ok && oc.Op == c.Op && oc.L.Equal(c.L) && oc.R.Equal(c.R)
}

// And is a binary conjunction.
type And struct{ L, R Expr }

// NewAnd builds a conjunction node.
func NewAnd(l, r Expr) *And { return &And{L: l, R: r} }

// String renders the conjunction.
func (a *And) String() string { return "(" + a.L.String() + " AND " + a.R.String() + ")" }

// Children returns both conjuncts.
func (a *And) Children() []Expr { return []Expr{a.L, a.R} }

// Equal reports structural equality.
func (a *And) Equal(o Expr) bool {
	oa, ok := o.(*And)
	return ok && oa.L.Equal(a.L) && oa.R.Equal(a.R)
}

// Or is a binary disjunction.
type Or struct{ L, R Expr }

// NewOr builds a disjunction node.
func NewOr(l, r Expr) *Or { return &Or{L: l, R: r} }

// String renders the disjunction.
func (a *Or) String() string { return fmt.Sprintf("(%s OR %s)", a.L, a.R) }

// Children returns both disjuncts.
func (a *Or) Children() []Expr { return []Expr{a.L, a.R} }

// Equal reports structural equality.
func (a *Or) Equal(o Expr) bool {
	oa, ok := o.(*Or)
	return ok && oa.L.Equal(a.L) && oa.R.Equal(a.R)
}

// Not is a logical negation.
type Not struct{ E Expr }

// NewNot builds a negation node.
func NewNot(e Expr) *Not { return &Not{E: e} }

// String renders the negation.
func (n *Not) String() string { return fmt.Sprintf("NOT (%s)", n.E) }

// Children returns the negated expression.
func (n *Not) Children() []Expr { return []Expr{n.E} }

// Equal reports structural equality.
func (n *Not) Equal(o Expr) bool {
	on, ok := o.(*Not)
	return ok && on.E.Equal(n.E)
}

// Arith is a binary arithmetic expression L op R.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// NewArith builds an arithmetic node.
func NewArith(op ArithOp, l, r Expr) *Arith { return &Arith{Op: op, L: l, R: r} }

// String renders the arithmetic expression.
func (a *Arith) String() string { return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R) }

// Children returns both operands.
func (a *Arith) Children() []Expr { return []Expr{a.L, a.R} }

// Equal reports structural equality.
func (a *Arith) Equal(o Expr) bool {
	oa, ok := o.(*Arith)
	return ok && oa.Op == a.Op && oa.L.Equal(a.L) && oa.R.Equal(a.R)
}

// Concat is string concatenation L || R. Both operands must evaluate
// to strings; a NULL operand yields a NULL result.
type Concat struct{ L, R Expr }

// NewConcat builds a concatenation node.
func NewConcat(l, r Expr) *Concat { return &Concat{L: l, R: r} }

// String renders the concatenation.
func (c *Concat) String() string { return fmt.Sprintf("(%s || %s)", c.L, c.R) }

// Children returns both operands.
func (c *Concat) Children() []Expr { return []Expr{c.L, c.R} }

// Equal reports structural equality.
func (c *Concat) Equal(o Expr) bool {
	oc, ok := o.(*Concat)
	return ok && oc.L.Equal(c.L) && oc.R.Equal(c.R)
}

// Like is a SQL LIKE predicate with % and _ wildcards (no escapes).
type Like struct {
	E       Expr
	Pattern string
	Negated bool
}

// NewLike builds a LIKE predicate.
func NewLike(e Expr, pattern string) *Like { return &Like{E: e, Pattern: pattern} }

// String renders the predicate.
func (l *Like) String() string {
	op := "LIKE"
	if l.Negated {
		op = "NOT LIKE"
	}
	return fmt.Sprintf("%s %s '%s'", l.E, op, l.Pattern)
}

// Children returns the matched expression.
func (l *Like) Children() []Expr { return []Expr{l.E} }

// Equal reports structural equality.
func (l *Like) Equal(o Expr) bool {
	ol, ok := o.(*Like)
	return ok && ol.Pattern == l.Pattern && ol.Negated == l.Negated && ol.E.Equal(l.E)
}

// In is a SQL IN (value list) predicate.
type In struct {
	E       Expr
	List    []Value
	Negated bool
}

// NewIn builds an IN predicate.
func NewIn(e Expr, list []Value) *In { return &In{E: e, List: list} }

// String renders the predicate.
func (i *In) String() string {
	parts := make([]string, len(i.List))
	for k, v := range i.List {
		parts[k] = v.String()
	}
	op := "IN"
	if i.Negated {
		op = "NOT IN"
	}
	return fmt.Sprintf("%s %s (%s)", i.E, op, strings.Join(parts, ", "))
}

// Children returns the tested expression.
func (i *In) Children() []Expr { return []Expr{i.E} }

// Equal reports structural equality.
func (i *In) Equal(o Expr) bool {
	oi, ok := o.(*In)
	if !ok || oi.Negated != i.Negated || len(oi.List) != len(i.List) || !oi.E.Equal(i.E) {
		return false
	}
	for k := range i.List {
		if !oi.List[k].Equal(i.List[k]) {
			return false
		}
	}
	return true
}

// Between is a SQL BETWEEN predicate (inclusive bounds).
type Between struct {
	E      Expr
	Lo, Hi Value
}

// NewBetween builds a BETWEEN predicate.
func NewBetween(e Expr, lo, hi Value) *Between { return &Between{E: e, Lo: lo, Hi: hi} }

// String renders the predicate.
func (b *Between) String() string {
	return fmt.Sprintf("%s BETWEEN %s AND %s", b.E, b.Lo, b.Hi)
}

// Children returns the tested expression.
func (b *Between) Children() []Expr { return []Expr{b.E} }

// Equal reports structural equality.
func (b *Between) Equal(o Expr) bool {
	ob, ok := o.(*Between)
	return ok && ob.Lo.Equal(b.Lo) && ob.Hi.Equal(b.Hi) && ob.E.Equal(b.E)
}

// IsNull is a SQL IS [NOT] NULL predicate.
type IsNull struct {
	E       Expr
	Negated bool
}

// NewIsNull builds an IS NULL predicate.
func NewIsNull(e Expr) *IsNull { return &IsNull{E: e} }

// String renders the predicate.
func (n *IsNull) String() string {
	if n.Negated {
		return fmt.Sprintf("%s IS NOT NULL", n.E)
	}
	return fmt.Sprintf("%s IS NULL", n.E)
}

// Children returns the tested expression.
func (n *IsNull) Children() []Expr { return []Expr{n.E} }

// Equal reports structural equality.
func (n *IsNull) Equal(o Expr) bool {
	on, ok := o.(*IsNull)
	return ok && on.Negated == n.Negated && on.E.Equal(n.E)
}

// Agg is an aggregate call such as SUM(extendedprice * (1 - discount)).
// Agg nodes appear only in aggregate operator definitions and in the
// output lists of aggregating queries, never below a comparison.
type Agg struct {
	Fn  AggFn
	Arg Expr // nil for COUNT(*)
}

// NewAgg builds an aggregate call.
func NewAgg(fn AggFn, arg Expr) *Agg { return &Agg{Fn: fn, Arg: arg} }

// String renders the aggregate call.
func (a *Agg) String() string {
	if a.Arg == nil {
		return a.Fn.String() + "(*)"
	}
	return fmt.Sprintf("%s(%s)", a.Fn, a.Arg)
}

// Children returns the aggregated expression, if any.
func (a *Agg) Children() []Expr {
	if a.Arg == nil {
		return nil
	}
	return []Expr{a.Arg}
}

// Equal reports structural equality.
func (a *Agg) Equal(o Expr) bool {
	oa, ok := o.(*Agg)
	if !ok || oa.Fn != a.Fn {
		return false
	}
	if (a.Arg == nil) != (oa.Arg == nil) {
		return false
	}
	return a.Arg == nil || oa.Arg.Equal(a.Arg)
}

// AndAll folds a slice of predicates into a conjunction; nil for empty.
func AndAll(preds ...Expr) Expr {
	var out Expr
	for _, p := range preds {
		if p == nil {
			continue
		}
		if out == nil {
			out = p
		} else {
			out = NewAnd(out, p)
		}
	}
	return out
}

// Conjuncts flattens nested ANDs into a conjunct list. A nil expression
// yields no conjuncts (i.e. TRUE).
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if a, ok := e.(*And); ok {
		return append(Conjuncts(a.L), Conjuncts(a.R)...)
	}
	return []Expr{e}
}

// Disjuncts flattens nested ORs into a disjunct list.
func Disjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if o, ok := e.(*Or); ok {
		return append(Disjuncts(o.L), Disjuncts(o.R)...)
	}
	return []Expr{e}
}

// Walk calls fn for every node in the expression tree (pre-order). fn
// returning false prunes the subtree.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	for _, c := range e.Children() {
		Walk(c, fn)
	}
}

// Columns returns the distinct column references in the expression, in
// first-appearance order.
func Columns(e Expr) []*Col {
	var out []*Col
	seen := map[string]bool{}
	Walk(e, func(n Expr) bool {
		if c, ok := n.(*Col); ok && !seen[c.Key()] {
			seen[c.Key()] = true
			out = append(out, c)
		}
		return true
	})
	return out
}

// ContainsAgg reports whether the expression contains an aggregate call.
func ContainsAgg(e Expr) bool {
	found := false
	Walk(e, func(n Expr) bool {
		if _, ok := n.(*Agg); ok {
			found = true
			return false
		}
		return !found
	})
	return found
}

// Transform rebuilds the expression bottom-up, applying fn to every node.
// fn receives a node whose children have already been transformed and
// returns its replacement.
func Transform(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch n := e.(type) {
	case *Col:
		cp := *n
		return fn(&cp)
	case *Const:
		cp := *n
		return fn(&cp)
	case *Cmp:
		return fn(&Cmp{Op: n.Op, L: Transform(n.L, fn), R: Transform(n.R, fn)})
	case *And:
		return fn(&And{L: Transform(n.L, fn), R: Transform(n.R, fn)})
	case *Or:
		return fn(&Or{L: Transform(n.L, fn), R: Transform(n.R, fn)})
	case *Not:
		return fn(&Not{E: Transform(n.E, fn)})
	case *Arith:
		return fn(&Arith{Op: n.Op, L: Transform(n.L, fn), R: Transform(n.R, fn)})
	case *Concat:
		return fn(&Concat{L: Transform(n.L, fn), R: Transform(n.R, fn)})
	case *Like:
		return fn(&Like{E: Transform(n.E, fn), Pattern: n.Pattern, Negated: n.Negated})
	case *In:
		return fn(&In{E: Transform(n.E, fn), List: n.List, Negated: n.Negated})
	case *Between:
		return fn(&Between{E: Transform(n.E, fn), Lo: n.Lo, Hi: n.Hi})
	case *IsNull:
		return fn(&IsNull{E: Transform(n.E, fn), Negated: n.Negated})
	case *Agg:
		return fn(&Agg{Fn: n.Fn, Arg: Transform(n.Arg, fn)})
	case *Call:
		return fn(&Call{Fn: n.Fn, Arg: Transform(n.Arg, fn)})
	case *Case:
		whens := make([]When, len(n.Whens))
		for i, w := range n.Whens {
			whens[i] = When{Cond: Transform(w.Cond, fn), Result: Transform(w.Result, fn)}
		}
		var els Expr
		if n.Else != nil {
			els = Transform(n.Else, fn)
		}
		return fn(&Case{Whens: whens, Else: els, T: n.T})
	}
	return fn(e)
}

// Clone deep-copies the expression tree.
func Clone(e Expr) Expr { return Transform(e, func(n Expr) Expr { return n }) }
