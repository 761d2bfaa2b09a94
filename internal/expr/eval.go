package expr

import (
	"errors"
	"fmt"
	"strings"
)

// Row is a tuple of scalar values produced by an operator.
type Row []Value

// Width returns the estimated encoded width of the row in bytes.
func (r Row) Width() int {
	w := 0
	for _, v := range r {
		w += v.Width()
	}
	return w
}

// Clone copies the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Resolver maps a column reference to an index in the input row. ok is
// false when the column cannot be resolved.
type Resolver func(table, name string) (int, bool)

// Bind returns a copy of e with every column reference's Index resolved
// through the resolver. It fails when any column cannot be resolved.
func Bind(e Expr, resolve Resolver) (Expr, error) {
	var bindErr error
	out := Transform(e, func(n Expr) Expr {
		if c, ok := n.(*Col); ok {
			idx, found := resolve(c.Table, c.Name)
			if !found {
				if bindErr == nil {
					bindErr = fmt.Errorf("expr: cannot resolve column %s", c.Key())
				}
				return c
			}
			c.Index = idx
			return c
		}
		return n
	})
	if bindErr != nil {
		return nil, bindErr
	}
	return out, nil
}

// MustBind binds e and panics on failure; for statically known schemas.
func MustBind(e Expr, resolve Resolver) Expr {
	b, err := Bind(e, resolve)
	if err != nil {
		panic(err)
	}
	return b
}

// SliceResolver builds a resolver over a slice of qualified column keys
// ("table.name" or bare "name"). A bare reference matches any qualifier
// when unambiguous.
func SliceResolver(keys []string) Resolver {
	exact := make(map[string]int, len(keys))
	byName := make(map[string][]int)
	for i, k := range keys {
		exact[strings.ToLower(k)] = i
		name := k
		if dot := strings.LastIndexByte(k, '.'); dot >= 0 {
			name = k[dot+1:]
		}
		byName[strings.ToLower(name)] = append(byName[strings.ToLower(name)], i)
	}
	return func(table, name string) (int, bool) {
		if table != "" {
			if i, ok := exact[strings.ToLower(table+"."+name)]; ok {
				return i, true
			}
			return 0, false
		}
		if i, ok := exact[strings.ToLower(name)]; ok {
			return i, true
		}
		if idxs := byName[strings.ToLower(name)]; len(idxs) == 1 {
			return idxs[0], true
		}
		return 0, false
	}
}

// Eval evaluates a bound expression against a row. Aggregate nodes cannot
// be evaluated directly; the executor materializes them first.
func Eval(e Expr, row Row) (Value, error) {
	switch n := e.(type) {
	case *Col:
		if n.Index < 0 || n.Index >= len(row) {
			return NullValue(), fmt.Errorf("expr: unbound column %s (index %d, row width %d)", n.Key(), n.Index, len(row))
		}
		return row[n.Index], nil
	case *Const:
		return n.Val, nil
	case *Cmp:
		return evalCmp(n, row)
	case *And:
		return evalAnd(n, row)
	case *Or:
		return evalOr(n, row)
	case *Not:
		v, err := Eval(n.E, row)
		if err != nil {
			return NullValue(), err
		}
		if v.IsNull() {
			return TypedNull(TBool), nil
		}
		return NewBool(!v.Bool()), nil
	case *Arith:
		return evalArith(n, row)
	case *Concat:
		return evalConcat(n, row)
	case *Like:
		v, err := Eval(n.E, row)
		if err != nil {
			return NullValue(), err
		}
		if v.IsNull() {
			return TypedNull(TBool), nil
		}
		m := MatchLike(v.Str(), n.Pattern)
		if n.Negated {
			m = !m
		}
		return NewBool(m), nil
	case *In:
		return evalIn(n, row)
	case *Between:
		v, err := Eval(n.E, row)
		if err != nil {
			return NullValue(), err
		}
		if v.IsNull() {
			return TypedNull(TBool), nil
		}
		lo, err := v.Compare(n.Lo)
		if err != nil {
			return NullValue(), err
		}
		hi, err := v.Compare(n.Hi)
		if err != nil {
			return NullValue(), err
		}
		return NewBool(lo >= 0 && hi <= 0), nil
	case *IsNull:
		v, err := Eval(n.E, row)
		if err != nil {
			return NullValue(), err
		}
		res := v.IsNull()
		if n.Negated {
			res = !res
		}
		return NewBool(res), nil
	case *Call:
		return evalCall(n, row)
	case *Case:
		return evalCase(n, row)
	case *Agg:
		return NullValue(), fmt.Errorf("expr: aggregate %s cannot be evaluated row-wise", n)
	}
	return NullValue(), fmt.Errorf("expr: unknown expression node %T", e)
}

// EvalBool evaluates a predicate; SQL three-valued logic collapses NULL to
// false (a WHERE clause keeps only rows for which the predicate is TRUE).
func EvalBool(e Expr, row Row) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := Eval(e, row)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && v.Bool(), nil
}

func evalCmp(n *Cmp, row Row) (Value, error) {
	l, err := Eval(n.L, row)
	if err != nil {
		return NullValue(), err
	}
	r, err := Eval(n.R, row)
	if err != nil {
		return NullValue(), err
	}
	if l.IsNull() || r.IsNull() {
		return TypedNull(TBool), nil
	}
	c, err := l.Compare(r)
	if err != nil {
		return NullValue(), err
	}
	switch n.Op {
	case EQ:
		return NewBool(c == 0), nil
	case NE:
		return NewBool(c != 0), nil
	case LT:
		return NewBool(c < 0), nil
	case LE:
		return NewBool(c <= 0), nil
	case GT:
		return NewBool(c > 0), nil
	case GE:
		return NewBool(c >= 0), nil
	}
	return NullValue(), fmt.Errorf("expr: unknown comparison %v", n.Op)
}

func evalAnd(n *And, row Row) (Value, error) {
	l, err := Eval(n.L, row)
	if err != nil {
		return NullValue(), err
	}
	if !l.IsNull() && !l.Bool() {
		return NewBool(false), nil
	}
	r, err := Eval(n.R, row)
	if err != nil {
		return NullValue(), err
	}
	if !r.IsNull() && !r.Bool() {
		return NewBool(false), nil
	}
	if l.IsNull() || r.IsNull() {
		return TypedNull(TBool), nil
	}
	return NewBool(true), nil
}

func evalOr(n *Or, row Row) (Value, error) {
	l, err := Eval(n.L, row)
	if err != nil {
		return NullValue(), err
	}
	if !l.IsNull() && l.Bool() {
		return NewBool(true), nil
	}
	r, err := Eval(n.R, row)
	if err != nil {
		return NullValue(), err
	}
	if !r.IsNull() && r.Bool() {
		return NewBool(true), nil
	}
	if l.IsNull() || r.IsNull() {
		return TypedNull(TBool), nil
	}
	return NewBool(false), nil
}

func evalArith(n *Arith, row Row) (Value, error) {
	l, err := Eval(n.L, row)
	if err != nil {
		return NullValue(), err
	}
	r, err := Eval(n.R, row)
	if err != nil {
		return NullValue(), err
	}
	if l.IsNull() || r.IsNull() {
		return TypedNull(TFloat), nil
	}
	if !l.T.Numeric() && l.T != TBool || !r.T.Numeric() && r.T != TBool {
		return NullValue(), fmt.Errorf("expr: arithmetic on non-numeric types %s, %s", l.T, r.T)
	}
	// Integer arithmetic stays integral except for division.
	if l.T == TInt && r.T == TInt && n.Op != Div {
		switch n.Op {
		case Add:
			return NewInt(l.I + r.I), nil
		case Sub:
			return NewInt(l.I - r.I), nil
		case Mul:
			return NewInt(l.I * r.I), nil
		}
	}
	a, b := l.Float(), r.Float()
	var f float64
	switch n.Op {
	case Add:
		f = a + b
	case Sub:
		f = a - b
	case Mul:
		f = a * b
	case Div:
		if b == 0 {
			return TypedNull(TFloat), nil
		}
		f = a / b
	default:
		return NullValue(), fmt.Errorf("expr: unknown arithmetic op %v", n.Op)
	}
	if d, ok := Double(f); ok {
		return NewFloat(d), nil
	}
	return TypedNull(TFloat), nil
}

func evalConcat(n *Concat, row Row) (Value, error) {
	l, err := Eval(n.L, row)
	if err != nil {
		return NullValue(), err
	}
	r, err := Eval(n.R, row)
	if err != nil {
		return NullValue(), err
	}
	if l.IsNull() || r.IsNull() {
		return TypedNull(TString), nil
	}
	if l.T != TString || r.T != TString {
		return NullValue(), fmt.Errorf("expr: concat on non-string types %s, %s", l.T, r.T)
	}
	return NewString(l.S + r.S), nil
}

func evalIn(n *In, row Row) (Value, error) {
	v, err := Eval(n.E, row)
	if err != nil {
		return NullValue(), err
	}
	if v.IsNull() {
		return TypedNull(TBool), nil
	}
	found := false
	for _, item := range n.List {
		if item.IsNull() {
			continue
		}
		if c, err := v.Compare(item); err == nil && c == 0 {
			found = true
			break
		}
	}
	if n.Negated {
		found = !found
	}
	return NewBool(found), nil
}

// MatchLike implements SQL LIKE semantics with % (any run) and _ (any
// single byte) wildcards and no escape character. Matching is
// case-sensitive, as in most SQL dialects.
func MatchLike(s, pattern string) bool {
	// Iterative two-pointer algorithm with backtracking on the last %.
	si, pi := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			mark = si
			pi++
		case star >= 0:
			pi = star + 1
			mark++
			si = mark
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// ErrLane reports a value outside the type its column or kernel was
// typed with.
var ErrLane = errors.New("expr: value outside its static type")

// ErrIncomparable marks a predicate that compares values of types
// Value.Compare cannot order against each other.
var ErrIncomparable = errors.New("expr: incomparable types")

// CheckComparisons type-checks every comparison, BETWEEN and IN item in
// e against the rule Value.Compare applies at run time, with column
// types from colType. The error wraps ErrIncomparable and names the
// first pair of operands Compare would refuse and both their types.
// Operands of unknown type (TNull: unresolved columns, NULL literals)
// pass.
func CheckComparisons(e Expr, colType func(*Col) Type) error {
	var err error
	check := func(l Expr, r fmt.Stringer, rt Type) {
		if lt := TypeOf(l, colType); err == nil && lt != TNull && rt != TNull && !comparable(lt, rt) {
			err = fmt.Errorf("%w: cannot compare %s (%s) with %s (%s)", ErrIncomparable, l, lt, r, rt)
		}
	}
	Walk(e, func(n Expr) bool {
		switch n := n.(type) {
		case *Cmp:
			check(n.L, n.R, TypeOf(n.R, colType))
		case *Between:
			check(n.E, &n.Lo, n.Lo.T)
			check(n.E, &n.Hi, n.Hi.T)
		case *In:
			for i := range n.List {
				check(n.E, &n.List[i], n.List[i].T)
			}
		}
		return err == nil
	})
	return err
}

// TypeOf is the type of e's non-NULL values, the type the interpreter
// produces at run time, given a column-type resolver; the kernels pick
// their lanes by it. Unresolvable columns and NULL literals yield TNull.
func TypeOf(e Expr, colType func(*Col) Type) Type {
	switch n := e.(type) {
	case *Col:
		if colType == nil {
			return TNull
		}
		return colType(n)
	case *Const:
		if n.Val.IsNull() {
			return TNull
		}
		return n.Val.T
	case *Cmp, *And, *Or, *Not, *Like, *In, *Between, *IsNull:
		return TBool
	case *Arith:
		// Integer arithmetic stays integral, except for division.
		if n.Op != Div && TypeOf(n.L, colType) == TInt && TypeOf(n.R, colType) == TInt {
			return TInt
		}
		return TFloat
	case *Concat:
		return TString
	case *Agg:
		switch n.Fn {
		case AggCount:
			return TInt
		case AggAvg:
			return TFloat
		case AggSum:
			switch TypeOf(n.Arg, colType) {
			case TInt, TDate, TBool:
				return TInt
			}
			return TFloat
		}
		return TypeOf(n.Arg, colType)
	case *Call:
		if n.Fn == FnAbs && TypeOf(n.Arg, colType) == TFloat {
			return TFloat
		}
		return TInt
	case *Case:
		t, _ := caseType(n, colType)
		return t
	}
	return TNull
}

// caseType is the common type of a CASE's results: their one type, or
// DOUBLE for INT or DATE results beside DOUBLE ones. TNull results
// (NULL literals, unknown columns) join any type. ok is false for
// every other mix.
func caseType(n *Case, colType func(*Col) Type) (t Type, ok bool) {
	results := make([]Expr, 0, len(n.Whens)+1)
	for _, w := range n.Whens {
		results = append(results, w.Result)
	}
	if n.Else != nil {
		results = append(results, n.Else)
	}
	ok = true
	for _, r := range results {
		switch rt := TypeOf(r, colType); {
		case rt == TNull || rt == t:
		case t == TNull:
			t = rt
		case t == TFloat && intClass(rt) || rt == TFloat && intClass(t):
			t = TFloat
		default:
			ok = false
		}
	}
	return t, ok
}

// CheckCases types every CASE in e with column types from colType,
// recording its common type for evalCase, and refuses a CASE whose
// results have none with an error wrapping ErrIncomparable.
func CheckCases(e Expr, colType func(*Col) Type) error {
	var err error
	Walk(e, func(x Expr) bool {
		if n, ok := x.(*Case); ok && err == nil {
			var fits bool
			if n.T, fits = caseType(n, colType); !fits {
				err = fmt.Errorf("%w: CASE results of types that have no common type: %s", ErrIncomparable, n)
			}
		}
		return err == nil
	})
	return err
}
