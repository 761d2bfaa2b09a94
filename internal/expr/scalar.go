package expr

import (
	"fmt"
	"strings"
)

// ScalarFn enumerates built-in scalar functions.
type ScalarFn int

// Built-in scalar functions.
const (
	FnYear ScalarFn = iota
	FnMonth
	FnDay
	FnAbs
)

// String returns the SQL spelling of the function.
func (f ScalarFn) String() string {
	switch f {
	case FnYear:
		return "YEAR"
	case FnMonth:
		return "MONTH"
	case FnDay:
		return "DAY"
	case FnAbs:
		return "ABS"
	}
	return "?"
}

// ParseScalarFn resolves a scalar function name (case-insensitive); ok is
// false for unknown names.
func ParseScalarFn(name string) (ScalarFn, bool) {
	switch strings.ToUpper(name) {
	case "YEAR":
		return FnYear, true
	case "MONTH":
		return FnMonth, true
	case "DAY":
		return FnDay, true
	case "ABS":
		return FnAbs, true
	}
	return 0, false
}

// Call is a scalar function application.
type Call struct {
	Fn  ScalarFn
	Arg Expr
}

// NewCall builds a scalar function call.
func NewCall(fn ScalarFn, arg Expr) *Call { return &Call{Fn: fn, Arg: arg} }

// String renders the call.
func (c *Call) String() string { return fmt.Sprintf("%s(%s)", c.Fn, c.Arg) }

// Children returns the argument.
func (c *Call) Children() []Expr { return []Expr{c.Arg} }

// Equal reports structural equality.
func (c *Call) Equal(o Expr) bool {
	oc, ok := o.(*Call)
	return ok && oc.Fn == c.Fn && oc.Arg.Equal(c.Arg)
}

// When is one branch of a CASE expression.
type When struct {
	Cond   Expr
	Result Expr
}

// Case is a searched CASE expression:
//
//	CASE WHEN cond THEN result [WHEN ... THEN ...] [ELSE result] END
type Case struct {
	Whens []When
	Else  Expr // nil = NULL
	// T is the results' common type, which every value the CASE picks
	// is coerced to; CheckCases sets it at bind.
	T Type
}

// NewCase builds a CASE expression.
func NewCase(whens []When, els Expr) *Case { return &Case{Whens: whens, Else: els} }

// String renders the CASE.
func (c *Case) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.Cond, w.Result)
	}
	if c.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", c.Else)
	}
	b.WriteString(" END")
	return b.String()
}

// Children returns every condition and result (and the ELSE).
func (c *Case) Children() []Expr {
	out := make([]Expr, 0, len(c.Whens)*2+1)
	for _, w := range c.Whens {
		out = append(out, w.Cond, w.Result)
	}
	if c.Else != nil {
		out = append(out, c.Else)
	}
	return out
}

// Equal reports structural equality.
func (c *Case) Equal(o Expr) bool {
	oc, ok := o.(*Case)
	if !ok || len(oc.Whens) != len(c.Whens) {
		return false
	}
	for i := range c.Whens {
		if !oc.Whens[i].Cond.Equal(c.Whens[i].Cond) || !oc.Whens[i].Result.Equal(c.Whens[i].Result) {
			return false
		}
	}
	if (c.Else == nil) != (oc.Else == nil) {
		return false
	}
	return c.Else == nil || oc.Else.Equal(c.Else)
}

// evalCall evaluates a scalar function call.
func evalCall(n *Call, row Row) (Value, error) {
	v, err := Eval(n.Arg, row)
	if err != nil {
		return NullValue(), err
	}
	if v.IsNull() {
		return TypedNull(TInt), nil
	}
	switch n.Fn {
	case FnYear, FnMonth, FnDay:
		if v.T != TDate {
			return NullValue(), fmt.Errorf("expr: %s requires a DATE argument, got %s", n.Fn, v.T)
		}
		t := epoch.AddDate(0, 0, int(v.Int()))
		switch n.Fn {
		case FnYear:
			return NewInt(int64(t.Year())), nil
		case FnMonth:
			return NewInt(int64(t.Month())), nil
		default:
			return NewInt(int64(t.Day())), nil
		}
	case FnAbs:
		if !v.T.Numeric() {
			return NullValue(), fmt.Errorf("expr: ABS requires a numeric argument, got %s", v.T)
		}
		if v.T == TFloat {
			f := v.Float()
			if f < 0 {
				f = -f
			}
			return NewFloat(f), nil
		}
		i := v.Int()
		if i < 0 {
			i = -i
		}
		return NewInt(i), nil
	}
	return NullValue(), fmt.Errorf("expr: unknown scalar function %v", n.Fn)
}

// evalCase evaluates a CASE expression: the first WHEN whose condition is
// TRUE wins; otherwise ELSE (or NULL). The value is coerced to the
// CASE's type: a number to DOUBLE, a NULL to that type's NULL.
func evalCase(n *Case, row Row) (Value, error) {
	res := n.Else
	for _, w := range n.Whens {
		ok, err := EvalBool(w.Cond, row)
		if err != nil {
			return NullValue(), err
		}
		if ok {
			res = w.Result
			break
		}
	}
	v := TypedNull(n.T)
	if res != nil {
		var err error
		if v, err = Eval(res, row); err != nil {
			return NullValue(), err
		}
	}
	switch {
	case v.IsNull():
		return TypedNull(n.T), nil
	case n.T == TFloat && v.T != TFloat && v.T.Numeric():
		return NewFloat(v.Float()), nil
	}
	return v, nil
}
