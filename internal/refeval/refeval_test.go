package refeval

import (
	"math"
	"testing"

	"cgdqp/internal/expr"
)

// TestCompareOwnsTheDoubleDomain: the reference orders values by its
// own definition — NULL first, −0 equal to 0, INT against DOUBLE as
// reals, DATE against INT as integers — and a NaN, which no DOUBLE
// holds, is an error rather than a place in the order.
func TestCompareOwnsTheDoubleDomain(t *testing.T) {
	negZero := expr.NewFloat(math.Copysign(0, -1))
	for _, c := range []struct {
		a, b expr.Value
		want int
	}{
		{expr.NullValue(), expr.TypedNull(expr.TFloat), 0},
		{expr.NullValue(), expr.NewFloat(math.Inf(-1)), -1},
		{negZero, expr.NewFloat(0), 0},
		{negZero, expr.NewInt(0), 0},
		{expr.NewInt(2), expr.NewFloat(1.5), 1},
		{expr.NewFloat(math.Inf(1)), expr.NewFloat(math.MaxFloat64), 1},
		{expr.NewDate(3), expr.NewInt(4), -1},
		{expr.NewBool(false), expr.NewBool(true), -1},
		{expr.NewString("b"), expr.NewString("ab"), 1},
	} {
		if got, err := compare(c.a, c.b); err != nil || got != c.want {
			t.Errorf("compare(%v, %v) = %d, %v; want %d", c.a, c.b, got, err, c.want)
		}
	}
	if _, err := compare(expr.NewFloat(math.NaN()), expr.NewFloat(1)); err == nil {
		t.Error("a NaN compared without an error")
	}
	if _, err := fold(expr.AggMax, []expr.Value{expr.NewFloat(1), expr.NewFloat(math.NaN())}); err == nil {
		t.Error("MAX over a NaN folded without an error")
	}
	inf := []expr.Value{expr.NewFloat(math.Inf(1)), expr.NewFloat(math.Inf(-1))}
	for _, fn := range []expr.AggFn{expr.AggSum, expr.AggAvg} {
		if v, err := fold(fn, inf); err == nil {
			t.Errorf("%v(+Inf, -Inf) = %v, want an error", fn, v)
		}
	}
}
