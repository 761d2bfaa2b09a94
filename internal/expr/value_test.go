package expr

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v := NewInt(42); v.T != TInt || v.Int() != 42 || v.IsNull() {
		t.Errorf("NewInt: got %+v", v)
	}
	if v := NewFloat(2.5); v.T != TFloat || v.Float() != 2.5 {
		t.Errorf("NewFloat: got %+v", v)
	}
	if v := NewString("hi"); v.T != TString || v.Str() != "hi" {
		t.Errorf("NewString: got %+v", v)
	}
	if v := NewBool(true); !v.Bool() {
		t.Errorf("NewBool(true): got %+v", v)
	}
	if v := NewBool(false); v.Bool() {
		t.Errorf("NewBool(false): got %+v", v)
	}
	if v := NullValue(); !v.IsNull() {
		t.Errorf("NullValue not null: %+v", v)
	}
	if v := TypedNull(TInt); !v.IsNull() || v.T != TInt {
		t.Errorf("TypedNull: got %+v", v)
	}
}

func TestParseDate(t *testing.T) {
	v, err := ParseDate("1970-01-01")
	if err != nil || v.Int() != 0 {
		t.Fatalf("epoch: %v %v", v, err)
	}
	v, err = ParseDate("1970-01-02")
	if err != nil || v.Int() != 1 {
		t.Fatalf("epoch+1: %v %v", v, err)
	}
	v, err = ParseDate("1995-03-15")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got := v.String(); got != "DATE '1995-03-15'" {
		t.Errorf("round-trip: got %s", got)
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Error("expected error for invalid date")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewInt(2), -1},
		{NewInt(2), NewFloat(1.5), 1},
		{NewFloat(2), NewInt(2), 0},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewBool(false), NewBool(true), -1},
		{NewDate(10), NewDate(20), -1},
		{NewDate(10), NewInt(10), 0},
	}
	for _, c := range cases {
		got, err := c.a.Compare(c.b)
		if err != nil {
			t.Errorf("Compare(%v,%v): %v", c.a, c.b, err)
			continue
		}
		if got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCompareErrors(t *testing.T) {
	if _, err := NewInt(1).Compare(NewString("x")); err == nil {
		t.Error("int vs string should be incomparable")
	}
	if _, err := NullValue().Compare(NewInt(1)); err == nil {
		t.Error("NULL comparison should error")
	}
	if _, err := NewBool(true).Compare(NewInt(1)); err == nil {
		t.Error("bool vs int should be incomparable")
	}
}

func TestValueEqual(t *testing.T) {
	if !NullValue().Equal(TypedNull(TString)) {
		t.Error("NULL should structurally equal NULL")
	}
	if NullValue().Equal(NewInt(0)) {
		t.Error("NULL != 0")
	}
	if !NewInt(5).Equal(NewFloat(5)) {
		t.Error("5 == 5.0 across numeric types")
	}
	if NewString("a").Equal(NewInt(1)) {
		t.Error("string != int")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewInt(7), "7"},
		{NewFloat(2.5), "2.5"},
		{NewString("abc"), "'abc'"},
		{NewBool(true), "TRUE"},
		{NewBool(false), "FALSE"},
		{NullValue(), "NULL"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestValueWidth(t *testing.T) {
	if NewInt(1).Width() != 8 {
		t.Error("int width")
	}
	if NewString("abcd").Width() != 8 {
		t.Error("string width = len+4")
	}
	if NewBool(true).Width() != 1 {
		t.Error("bool width")
	}
}

// Property: Compare is antisymmetric over ints.
func TestCompareAntisymmetricProperty(t *testing.T) {
	f := func(a, b int64) bool {
		x, err1 := NewInt(a).Compare(NewInt(b))
		y, err2 := NewInt(b).Compare(NewInt(a))
		return err1 == nil && err2 == nil && x == -y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: hashes of equal numerics across int/float agree.
func TestHashNumericCoherenceProperty(t *testing.T) {
	f := func(a int32) bool {
		return NewInt(int64(a)).Hash() == NewFloat(float64(a)).Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Double maps a float onto the DOUBLE domain: NaN has no DOUBLE, −0
// becomes the 0 that hashes like INT 0, and every other float, ±Inf
// included, stays as it is.
func TestDouble(t *testing.T) {
	if _, ok := Double(math.NaN()); ok {
		t.Error("NaN is a DOUBLE")
	}
	d, ok := Double(math.Copysign(0, -1))
	if !ok || math.Signbit(d) || NewFloat(d).Hash() != NewInt(0).Hash() {
		t.Errorf("-0 maps to %v (%v), hashing as %x", d, ok, NewFloat(d).Hash())
	}
	for _, f := range []float64{0, 1.5, -2.25, math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.SmallestNonzeroFloat64} {
		if d, ok := Double(f); !ok || math.Float64bits(d) != math.Float64bits(f) {
			t.Errorf("%v maps to %v (%v)", f, d, ok)
		}
	}
}

// Property: equal values hash equally for strings.
func TestHashStringProperty(t *testing.T) {
	f := func(s string) bool {
		return NewString(s).Hash() == NewString(s).Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashDistinguishes(t *testing.T) {
	// Not a strict requirement, but these common values should not collide.
	vals := []Value{NewInt(0), NewInt(1), NewString(""), NewString("a"), NullValue(), NewBool(true)}
	seen := map[uint64]Value{}
	for _, v := range vals {
		if prev, ok := seen[v.Hash()]; ok && !prev.Equal(v) {
			t.Errorf("hash collision between %v and %v", prev, v)
		}
		seen[v.Hash()] = v
	}
}

func TestFloatCoercion(t *testing.T) {
	if NewDate(3).Float() != 3 {
		t.Error("date float coercion")
	}
	if NewBool(true).Float() != 1 {
		t.Error("bool float coercion")
	}
	if !math.IsNaN(NewFloat(math.NaN()).Float()) == false && false {
		t.Error("unreachable")
	}
}
