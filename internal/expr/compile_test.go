package expr

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// batchOf builds the columns-only batch of rows under the declared
// types, the form every executor batch takes: a value outside its
// column's type has no place in a vector and is loaded as NULL, and
// each column's NULLs carry one type tag (its first NULL's). The
// batch's row view is then what the interpreter sees.
func batchOf(rows []Row, types []Type) *Batch {
	b := &Batch{}
	b.StartCols(len(types), len(rows))
	for c, t := range types {
		v := b.OwnCol(c)
		v.Reset(t, 0)
		for _, r := range rows {
			if !v.Append(r[c]) {
				v.Append(NullValue())
			}
		}
	}
	return b
}

// valuesIdentical compares values structurally, with floats compared by
// bit pattern so NaN payloads and signed zeros must coincide too.
func valuesIdentical(a, b Value) bool {
	return a.T == b.T && a.Null == b.Null && a.I == b.I && a.S == b.S &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

var parityStrings = []string{"", "a", "abc", "bcd", "aabc", "zzz", "abcabc", "BRASS", "xbry"}

var parityPatterns = []string{"abc", "%b%", "a%", "%c", "%", "a_c", "_b_", "", "%ab%c%", "%BRASS", "ab%"}

func genValue(rng *rand.Rand, t Type) Value {
	if rng.Intn(10) == 0 {
		if rng.Intn(2) == 0 {
			return NullValue()
		}
		return TypedNull(t)
	}
	switch t {
	case TInt:
		return NewInt(int64(rng.Intn(20) - 10))
	case TFloat:
		switch rng.Intn(12) {
		case 0:
			return NewFloat(0)
		case 1:
			return NewFloat(math.Copysign(0, -1))
		case 2:
			return NewFloat(math.NaN())
		case 3:
			return NewFloat(math.Inf(1))
		default:
			return NewFloat(float64(rng.Intn(200)-100) / 4)
		}
	case TString:
		return NewString(parityStrings[rng.Intn(len(parityStrings))])
	case TBool:
		return NewBool(rng.Intn(2) == 0)
	case TDate:
		return NewDate(int64(rng.Intn(100000) - 50000))
	}
	return NullValue()
}

func genRows(rng *rand.Rand, types []Type, n int, impure bool) []Row {
	rows := make([]Row, n)
	for i := range rows {
		r := make(Row, len(types))
		for j, t := range types {
			if impure && rng.Intn(40) == 0 {
				// Break lane purity with a value of a different type.
				other := Type(1 + rng.Intn(5))
				r[j] = genValue(rng, other)
			} else {
				r[j] = genValue(rng, t)
			}
		}
		rows[i] = r
	}
	return rows
}

// exprGen builds random bound expressions over a column schema.
type exprGen struct {
	rng   *rand.Rand
	types []Type
}

func (g *exprGen) col() Expr {
	i := g.rng.Intn(len(g.types))
	return &Col{Table: "t", Name: fmt.Sprintf("c%d", i), Index: i}
}

func (g *exprGen) leaf() Expr {
	if g.rng.Intn(2) == 0 {
		return g.col()
	}
	t := Type(1 + g.rng.Intn(5))
	return NewConst(genValue(g.rng, t))
}

func (g *exprGen) anyExpr(d int) Expr {
	if d <= 0 {
		return g.leaf()
	}
	switch g.rng.Intn(10) {
	case 0, 1:
		return NewArith(ArithOp(g.rng.Intn(4)), g.anyExpr(d-1), g.anyExpr(d-1))
	case 2:
		return NewCall(ScalarFn(g.rng.Intn(4)), g.anyExpr(d-1))
	case 3:
		whens := []When{{Cond: g.boolExpr(d - 1), Result: g.anyExpr(d - 1)}}
		var els Expr
		if g.rng.Intn(2) == 0 {
			els = g.anyExpr(d - 1)
		}
		return NewCase(whens, els)
	case 4, 5, 6:
		return g.boolExpr(d)
	case 7:
		return NewConcat(g.anyExpr(d-1), g.anyExpr(d-1))
	}
	return g.leaf()
}

func (g *exprGen) boolExpr(d int) Expr {
	if d <= 0 {
		return NewCmp(EQ, g.leaf(), g.leaf())
	}
	switch g.rng.Intn(9) {
	case 0, 1:
		return NewCmp(CmpOp(g.rng.Intn(6)), g.anyExpr(d-1), g.anyExpr(d-1))
	case 2:
		return NewAnd(g.boolExpr(d-1), g.boolExpr(d-1))
	case 3:
		return NewOr(g.boolExpr(d-1), g.boolExpr(d-1))
	case 4:
		return NewNot(g.boolExpr(d - 1))
	case 5:
		l := &Like{E: g.anyExpr(d - 1), Pattern: parityPatterns[g.rng.Intn(len(parityPatterns))],
			Negated: g.rng.Intn(2) == 0}
		return l
	case 6:
		list := make([]Value, g.rng.Intn(4))
		for i := range list {
			list[i] = genValue(g.rng, Type(1+g.rng.Intn(5)))
		}
		return &In{E: g.anyExpr(d - 1), List: list, Negated: g.rng.Intn(2) == 0}
	case 7:
		t := Type(1 + g.rng.Intn(5))
		return NewBetween(g.anyExpr(d-1), genValue(g.rng, t), genValue(g.rng, t))
	}
	return &IsNull{E: g.anyExpr(d - 1), Negated: g.rng.Intn(2) == 0}
}

// checkKernelParity generates a random schema, batch and expressions from
// the seed and requires kernel evaluation to agree with the interpreter
// on every value and every null bit.
func checkKernelParity(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nCols := 1 + rng.Intn(5)
	types := make([]Type, nCols)
	for i := range types {
		types[i] = Type(1 + rng.Intn(5))
	}
	n := rng.Intn(150)
	impure := rng.Intn(8) == 0
	src := batchOf(genRows(rng, types, n, impure), types)
	rows := src.Rows()
	g := &exprGen{rng: rng, types: types}
	colType := func(c *Col) Type { return types[c.Index] }

	for round := 0; round < 6; round++ {
		e := g.anyExpr(3)
		if CheckCases(e, colType) == nil {
			kern := Compile(e, types)
			vec, err := kern.EvalVec(src, nil)
			var iErr error
			want := make([]Value, len(rows))
			for i, r := range rows {
				v, verr := Eval(e, r)
				if verr != nil {
					iErr = verr
					break
				}
				want[i] = v
			}
			switch {
			case iErr != nil:
				if err == nil {
					t.Fatalf("seed %d: interpreter failed (%v) but kernel succeeded for %s", seed, iErr, e)
				}
			case err != nil:
				// Kernels evaluate eagerly, so they may surface an error the
				// interpreter's short-circuit evaluation skipped. Acceptable.
			default:
				for i := range rows {
					got := vec.Value(i)
					if !valuesIdentical(got, want[i]) {
						t.Fatalf("seed %d row %d: kernel %#v, interpreter %#v for %s",
							seed, i, got, want[i], e)
					}
					if gk, wk := vec.AppendKeyAt(nil, i), AppendKey(nil, want[i]); !bytes.Equal(gk, wk) {
						t.Fatalf("seed %d row %d: key encodings differ (%x vs %x) for %s",
							seed, i, gk, wk, e)
					}
				}
				checkArithDomain(t, seed, e, types, src)
			}
		}

		p := g.boolExpr(3)
		if CheckCases(p, colType) != nil {
			continue
		}
		pk := CompilePred(p, types)
		var want []int32
		interpOK := true
		for i, r := range rows {
			keep, verr := EvalBool(p, r)
			if verr != nil {
				interpOK = false
				break
			}
			if keep {
				want = append(want, int32(i))
			}
		}
		if !interpOK {
			continue
		}
		got, err := pk.Select(src, nil, make([]int32, len(rows)))
		if err != nil {
			// Kernels evaluate eagerly: an error the interpreter's
			// short-circuit skipped is acceptable.
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: Select kept %d rows, interpreter %d for %s", seed, len(got), len(want), p)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: Select row %d = %d, want %d for %s", seed, i, got[i], want[i], p)
			}
		}
		// Selection-vector input: filtering a subset must equal the
		// subset-filtered interpreter verdicts, compacted in place.
		if len(rows) > 1 {
			var sub []int32
			for i := range rows {
				if rng.Intn(2) == 0 {
					sub = append(sub, int32(i))
				}
			}
			var wantSub []int32
			for _, si := range sub {
				keep, verr := EvalBool(p, rows[si])
				if verr == nil && keep {
					wantSub = append(wantSub, si)
				}
			}
			// The copy must stay non-nil when the subset is empty: a
			// nil selection means "all rows", an empty one means none.
			subCopy := make([]int32, len(sub))
			copy(subCopy, sub)
			gotSub, err := pk.Select(src, subCopy, nil)
			if err != nil {
				continue
			}
			if len(gotSub) != len(wantSub) {
				t.Logf("sub=%v", sub)
				t.Logf("gotSub=%v", gotSub)
				t.Logf("wantSub=%v", wantSub)
				for _, si := range sub {
					v, verr := Eval(p, rows[si])
					t.Logf("row %d: %v (err %v) row=%v", si, v, verr, rows[si])
				}
				t.Fatalf("seed %d: subset Select kept %d rows, want %d for %s",
					seed, len(gotSub), len(wantSub), p)
			}
			for i := range gotSub {
				if gotSub[i] != wantSub[i] {
					t.Fatalf("seed %d: subset Select row %d = %d, want %d for %s",
						seed, i, gotSub[i], wantSub[i], p)
				}
			}
		}
	}
}

// TestKernelParityRandom runs the parity check over a fixed spread of
// seeds on every test run; FuzzKernelParity explores further.
func TestKernelParityRandom(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		checkKernelParity(t, seed)
	}
}

// checkArithDomain requires every arithmetic node of e to leave no NaN
// and no −0 in a float slot outside its NULLs, whatever NaN, ±Inf or −0
// its inputs hold: a DOUBLE is neither (Double).
func checkArithDomain(t *testing.T, seed int64, e Expr, types []Type, src *Batch) {
	t.Helper()
	Walk(e, func(x Expr) bool {
		a, ok := x.(*Arith)
		if !ok {
			return true
		}
		vec, err := Compile(a, types).EvalVec(src, nil)
		if err != nil || vec.T != TFloat {
			return true
		}
		for i, f := range vec.F[:vec.N] {
			if !vec.IsNullAt(i) && (math.IsNaN(f) || f == 0 && math.Signbit(f)) {
				t.Fatalf("seed %d row %d: %s yields %v", seed, i, a, f)
			}
		}
		return true
	})
}

// FuzzKernelParity is the satellite fuzz target: kernel and interpreter
// must agree (value and null-ness) on randomized expressions & batches,
// and arithmetic stays in the DOUBLE domain.
func FuzzKernelParity(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkKernelParity(t, seed)
	})
}

// TestKernelKleeneLogic pins the three-valued logic tables through the
// kernel path: NULL AND FALSE = FALSE, NULL OR TRUE = TRUE, etc.
func TestKernelKleeneLogic(t *testing.T) {
	types := []Type{TBool, TBool}
	rows := []Row{
		{NewBool(true), NewBool(true)},
		{NewBool(true), NewBool(false)},
		{NewBool(true), TypedNull(TBool)},
		{NewBool(false), NewBool(false)},
		{NewBool(false), TypedNull(TBool)},
		{TypedNull(TBool), TypedNull(TBool)},
	}
	a := &Col{Name: "a", Index: 0}
	b := &Col{Name: "b", Index: 1}
	for _, e := range []Expr{NewAnd(a, b), NewOr(a, b), NewNot(a)} {
		vec, err := Compile(e, types).EvalVec(batchOf(rows, types), nil)
		if err != nil {
			t.Fatalf("EvalVec(%s): %v", e, err)
		}
		for i, r := range rows {
			want, err := Eval(e, r)
			if err != nil {
				t.Fatal(err)
			}
			if got := vec.Value(i); !valuesIdentical(got, want) {
				t.Fatalf("%s row %d: kernel %#v, interpreter %#v", e, i, got, want)
			}
		}
	}
}

// TestKernelFallbackImpureBatch checks that a column holding values
// outside its declared type fails a kernel with ErrLane instead of
// producing wrong results, and that a batch bound to types its
// columns do not hold refuses, unless the column is all NULL.
func TestKernelFallbackImpureBatch(t *testing.T) {
	e := NewCmp(GT, &Col{Name: "c0", Index: 0}, NewConst(NewInt(1)))
	src := batchOf([]Row{{NewString("a")}, {NewString("oops")}}, []Type{TString})
	if _, err := Compile(e, []Type{TInt}).EvalVec(src, nil); !errors.Is(err, ErrLane) {
		t.Fatalf("EvalVec error = %v, want ErrLane", err)
	}
	if err := src.Bind([]Type{TInt}); !errors.Is(err, ErrLane) {
		t.Fatalf("Bind error = %v, want ErrLane", err)
	}
	nulls := batchOf([]Row{{TypedNull(TFloat)}, {NullValue()}}, []Type{TFloat})
	if err := nulls.Bind([]Type{TInt}); err != nil {
		t.Fatal(err)
	}
	vec, err := Compile(e, []Type{TInt}).EvalVec(nulls, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := vec.Value(1); !valuesIdentical(got, TypedNull(TBool)) || nulls.RowValue(1, 0) != TypedNull(TFloat) {
		t.Fatalf("all-NULL column: %#v, row value %#v", got, nulls.RowValue(1, 0))
	}
}

// TestTypeOfStatesEvalType: every non-NULL value the interpreter
// produces for a generated expression has the type TypeOf states,
// which is the lane its kernel writes.
func TestTypeOfStatesEvalType(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		types := make([]Type, 1+rng.Intn(5))
		for i := range types {
			types[i] = Type(1 + rng.Intn(5))
		}
		rows := batchOf(genRows(rng, types, rng.Intn(150), false), types).Rows()
		g := &exprGen{rng: rng, types: types}
		colType := func(c *Col) Type { return types[c.Index] }
		for round := 0; round < 6; round++ {
			e := g.anyExpr(3)
			if CheckCases(e, colType) != nil {
				continue
			}
			want := TypeOf(e, colType)
			for _, r := range rows {
				if v, err := Eval(e, r); err == nil && !v.IsNull() && v.T != want {
					t.Fatalf("seed %d: %s yields %s, TypeOf states %s", seed, e, v.T, want)
				}
			}
		}
	}
}

// TestKernelDivisionByZero pins x/0 -> NULL through the kernel.
func TestKernelDivisionByZero(t *testing.T) {
	types := []Type{TFloat, TFloat}
	rows := []Row{{NewFloat(4), NewFloat(2)}, {NewFloat(4), NewFloat(0)}, {NewFloat(4), NewFloat(math.Copysign(0, -1))}}
	e := NewArith(Div, &Col{Name: "a", Index: 0}, &Col{Name: "b", Index: 1})
	vec, err := Compile(e, types).EvalVec(batchOf(rows, types), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := vec.Value(0); !valuesIdentical(got, NewFloat(2)) {
		t.Fatalf("4/2 = %#v", got)
	}
	for i := 1; i < 3; i++ {
		if got := vec.Value(i); !valuesIdentical(got, TypedNull(TFloat)) {
			t.Fatalf("4/0 row %d = %#v, want NULL::float", i, got)
		}
	}
}

// TestFallbackAllocatesPerSelectedRow: an interpreter node reads the
// columns its expression names of the rows its selection names, nothing
// more — a CASE over 3 selected rows of a 1024-row, 8-column batch,
// evaluated on a batch refilled each time as a pooled one is, allocates
// far less than one value per row and column of the batch.
func TestFallbackAllocatesPerSelectedRow(t *testing.T) {
	const rows, width = 1024, 8
	types := make([]Type, width)
	src := make([]Vec, width)
	for c := range types {
		types[c] = TInt
		src[c].Reset(TInt, rows)
		for i := range src[c].I {
			src[c].I[i] = int64(i * (c + 1))
		}
	}
	col := func(i int) *Col { return &Col{Table: "t", Name: fmt.Sprintf("c%d", i), Index: i} }
	e := &Case{Whens: []When{{Cond: NewCmp(GT, col(0), NewConst(NewInt(5))), Result: col(1)}},
		Else: col(7), T: TInt}
	k := Compile(e, types)
	if !isFallback(k.root) {
		t.Fatalf("CASE compiled to %T, not the interpreter node", k.root)
	}
	var b Batch
	sel := []int32{3, 500, 1023}
	eval := func() {
		b.StartCols(width, rows)
		for c := range src {
			b.OwnCol(c).CopyFrom(&src[c])
		}
		v, err := k.EvalVec(&b, sel)
		if err != nil || v.N != len(sel) || v.I[0] != 3*8 || v.I[1] != 500*2 || v.I[2] != 1023*2 {
			t.Fatalf("CASE over the selection: %+v, %v", v, err)
		}
	}
	eval()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		eval()
	}
	runtime.ReadMemStats(&after)
	perEval := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(len(sel) * width * int(unsafe.Sizeof(Value{}))); perEval > limit {
		t.Errorf("%d B allocated per evaluation of %d selected rows, want at most %d", perEval, len(sel), limit)
	}
}
