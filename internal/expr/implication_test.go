package expr

import (
	"math"
	"testing"
	"testing/quick"
)

func col(name string) *Col                   { return NewCol("T", name) }
func cint(v int64) *Const                    { return NewConst(NewInt(v)) }
func cstr(s string) *Const                   { return NewConst(NewString(s)) }
func colCmp(op CmpOp, c string, v Expr) *Cmp { return NewCmp(op, col(c), v) }

func TestImpliesBasics(t *testing.T) {
	bGT15 := colCmp(GT, "B", cint(15))
	bGT10 := colCmp(GT, "B", cint(10))

	// Nil policy predicate (TRUE) is implied by everything.
	if !Implies(bGT15, nil) {
		t.Error("anything ⇒ TRUE")
	}
	// Nil query predicate implies only TRUE.
	if Implies(nil, bGT10) {
		t.Error("TRUE ⇏ B > 10")
	}
	if !Implies(nil, NewConst(NewBool(true))) {
		t.Error("TRUE ⇒ TRUE")
	}
	// Structural match.
	if !Implies(bGT10, bGT10) {
		t.Error("p ⇒ p")
	}
	// Range subsumption: B > 15 ⇒ B > 10 (the paper's e3 example).
	if !Implies(bGT15, bGT10) {
		t.Error("B>15 ⇒ B>10")
	}
	// But not the converse.
	if Implies(bGT10, bGT15) {
		t.Error("B>10 ⇏ B>15")
	}
}

func TestImpliesRangeOperators(t *testing.T) {
	cases := []struct {
		q, e Expr
		want bool
	}{
		{colCmp(EQ, "A", cint(5)), colCmp(GE, "A", cint(5)), true},
		{colCmp(EQ, "A", cint(5)), colCmp(GT, "A", cint(4)), true},
		{colCmp(EQ, "A", cint(5)), colCmp(GT, "A", cint(5)), false},
		{colCmp(EQ, "A", cint(5)), colCmp(LE, "A", cint(5)), true},
		{colCmp(EQ, "A", cint(5)), colCmp(NE, "A", cint(6)), true},
		{colCmp(EQ, "A", cint(5)), colCmp(NE, "A", cint(5)), false},
		{colCmp(GE, "A", cint(5)), colCmp(GT, "A", cint(4)), true},
		{colCmp(GE, "A", cint(5)), colCmp(GE, "A", cint(5)), true},
		{colCmp(GT, "A", cint(5)), colCmp(GE, "A", cint(5)), true},
		{colCmp(GT, "A", cint(5)), colCmp(GT, "A", cint(5)), true},
		{colCmp(LT, "A", cint(5)), colCmp(LE, "A", cint(5)), true},
		{colCmp(LE, "A", cint(5)), colCmp(LT, "A", cint(5)), false},
		{colCmp(LT, "A", cint(5)), colCmp(NE, "A", cint(5)), true},
		{colCmp(GT, "A", cint(5)), colCmp(NE, "A", cint(5)), true},
		{colCmp(GT, "A", cint(4)), colCmp(NE, "A", cint(5)), false},
		// Interval from two conjuncts.
		{NewAnd(colCmp(GE, "A", cint(3)), colCmp(LE, "A", cint(4))), NewBetween(col("A"), NewInt(1), NewInt(5)), true},
		{NewBetween(col("A"), NewInt(3), NewInt(4)), colCmp(GT, "A", cint(2)), true},
		{NewBetween(col("A"), NewInt(3), NewInt(4)), colCmp(GT, "A", cint(3)), false},
		// Equality pinning implies BETWEEN.
		{colCmp(EQ, "A", cint(3)), NewBetween(col("A"), NewInt(1), NewInt(5)), true},
		// Flipped comparisons (const on the left).
		{NewCmp(LT, cint(10), col("A")), colCmp(GT, "A", cint(5)), true},
	}
	for i, c := range cases {
		if got := Implies(c.q, c.e); got != c.want {
			t.Errorf("case %d: Implies(%s, %s) = %v, want %v", i, c.q, c.e, got, c.want)
		}
	}
}

func TestImpliesInAndLike(t *testing.T) {
	// eq value within IN list.
	if !Implies(colCmp(EQ, "S", cstr("AUTO")), NewIn(col("S"), []Value{NewString("AUTO"), NewString("BUILDING")})) {
		t.Error("S='AUTO' ⇒ S IN ('AUTO','BUILDING')")
	}
	if Implies(colCmp(EQ, "S", cstr("SHIP")), NewIn(col("S"), []Value{NewString("AUTO")})) {
		t.Error("S='SHIP' ⇏ S IN ('AUTO')")
	}
	// IN subset.
	if !Implies(NewIn(col("S"), []Value{NewString("A")}), NewIn(col("S"), []Value{NewString("A"), NewString("B")})) {
		t.Error("IN subset")
	}
	if Implies(NewIn(col("S"), []Value{NewString("A"), NewString("C")}), NewIn(col("S"), []Value{NewString("A"), NewString("B")})) {
		t.Error("IN non-subset")
	}
	// Equality satisfying LIKE.
	if !Implies(colCmp(EQ, "S", cstr("COPPER TUBE")), NewLike(col("S"), "%COPPER%")) {
		t.Error("S='COPPER TUBE' ⇒ S LIKE '%COPPER%'")
	}
	if Implies(colCmp(EQ, "S", cstr("BRASS")), NewLike(col("S"), "%COPPER%")) {
		t.Error("S='BRASS' ⇏ LIKE COPPER")
	}
	// Identical LIKE is a structural match.
	l := NewLike(col("S"), "%COPPER%")
	if !Implies(l, NewLike(col("S"), "%COPPER%")) {
		t.Error("LIKE self-implication")
	}
	// Different LIKE patterns are conservatively rejected.
	if Implies(NewLike(col("S"), "%COPPER PLATED%"), NewLike(col("S"), "%COPPER%")) {
		t.Error("pattern subsumption is out of scope (sound incompleteness)")
	}
}

func TestImpliesDisjunction(t *testing.T) {
	sizeGT40 := colCmp(GT, "size", cint(40))
	copper := NewLike(col("type"), "%COPPER%")
	pe := NewOr(sizeGT40, copper) // e4's predicate from Table 3

	// Query pinning size > 50 implies the disjunction.
	if !Implies(colCmp(GT, "size", cint(50)), pe) {
		t.Error("size>50 ⇒ size>40 OR type LIKE COPPER")
	}
	// Query with the LIKE conjunct implies it too.
	if !Implies(NewAnd(copper, colCmp(EQ, "size", cint(1))), pe) {
		t.Error("type LIKE COPPER ⇒ disjunction")
	}
	// A query that guarantees neither does not imply it.
	if Implies(colCmp(EQ, "size", cint(10)), pe) {
		t.Error("size=10 ⇏ disjunction")
	}
	// Disjunctive query predicate: every disjunct implies some disjunct.
	q := NewOr(colCmp(GT, "size", cint(50)), colCmp(EQ, "type", cstr("COPPER ROD")))
	if !Implies(q, pe) {
		t.Error("case-split disjunction implication")
	}
	q2 := NewOr(colCmp(GT, "size", cint(50)), colCmp(EQ, "type", cstr("BRASS ROD")))
	if Implies(q2, pe) {
		t.Error("one failing disjunct kills case split")
	}
}

func TestImpliesSoundIncompleteness(t *testing.T) {
	// The paper's example: Pq ≡ (A = 5 ∧ B = 3), Pe ≡ A + B = 8 fails.
	pq := NewAnd(colCmp(EQ, "A", cint(5)), colCmp(EQ, "B", cint(3)))
	pe := NewCmp(EQ, NewArith(Add, col("A"), col("B")), cint(8))
	if Implies(pq, pe) {
		t.Error("implication over arithmetic must (soundly) fail")
	}
}

func TestImpliesMultiConjunct(t *testing.T) {
	pq := AndAll(colCmp(GT, "B", cint(15)), colCmp(EQ, "mktseg", cstr("commercial")), colCmp(LT, "B", cint(20)))
	pe := AndAll(colCmp(GT, "B", cint(10)), colCmp(EQ, "mktseg", cstr("commercial")))
	if !Implies(pq, pe) {
		t.Error("multi-conjunct implication")
	}
	pe2 := AndAll(colCmp(GT, "B", cint(10)), colCmp(EQ, "mktseg", cstr("retail")))
	if Implies(pq, pe2) {
		t.Error("mismatched equality must fail")
	}
}

func TestImpliesIsNotNull(t *testing.T) {
	// Any range constraint on a column implies IS NOT NULL.
	if !Implies(colCmp(GT, "A", cint(1)), &IsNull{E: col("A"), Negated: true}) {
		t.Error("A>1 ⇒ A IS NOT NULL")
	}
	if Implies(colCmp(GT, "B", cint(1)), &IsNull{E: col("A"), Negated: true}) {
		t.Error("B>1 ⇏ A IS NOT NULL")
	}
}

func TestImpliesUnsatisfiableQuery(t *testing.T) {
	// A contradictory query predicate implies anything (vacuous truth).
	pq := NewAnd(NewIn(col("A"), []Value{NewInt(1)}), NewIn(col("A"), []Value{NewInt(2)}))
	if !Implies(pq, colCmp(EQ, "A", cint(99))) {
		t.Error("empty range implies anything")
	}
}

func TestImpliesSyntacticMode(t *testing.T) {
	bGT15 := colCmp(GT, "B", cint(15))
	bGT10 := colCmp(GT, "B", cint(10))
	if !ImpliesMode(bGT15, bGT15, ImplicationSyntactic) {
		t.Error("syntactic self-implication")
	}
	if ImpliesMode(bGT15, bGT10, ImplicationSyntactic) {
		t.Error("syntactic mode must not do range reasoning")
	}
	// Flipped structural match still allowed.
	if !ImpliesMode(NewCmp(LT, cint(15), col("B")), bGT15, ImplicationSyntactic) {
		t.Error("flipped structural match")
	}
}

// Property: soundness spot-check. If Implies(pq, pe) holds for randomly
// generated single-column integer range predicates, then every integer
// satisfying pq also satisfies pe.
func TestImpliesSoundnessProperty(t *testing.T) {
	mkPred := func(opSel uint8, v int8) Expr {
		ops := []CmpOp{EQ, LT, LE, GT, GE}
		return colCmp(ops[int(opSel)%len(ops)], "A", cint(int64(v)))
	}
	f := func(op1, op2 uint8, v1, v2 int8, probe int8) bool {
		pq := mkPred(op1, v1)
		pe := mkPred(op2, v2)
		if !Implies(pq, pe) {
			return true // nothing to verify
		}
		row := Row{NewInt(int64(probe))}
		res := SliceResolver([]string{"T.A"})
		bq := MustBind(Clone(pq), res)
		be := MustBind(Clone(pe), res)
		qOK, _ := EvalBool(bq, row)
		eOK, _ := EvalBool(be, row)
		return !qOK || eOK // pq(x) → pe(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: conjoining extra conjuncts to the query predicate never
// breaks an implication (monotonicity).
func TestImpliesMonotonicityProperty(t *testing.T) {
	f := func(v1, v2, v3 int8) bool {
		pq := colCmp(GT, "A", cint(int64(v1)))
		pe := colCmp(GT, "A", cint(int64(v2)))
		if !Implies(pq, pe) {
			return true
		}
		stronger := NewAnd(pq, colCmp(LT, "B", cint(int64(v3))))
		return Implies(stronger, pe)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// FuzzImpliesSound: Implies must be sound. The fuzz input drives a
// generator of predicate pairs (P, Q) over T(A INT, B VARCHAR, C
// DOUBLE) — comparisons, BETWEEN, IN lists with NULL items, LIKE, IS
// [NOT] NULL, nested under AND and OR — and whenever Implies(P, Q)
// holds, the row evaluator must find no row of a grid finer than the
// generator's constants, NULLs included, where P is TRUE and Q is not.
// The seeds are TestImpliesSoundnessProperty's single-column integer
// range pairs.
func FuzzImpliesSound(f *testing.F) {
	for _, s := range [][4]uint8{{0, 0, 0, 0}, {1, 3, 3, 1}, {2, 2, 1, 6}, {4, 5, 3, 5}, {3, 4, 4, 4}, {1, 0, 2, 8}} {
		f.Add(impliesSeed(s[0], s[1], s[2], s[3]))
	}
	res := SliceResolver([]string{"T.A", "T.B", "T.C"})
	grid := impliesGrid()
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &predGen{data: data}
		p, q := g.pred(2), g.pred(2)
		if !Implies(p, q) {
			return
		}
		bp, bq := MustBind(Clone(p), res), MustBind(Clone(q), res)
		for _, row := range grid {
			pOK, err := EvalBool(bp, row)
			if err != nil {
				t.Fatalf("eval %s on %v: %v", p, row, err)
			}
			qOK, err := EvalBool(bq, row)
			if err != nil {
				t.Fatalf("eval %s on %v: %v", q, row, err)
			}
			if pOK && !qOK {
				t.Fatalf("Implies(%s, %s) is true, but row %v satisfies the first and not the second", p, q, row)
			}
		}
	})
}

// impliesSeed encodes TestImpliesSoundnessProperty's pair
// (A op1 v1, A op2 v2), ops indexed into {=, <, <=, >, >=}, as
// generator input.
func impliesSeed(op1, v1, op2, v2 uint8) []byte {
	ops := []uint8{uint8(EQ), uint8(LT), uint8(LE), uint8(GT), uint8(GE)}
	return []byte{0, 0, 0, ops[op1%5], v1, 0, 0, 0, ops[op2%5], v2}
}

// Generator domains: constants are drawn from these, and impliesGrid's
// rows from a finer superset, so a wrong implication always has a
// witness row.
var (
	genStrings = []string{"a", "ab", "b", "ba"}
	genLikes   = []string{"a%", "%b", "a_", "_b%", "%", "ab", "%a%"}
)

// genConst returns constant b of column c's domain: an integer in
// [-4, 4] for A (or a half-step DOUBLE, a mixed numeric comparison),
// a half-step DOUBLE in [-4, 4] for C, a string for B.
func genConst(c int, b byte) Value {
	switch {
	case c == 1:
		return NewString(genStrings[int(b)%len(genStrings)])
	case c == 0 && b&0x80 == 0:
		return NewInt(int64(b%9) - 4)
	}
	return NewFloat(float64(int(b%17)-8) / 2)
}

// impliesGrid is every row of A in [-5, 5], B in a superset of
// genStrings with the strings between them, C in quarter steps over
// [-5, 5] and −0, +Inf and −Inf, each column also NULL. C holds no NaN:
// a DOUBLE is never NaN (Double), so Implies need not reason about one.
func impliesGrid() []Row {
	as := []Value{NullValue()}
	for a := -5; a <= 5; a++ {
		as = append(as, NewInt(int64(a)))
	}
	bs := []Value{NullValue()}
	for _, s := range []string{"", "a", "aa", "ab", "abc", "b", "ba", "bb", "c"} {
		bs = append(bs, NewString(s))
	}
	cs := []Value{NullValue(), NewFloat(math.Copysign(0, -1)), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1))}
	for k := -20; k <= 20; k++ {
		cs = append(cs, NewFloat(float64(k)/4))
	}
	var rows []Row
	for _, a := range as {
		for _, b := range bs {
			for _, c := range cs {
				rows = append(rows, Row{a, b, c})
			}
		}
	}
	return rows
}

// predGen builds a predicate from fuzz bytes (zeros once they run out).
type predGen struct {
	data []byte
	pos  int
}

func (g *predGen) next() byte {
	if g.pos >= len(g.data) {
		return 0
	}
	g.pos++
	return g.data[g.pos-1]
}

// pred returns an atom, or an AND / OR of two predicates while depth
// allows.
func (g *predGen) pred(depth int) Expr {
	switch k := g.next() % 4; {
	case depth > 0 && k == 2:
		return NewAnd(g.pred(depth-1), g.pred(depth-1))
	case depth > 0 && k == 3:
		return NewOr(g.pred(depth-1), g.pred(depth-1))
	}
	c := int(g.next() % 3)
	column := col([]string{"A", "B", "C"}[c])
	switch g.next() % 7 {
	case 0:
		return NewCmp(CmpOp(g.next()%6), column, NewConst(genConst(c, g.next())))
	case 1:
		return NewBetween(column, genConst(c, g.next()), genConst(c, g.next()))
	case 2:
		list := []Value{genConst(c, g.next())}
		for n := g.next() % 4; n > 0; n-- {
			if v := g.next(); v%5 == 0 {
				list = append(list, NullValue())
			} else {
				list = append(list, genConst(c, v))
			}
		}
		in := NewIn(column, list)
		in.Negated = g.next()%4 == 0
		return in
	case 3:
		like := NewLike(col("B"), genLikes[int(g.next())%len(genLikes)])
		like.Negated = g.next()%4 == 0
		return like
	case 4:
		return NewIsNull(column)
	case 5:
		return &IsNull{E: column, Negated: true}
	}
	return NewNot(NewCmp(CmpOp(g.next()%6), column, NewConst(genConst(c, g.next()))))
}
