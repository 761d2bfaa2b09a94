package executor

import (
	"fmt"
	"strings"
	"testing"

	"cgdqp/internal/expr"
	"cgdqp/internal/plan"
)

// This file holds the joins to one contract: whatever selection their
// inputs arrive under and whichever matching strategy that selects —
// lanes compared directly or the scratch row — a join returns the rows,
// in the order, and fails at the point, of the per-pair interpreter:
// pair every left row with every right row in arrival order,
// concatenate, evaluate.

// chunkSrc replays fixed chunks as an operator, each chunk one column
// batch of the given types; with sel set every chunk carries two decoy
// rows its selection vector leaves out.
type chunkSrc struct {
	tb     testing.TB
	chunks [][]expr.Row
	types  []expr.Type
	sel    bool
	pos    int
}

// fillCols makes d the column batch of rows under types; a value
// outside its column's type fails the test.
func fillCols(tb testing.TB, d *expr.Batch, rows []expr.Row, types []expr.Type) {
	tb.Helper()
	d.StartCols(len(types), len(rows))
	for c, t := range types {
		v := d.OwnCol(c)
		v.Reset(t, 0)
		for _, r := range rows {
			if !v.Append(r[c]) {
				tb.Fatalf("column %d: %v is no %s", c, r[c], t)
			}
		}
	}
}

func (s *chunkSrc) Open() error  { s.pos = 0; return nil }
func (s *chunkSrc) Close() error { return nil }

func (s *chunkSrc) NextBatch() (*Batch, error) {
	if s.pos == len(s.chunks) {
		return nil, nil
	}
	rows := s.chunks[s.pos]
	s.pos++
	b := NewBatch()
	if s.sel && len(rows) > 0 {
		decoy := rows[len(rows)-1]
		rows = append(append([]expr.Row{decoy}, rows...), decoy)
	}
	fillCols(s.tb, b.Data(), rows, s.types)
	if s.sel && len(rows) > 0 {
		sel := b.SelBuf()
		for i := 1; i < len(rows)-1; i++ {
			sel = append(sel, int32(i))
		}
		b.setSel(sel)
	}
	return b, nil
}

// joinCase is one pair of inputs and a join condition over columns
// a.c0, a.c1, … and b.c0, b.c1, ….
type joinCase struct {
	name           string
	lTypes, rTypes []expr.Type
	left, right    [][]expr.Row
	cond           expr.Expr
	nlOnly         bool // no equi-key: the hash join cannot run it
}

func (c *joinCase) node(kind plan.Kind) *plan.Node {
	side := func(alias string, types []expr.Type) *plan.Node {
		n := &plan.Node{Kind: plan.Scan}
		for i, t := range types {
			n.Cols = append(n.Cols, plan.ColRef{Table: alias, Name: fmt.Sprintf("c%d", i), Type: t})
		}
		return n
	}
	j := plan.NewJoin(side("a", c.lTypes), side("b", c.rTypes), c.cond)
	j.Kind = kind
	return j
}

// bound returns the condition bound against the joined schema (nil:
// none).
func (c *joinCase) bound(t testing.TB) expr.Expr {
	t.Helper()
	if c.cond == nil {
		return nil
	}
	cond, err := expr.Bind(c.cond, resolver(c.node(plan.NLJoin)))
	if err != nil {
		t.Fatal(err)
	}
	return cond
}

// reference is the per-pair interpreter. It returns every match found
// before the first failing pair, how many of those belong to earlier
// left rows, and the failure.
func (c *joinCase) reference(t *testing.T) (rows []expr.Row, beforeRow int, err error) {
	t.Helper()
	cond := c.bound(t)
	for _, lc := range c.left {
		for _, l := range lc {
			beforeRow = len(rows)
			for _, rc := range c.right {
				for _, r := range rc {
					row := append(l.Clone(), r...)
					keep, err := expr.EvalBool(cond, row)
					if err != nil {
						return rows, beforeRow, err
					}
					if keep {
						rows = append(rows, row)
					}
				}
			}
		}
	}
	return rows, len(rows), nil
}

// drain runs op to the end or its first error, returning the rows of
// the batches handed out until then.
func drain(op BatchOperator) ([]expr.Row, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var out []expr.Row
	for {
		b, err := op.NextBatch()
		if err != nil || b == nil {
			return out, err
		}
		out = append(out, b.Rows()...)
		b.Release()
	}
}

func intRows(vals ...any) []expr.Row {
	var rows []expr.Row
	for _, v := range vals {
		switch x := v.(type) {
		case int:
			rows = append(rows, expr.Row{expr.NewInt(int64(x)), expr.NewInt(int64(len(rows)))})
		default:
			rows = append(rows, expr.Row{expr.TypedNull(expr.TInt), expr.NewInt(int64(len(rows)))})
		}
	}
	return rows
}

func mapCol0(rows []expr.Row, f func(int64) expr.Value) []expr.Row {
	out := make([]expr.Row, len(rows))
	for i, r := range rows {
		out[i] = r.Clone()
		if !r[0].IsNull() {
			out[i][0] = f(r[0].I)
		}
	}
	return out
}

func joinCases() []joinCase {
	col := expr.NewCol
	eq0 := expr.NewCmp(expr.EQ, col("a", "c0"), col("b", "c0"))
	ints := []expr.Type{expr.TInt, expr.TInt}
	l := [][]expr.Row{intRows(1, 2, nil, 2, 5), intRows(7, 3, 3, nil), intRows(2, 9)}
	r := [][]expr.Row{intRows(2, nil, 3), intRows(2, 5, 5, 8, 1)}
	asDate := func(rows [][]expr.Row) [][]expr.Row {
		var out [][]expr.Row
		for _, ch := range rows {
			out = append(out, mapCol0(ch, expr.NewDate))
		}
		return out
	}
	cases := []joinCase{
		{name: "null and duplicate keys", lTypes: ints, rTypes: ints, left: l, right: r, cond: eq0},
		{name: "int = date keys", lTypes: ints, rTypes: []expr.Type{expr.TDate, expr.TInt}, left: l, right: asDate(r), cond: eq0},
		{name: "theta", lTypes: ints, rTypes: ints, left: l, right: r, nlOnly: true,
			cond: expr.NewCmp(expr.LT, col("a", "c0"), col("b", "c0"))},
		{name: "cross", lTypes: ints, rTypes: ints, left: l, right: r, nlOnly: true},
		{name: "equi and residual", lTypes: ints, rTypes: ints, left: l, right: r,
			cond: expr.NewAnd(eq0, expr.NewCmp(expr.LT, col("a", "c1"), col("b", "c1")))},
		{name: "two keys, operands swapped", lTypes: ints, rTypes: ints, left: l, right: r,
			cond: expr.NewAnd(eq0, expr.NewCmp(expr.EQ, col("b", "c1"), col("a", "c1")))},
	}
	// int = float keys: not a lane comparison, so the NL join must take
	// the scratch row for it; 2 = 2.0 still matches.
	var rf [][]expr.Row
	for _, ch := range r {
		rf = append(rf, mapCol0(ch, func(i int64) expr.Value { return expr.NewFloat(float64(i)) }))
	}
	cases = append(cases, joinCase{name: "int = float keys", lTypes: ints, rTypes: []expr.Type{expr.TFloat, expr.TInt}, left: l, right: rf, cond: eq0})
	// String keys, NULLs included.
	str := func(rows [][]expr.Row) [][]expr.Row {
		var out [][]expr.Row
		for _, ch := range rows {
			sc := mapCol0(ch, func(i int64) expr.Value { return expr.NewString(fmt.Sprintf("k%d", i)) })
			for _, row := range sc {
				if row[0].IsNull() {
					row[0] = expr.TypedNull(expr.TString)
				}
			}
			out = append(out, sc)
		}
		return out
	}
	strs := []expr.Type{expr.TString, expr.TInt}
	cases = append(cases, joinCase{name: "string keys", lTypes: strs, rTypes: strs, left: str(l), right: str(r), cond: eq0})
	// A chunk in mid-stream whose NULL carries another type's tag than
	// the chunks before it: each side's vectors keep the tags apart.
	li := [][]expr.Row{l[0], {{expr.NewInt(2), expr.NewInt(0)}, {expr.NullValue(), expr.NewInt(1)}}, l[2]}
	lp := [][]expr.Row{l[0], {{expr.NewInt(2), expr.NewInt(0)}, {expr.NewInt(5), expr.NullValue()}}, l[2]}
	cases = append(cases, joinCase{name: "inexact probe chunk", lTypes: ints, rTypes: ints, left: li, right: r, cond: eq0})
	cases = append(cases, joinCase{name: "inexact build chunk", lTypes: ints, rTypes: ints, left: r, right: li, cond: eq0})
	cases = append(cases, joinCase{name: "inexact probe payload", lTypes: ints, rTypes: ints, left: lp, right: r, cond: eq0})
	cases = append(cases, joinCase{name: "inexact build payload", lTypes: ints, rTypes: ints, left: r, right: lp, cond: eq0})
	return cases
}

// joinEngines builds every way the two operators can run a case.
func joinEngines(t *testing.T, c *joinCase) map[string]BatchOperator {
	t.Helper()
	must := func(op BatchOperator, err error) BatchOperator {
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
	out := map[string]BatchOperator{}
	for _, in := range []struct {
		name string
		sel  bool
	}{{"columns", false}, {"columns+sel", true}} {
		sides := func() (BatchOperator, BatchOperator) {
			return &chunkSrc{tb: t, chunks: c.left, types: c.lTypes, sel: in.sel},
				&chunkSrc{tb: t, chunks: c.right, types: c.rTypes, sel: in.sel}
		}
		lo, ro := sides()
		out["nl/"+in.name] = must(newNLJoin(c.node(plan.NLJoin), lo, ro))
		lo, ro = sides()
		out["nl-scratch/"+in.name] = newNLLoop(c.node(plan.NLJoin), lo, ro, c.bound(t))
		if c.nlOnly {
			continue
		}
		lo, ro = sides()
		out["hash/"+in.name] = must(newHashJoin(c.node(plan.HashJoin), lo, ro))
	}
	return out
}

func TestJoinParity(t *testing.T) {
	for _, c := range joinCases() {
		t.Run(c.name, func(t *testing.T) {
			want, _, err := c.reference(t)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 && c.cond != nil {
				t.Fatal("the case joins nothing")
			}
			for name, op := range joinEngines(t, &c) {
				got, err := drain(op)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					continue
				}
				sameRows(t, name, got, want)
			}
		})
	}
}

func sameRows(t *testing.T, label string, got, want []expr.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d rows, want %d", label, len(got), len(want))
		return
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Errorf("%s: row %d has %d columns, want %d", label, i, len(got[i]), len(want[i]))
			return
		}
		for c := range want[i] {
			if got[i][c] != want[i][c] {
				t.Errorf("%s: row %d col %d: %+v, want %+v", label, i, c, got[i][c], want[i][c])
				return
			}
		}
	}
}

// TestJoinTypedPathTaken pins which NL join conditions run on the hash
// join: column equalities over integer-class or string lanes, and
// nothing = could fail on.
func TestJoinTypedPathTaken(t *testing.T) {
	want := map[string]bool{
		"null and duplicate keys": true, "int = date keys": true, "string keys": true,
		"two keys, operands swapped": true, "inexact probe chunk": true, "inexact build chunk": true,
		"inexact probe payload": true, "inexact build payload": true,
	}
	for _, c := range joinCases() {
		op, err := newNLJoin(c.node(plan.NLJoin), &chunkSrc{}, &chunkSrc{})
		if err != nil {
			t.Fatal(err)
		}
		if _, got := op.(*hashJoinOp); got != want[c.name] {
			t.Errorf("%s: on the hash join %v, want %v", c.name, got, want[c.name])
		}
	}
}

// TestHashJoinProbeBounded: a many-to-many join whose every probe chunk
// matches far more than BatchSize pairs keeps at most BatchSize plus one
// probe row's matches pending, resumes mid-chunk, and returns the
// reference's rows in its order.
func TestHashJoinProbeBounded(t *testing.T) {
	const keys, perRow = 3, 40 // every probe row matches perRow build rows
	var left, right []expr.Row
	for i := 0; i < 300; i++ {
		left = append(left, expr.Row{expr.NewInt(int64(i % keys)), expr.NewInt(int64(i))})
	}
	for i := 0; i < keys*perRow; i++ {
		right = append(right, expr.Row{expr.NewInt(int64(i % keys)), expr.NewInt(int64(i))})
	}
	ints := []expr.Type{expr.TInt, expr.TInt}
	c := joinCase{lTypes: ints, rTypes: ints, left: [][]expr.Row{left, left[:7]}, right: [][]expr.Row{right[:50], right[50:]},
		cond: expr.NewCmp(expr.EQ, expr.NewCol("a", "c0"), expr.NewCol("b", "c0"))}
	want, _, err := c.reference(t)
	if err != nil || len(want) != 307*perRow {
		t.Fatalf("reference: %d rows, %v", len(want), err)
	}
	for _, sel := range []bool{false, true} {
		op, err := newHashJoin(c.node(plan.HashJoin),
			&chunkSrc{tb: t, chunks: c.left, types: ints, sel: sel}, &chunkSrc{tb: t, chunks: c.right, types: ints, sel: sel})
		if err != nil {
			t.Fatal(err)
		}
		j := op.(*hashJoinOp)
		if err := j.Open(); err != nil {
			t.Fatal(err)
		}
		var got []expr.Row
		for {
			b, err := j.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if pending := len(j.out.pi); pending > BatchSize+perRow {
				t.Fatalf("sel %v: %d pairs pending, want at most %d", sel, pending, BatchSize+perRow)
			}
			if b == nil {
				break
			}
			got = append(got, b.Rows()...)
			b.Release()
		}
		j.Close()
		sameRows(t, fmt.Sprintf("sel %v", sel), got, want)
	}
}

// TestJoinErrorMidStream fails a residual on one pair deep into the
// stream. Every engine must report the interpreter's error after
// handing out the same whole batches the row-at-a-time operators did —
// the matches before the failing pair (hash join) or before the failing
// left row (NL join), rounded down to BatchSize — and they must be the
// reference's first rows. The failing left row's earlier matches end
// on match number 2·BatchSize, so the two roundings differ.
func TestJoinErrorMidStream(t *testing.T) {
	const keys, copies, bad = 40, 64, 31 // bad·copies < 2·BatchSize = (bad+1)·copies
	types := []expr.Type{expr.TInt, expr.TInt, expr.TString}
	row := func(k int, s string) expr.Row {
		ok := int64(1)
		if k == bad {
			ok = 0
		}
		return expr.Row{expr.NewInt(int64(k)), expr.NewInt(ok), expr.NewString(s)}
	}
	var left, right []expr.Row
	for k := 0; k < keys; k++ {
		left = append(left, row(k, "x"))
	}
	for i := 0; i < copies; i++ {
		for k := 0; k < keys; k++ {
			right = append(right, row(k, "y"))
		}
	}
	right = append(right, expr.Row{expr.NewInt(bad), expr.NewInt(1), expr.NewString("y")})
	col := expr.NewCol
	// a.c0 = b.c0 AND (a.c1 = b.c1 OR a.c2 * b.c1 > 0): the arithmetic
	// on a string runs, and fails, only where keys agree and c1 does not
	// — left row bad against the extra right row.
	c := joinCase{
		lTypes: types, rTypes: types,
		left: [][]expr.Row{left[:7], left[7:]}, right: [][]expr.Row{right[:1000], right[1000:]},
		cond: expr.NewAnd(
			expr.NewCmp(expr.EQ, col("a", "c0"), col("b", "c0")),
			expr.NewOr(
				expr.NewCmp(expr.EQ, col("a", "c1"), col("b", "c1")),
				expr.NewCmp(expr.GT, expr.NewArith(expr.Mul, col("a", "c2"), col("b", "c1")), expr.NewConst(expr.NewInt(0))),
			)),
	}
	ref, beforeRow, refErr := c.reference(t)
	if refErr == nil {
		t.Fatal("the reference did not fail")
	}
	if len(ref) != 2*BatchSize || beforeRow != bad*copies {
		t.Fatalf("reference found %d matches, %d before the failing row; want %d, %d", len(ref), beforeRow, 2*BatchSize, bad*copies)
	}
	for name, op := range joinEngines(t, &c) {
		whole := beforeRow / BatchSize * BatchSize
		if strings.HasPrefix(name, "hash") {
			whole = len(ref) / BatchSize * BatchSize
		}
		got, err := drain(op)
		if err == nil || err.Error() != refErr.Error() {
			t.Errorf("%s: error %v, want %v", name, err, refErr)
		}
		sameRows(t, name, got, ref[:whole])
	}
}
