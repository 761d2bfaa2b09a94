package executor

import (
	"fmt"
	"testing"

	"cgdqp/internal/cluster"
	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/plan"
	"cgdqp/internal/schema"
)

// This file pins the zero-allocation contract of the columnar hot
// loops: once an operator's owned scratch has warmed up, absorbing
// another batch through filter→project or aggregate absorption must not
// allocate. The tests drive the operator-owned containers directly
// (compiled predicates/projections, a hand-built hashAggOp) rather than
// pooled engine batches, so a regression here is an allocation in the
// per-batch loop itself, not pool or GC noise.

// allocSource builds a lane-pure, null-free row-backed batch bound to
// its types, with every column vector pre-built so the measured loops
// see the steady-state columnar view.
func allocSource(tb testing.TB, n int) (*expr.Batch, []expr.Type) {
	tb.Helper()
	types := []expr.Type{expr.TInt, expr.TFloat, expr.TString}
	rows := make([]expr.Row, n)
	for i := range rows {
		rows[i] = expr.Row{
			expr.NewInt(int64(i % 64)),
			expr.NewFloat(float64(i%100) / 4),
			expr.NewString(fmt.Sprintf("s-%02d", i%16)),
		}
	}
	b := &expr.Batch{}
	b.SetRows(rows)
	b.Bind(types)
	for i := range types {
		if _, ok := b.ColVec(i); !ok {
			tb.Fatalf("column %d did not vectorize", i)
		}
	}
	return b, types
}

// selectRows runs the compiled predicate over a dense source the way
// filterOp does, into a scratch that stands in for the batch-owned
// selection storage.
func (p *vecPred) selectRows(src expr.VecSource) ([]int32, bool) {
	sel, err := p.kern.Select(src, nil, selScratch[:0])
	if err != nil {
		return nil, false
	}
	selScratch = sel
	return sel, true
}

var selScratch []int32

// TestFilterProjectZeroAlloc pins the filter→project columnar path:
// kernel selection into the operator-owned selection scratch, then a
// fully columnar projection (kernel + passthrough + constant columns)
// into an owned output batch. Zero allocations per batch.
func TestFilterProjectZeroAlloc(t *testing.T) {
	in, types := allocSource(t, 1024)

	pred := expr.NewAnd(
		expr.NewCmp(expr.GT, &expr.Col{Name: "a", Index: 0}, expr.NewConst(expr.NewInt(7))),
		expr.NewCmp(expr.LT, &expr.Col{Name: "b", Index: 1}, expr.NewConst(expr.NewFloat(20))),
	)
	p := compilePred(pred, types, true)
	if p == nil {
		t.Fatal("predicate did not compile")
	}
	exprs := []expr.Expr{
		expr.NewArith(expr.Add, &expr.Col{Name: "a", Index: 0}, &expr.Col{Name: "b", Index: 1}),
		&expr.Col{Name: "c", Index: 2},
		expr.NewConst(expr.NewInt(42)),
	}
	proj := compileProj(exprs, types, true)
	if proj == nil {
		t.Fatal("projection did not compile")
	}

	var out expr.Batch
	run := func() {
		sel, ok := p.selectRows(in)
		if !ok {
			t.Fatal("predicate fell back to the interpreter")
		}
		if len(sel) == 0 {
			t.Fatal("selection is empty; the loop under test is idle")
		}
		if !proj.applyCols(in, sel, &out) {
			t.Fatal("projection fell back to the interpreter")
		}
	}
	run() // warm the operator-owned scratch
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Errorf("filter→project allocates %.1f per batch, want 0", avg)
	}
}

// TestAggAbsorbZeroAlloc pins vectorized aggregate absorption: once
// every group exists and the accumulator lanes are grown, absorbing
// another chunk — key encoding, group-id assignment, and all typed
// accumulator updates — must not allocate.
func TestAggAbsorbZeroAlloc(t *testing.T) {
	in, types := allocSource(t, 1024)
	var chunk Batch
	chunk.data = *in

	op := &hashAggOp{
		keys:    []expr.Expr{&expr.Col{Name: "c", Index: 2}},
		args:    []expr.Expr{&expr.Col{Name: "b", Index: 1}, nil, &expr.Col{Name: "a", Index: 0}, &expr.Col{Name: "c", Index: 2}, &expr.Col{Name: "b", Index: 1}},
		fns:     []expr.AggFn{expr.AggSum, expr.AggCount, expr.AggAvg, expr.AggMax, expr.AggMin},
		inTypes: types,
		lookup:  make(map[string]int32),
		vec:     true,
		keyCols: []int{2}, keyKerns: make([]*expr.Kernel, 1),
		argCols: []int{1, -1, 0, 2, 1}, argKerns: make([]*expr.Kernel, 5),
		keyVecs: make([]*expr.Vec, 1), keyDense: make([]bool, 1),
		argVecs: make([]*expr.Vec, 5), argDense: make([]bool, 5),
	}
	for _, fn := range op.fns {
		op.accs = append(op.accs, &accCol{fn: fn})
	}

	// Warm up: the first chunk registers every group and grows the lanes.
	if !op.absorbVecChunk(&chunk) {
		t.Fatal("chunk did not absorb vectorized")
	}
	if len(op.groupVals) == 0 {
		t.Fatal("no groups formed")
	}
	run := func() {
		if !op.absorbVecChunk(&chunk) {
			t.Fatal("chunk fell back to the row path")
		}
	}
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Errorf("agg absorb allocates %.1f per chunk, want 0", avg)
	}
}

// colSource is allocSource's batch rebuilt column-backed: owned vectors,
// no row view.
func colSource(tb testing.TB, n int) (*expr.Batch, []expr.Type) {
	tb.Helper()
	rows, types := allocSource(tb, n)
	b := &expr.Batch{}
	b.StartCols(len(types), n)
	for c, t := range types {
		if !expr.BuildColVec(rows.Rows(), c, t, b.OwnCol(c)) {
			tb.Fatalf("column %d did not vectorize", c)
		}
	}
	b.FinishCols()
	return b, types
}

// TestPassthroughProjectZeroAlloc pins the column-pruning projection
// that sits on every base table: a list of bare columns, alone or behind
// a filter's selection, gathers vectors — zero allocations per batch,
// and the column-backed input never grows a row view.
func TestPassthroughProjectZeroAlloc(t *testing.T) {
	in, types := colSource(t, 1024)
	proj := compileProj([]expr.Expr{&expr.Col{Name: "c", Index: 2}, &expr.Col{Name: "a", Index: 0}}, types, true)
	if proj == nil {
		t.Fatal("a passthrough-only projection did not compile")
	}
	p := compilePred(expr.NewCmp(expr.GT, &expr.Col{Name: "a", Index: 0}, expr.NewConst(expr.NewInt(60))), types, true)
	var out expr.Batch
	for name, run := range map[string]func(){
		"project": func() {
			if !proj.applyCols(in, nil, &out) || out.Len() != in.Len() {
				t.Fatal("projection fell back to rows")
			}
		},
		"filter+project": func() {
			sel, ok := p.selectRows(in)
			if !ok || len(sel) == 0 || !proj.applyCols(in, sel, &out) || out.Len() != len(sel) {
				t.Fatal("filter+projection fell back to rows")
			}
		},
	} {
		run()
		if avg := testing.AllocsPerRun(100, run); avg != 0 {
			t.Errorf("%s allocates %.1f per batch, want 0", name, avg)
		}
	}
	if in.RowBacked() || out.RowBacked() {
		t.Error("a row view was materialized")
	}
}

// nlAllocJoin opens an NL join of 512 × 512 rows whose keys never meet
// and returns it with its one left chunk current.
func nlAllocJoin(t *testing.T, vec bool) *nlJoinOp {
	t.Helper()
	types := []expr.Type{expr.TInt, expr.TString}
	side := func(base int) [][]expr.Row {
		var rows []expr.Row
		for i := 0; i < 512; i++ {
			rows = append(rows, expr.Row{expr.NewInt(int64(base + i)), expr.NewString(fmt.Sprintf("s%d", base+i))})
		}
		return [][]expr.Row{rows}
	}
	c := joinCase{lTypes: types, rTypes: types, left: side(0), right: side(1000),
		cond: expr.NewAnd(
			expr.NewCmp(expr.EQ, expr.NewCol("a", "c0"), expr.NewCol("b", "c0")),
			expr.NewCmp(expr.EQ, expr.NewCol("a", "c1"), expr.NewCol("b", "c1")))}
	op, err := newNLJoin(c.node(plan.NLJoin),
		&chunkSrc{chunks: c.left, types: types, cols: true}, &chunkSrc{chunks: c.right, types: types, cols: true}, vec)
	if err != nil {
		t.Fatal(err)
	}
	j := op.(*nlJoinOp)
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	if more, err := j.joinNext(); !more || err != nil || j.ln != 512 {
		t.Fatalf("first left chunk: more=%v err=%v rows=%d", more, err, j.ln)
	}
	return j
}

// TestNLJoinZeroAllocPerPair pins that no candidate pair is built to be
// tested: sweeping 512 left rows over 512 right rows that never match
// allocates nothing, whether the lanes are compared directly, the
// condition is interpreted over the scratch row filled from vectors, or
// (kernels off) over the scratch row copied from rows.
func TestNLJoinZeroAllocPerPair(t *testing.T) {
	for _, mode := range []struct {
		name         string
		vec, scratch bool
	}{{"lanes", true, false}, {"scratch row over columns", true, true}, {"scratch row over rows", false, true}} {
		j := nlAllocJoin(t, mode.vec)
		if mode.scratch {
			j.eq = nil
		} else if j.eq == nil || !j.out.cols {
			t.Fatalf("%s: the typed path is off", mode.name)
		}
		sweep := func() {
			j.li = 0
			if more, err := j.joinNext(); !more || err != nil || j.li != j.ln || len(j.out.pi) != 0 {
				t.Fatalf("%s: sweep stopped at row %d of %d with %d matches: %v", mode.name, j.li, j.ln, len(j.out.pi), err)
			}
		}
		if avg := testing.AllocsPerRun(10, sweep); avg != 0 {
			t.Errorf("%s: %.1f allocations per %d candidate pairs, want 0", mode.name, avg, 512*512)
		}
		j.Close()
	}
}

// TestHashJoinAllocsNotPerMatch pins the columnar probe and emit: with
// the same probe chunks, a build side that yields 8× the matches may
// cost a few more (amortized) buffer growths, not an allocation per
// matched pair.
func TestHashJoinAllocsNotPerMatch(t *testing.T) {
	types := []expr.Type{expr.TInt, expr.TString}
	chunks := func(n, copies int) [][]expr.Row {
		var out [][]expr.Row
		for lo := 0; lo < n; lo += 256 {
			var rows []expr.Row
			for i := lo; i < lo+256; i++ {
				for k := 0; k < copies; k++ {
					rows = append(rows, expr.Row{expr.NewInt(int64(i)), expr.NewString("payload")})
				}
			}
			out = append(out, rows)
		}
		return out
	}
	c := joinCase{lTypes: types, rTypes: types,
		cond: expr.NewCmp(expr.EQ, expr.NewCol("a", "c0"), expr.NewCol("b", "c0"))}
	allocs := func(copies int) (float64, int) {
		matches := 0
		probe, build := chunks(4096, 1), chunks(4096, copies)
		avg := testing.AllocsPerRun(5, func() {
			op, err := newHashJoin(c.node(plan.HashJoin),
				&chunkSrc{chunks: probe, types: types, cols: true},
				&chunkSrc{chunks: build, types: types, cols: true}, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := op.Open(); err != nil {
				t.Fatal(err)
			}
			matches = 0
			for {
				b, err := op.NextBatch()
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
				if b.Data().RowBacked() {
					t.Fatal("the join emitted rows")
				}
				matches += b.Len()
				b.Release()
			}
			op.Close()
		})
		return avg, matches
	}
	a1, m1 := allocs(1)
	a8, m8 := allocs(8)
	if m1 != 4096 || m8 != 8*4096 {
		t.Fatalf("matches %d and %d, want 4096 and %d", m1, m8, 8*4096)
	}
	t.Logf("%.0f allocs for %d matches, %.0f for %d", a1, m1, a8, m8)
	if extra := a8 - a1; extra > float64(m8-m1)/100 {
		t.Errorf("%.0f more allocations for %d more matches", extra, m8-m1)
	}
}

// TestMaskedScanAllocatesNoDroppedStrings pins the scan's column mask
// end to end: a projection of the numeric columns of a persistent table
// makes the plan-derived need set leave the string column out, and the
// pages then decode with no allocation at all, where the full decode
// pays one per string cell.
func TestMaskedScanAllocatesNoDroppedStrings(t *testing.T) {
	cat := schema.NewCatalog()
	tab := schema.NewTable("t", "d1", "L1", 2000,
		schema.Column{Name: "k", Type: expr.TInt}, schema.Column{Name: "pad", Type: expr.TString}, schema.Column{Name: "v", Type: expr.TFloat})
	cat.MustAddTable(tab)
	cl, err := cluster.NewWithStore(cat, network.UniformWAN(1, 1e-6), &cluster.StoreConfig{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const n = 2000
	rows := make([]expr.Row, n)
	for i := range rows {
		rows[i] = expr.Row{expr.NewInt(int64(i)), expr.NewString(fmt.Sprintf("padding-%06d", i)), expr.NewFloat(float64(i) / 2)}
	}
	if err := cl.LoadFragment(tab, 0, rows); err != nil {
		t.Fatal(err)
	}
	scan := plan.NewScan(tab, "t", -1)
	proj := plan.NewProject(scan, []plan.NamedExpr{
		{E: expr.NewArith(expr.Add, expr.NewCol("t", "k"), expr.NewCol("t", "v")), Name: "s"}})
	bound, err := boundExprs(proj)
	if err != nil {
		t.Fatal(err)
	}
	need := childNeed(proj, bound, nil)
	if len(need) != 3 || !need[0] || need[1] || !need[2] {
		t.Fatalf("need %v, want [true false true]", need)
	}
	var b expr.Batch
	drainScan := func(need []bool) func() {
		return func() {
			it, ok, err := cl.FragmentBatches(tab, 0)
			if err != nil || !ok {
				t.Fatalf("no page iterator: %v", err)
			}
			it.SetNeeded(need)
			for got := 0; ; got += b.Len() {
				more, err := it.NextBatch(&b)
				if err != nil {
					t.Fatal(err)
				}
				if !more {
					if got != n {
						t.Fatalf("scanned %d rows, want %d", got, n)
					}
					return
				}
				if b.RowBacked() {
					t.Fatal("the page decoded through the row path")
				}
			}
		}
	}
	drainScan(nil)() // pages into the pool, vectors to size
	full := testing.AllocsPerRun(5, drainScan(nil))
	masked := testing.AllocsPerRun(5, drainScan(need))
	t.Logf("full scan %.0f allocs, masked %.0f", full, masked)
	if full < n {
		t.Errorf("full decode of %d string cells allocated %.0f", n, full)
	}
	if masked > 4 { // the iterator and its lane scratch
		t.Errorf("masked scan allocated %.0f for %d rows", masked, n)
	}
}
