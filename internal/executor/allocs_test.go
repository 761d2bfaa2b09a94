package executor

import (
	"fmt"
	"testing"

	"cgdqp/internal/expr"
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
