package executor

import (
	"fmt"
	"reflect"
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
// makes the plan-derived need set leave the string column out. A page
// decoded from bytes a pool miss just read in then allocates nothing
// for the masked column, where the full decode pays one string per
// cell; and a re-scan of resident pages copies the frames' cached
// decode, allocating per page at most, never per cell.
func TestMaskedScanAllocatesNoDroppedStrings(t *testing.T) {
	const n = 2000
	cat := schema.NewCatalog()
	tab := schema.NewTable("t", "d1", "L1", n,
		schema.Column{Name: "k", Type: expr.TInt}, schema.Column{Name: "pad", Type: expr.TString}, schema.Column{Name: "v", Type: expr.TFloat})
	cat.MustAddTable(tab)
	rows := make([]expr.Row, n)
	for i := range rows {
		rows[i] = expr.Row{expr.NewInt(int64(i)), expr.NewString(fmt.Sprintf("padding-%06d", i)), expr.NewFloat(float64(i) / 2)}
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
	// scans opens a cluster over a pool of poolBytes and returns the
	// allocations of one scan under need and the pages it requested.
	scans := func(poolBytes int64) func(need []bool) (allocs float64, pages int64) {
		cl, err := cluster.NewWithStore(cat, network.NewCostModel(1, 1e-6), &cluster.StoreConfig{DataDir: t.TempDir(), BufferPoolBytes: poolBytes})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		if err := cl.LoadFragment(tab, 0, rows); err != nil {
			t.Fatal(err)
		}
		var b expr.Batch
		drain := func(need []bool) {
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
		drain(nil) // vectors to size; with room, pages resident and decoded
		return func(need []bool) (float64, int64) {
			st0 := cl.StoreStats()
			drain(need)
			st1 := cl.StoreStats()
			return testing.AllocsPerRun(5, func() { drain(need) }), st1.Hits + st1.Misses - st0.Hits - st0.Misses
		}
	}

	// One frame: every page request misses, so every scan decodes bytes
	// just read from disk and caches nothing.
	cold := scans(1)
	full, pages := cold(nil)
	masked, _ := cold(need)
	t.Logf("pool misses: full scan %.0f allocs, masked %.0f, over %d pages", full, masked, pages)
	if full < n {
		t.Errorf("full decode of %d string cells after pool misses allocated %.0f", n, full)
	}
	if masked > float64(4+4*pages) { // the iterator, its lane scratch, each miss's disk read
		t.Errorf("masked scan of %d pages after pool misses allocated %.0f for %d rows", pages, masked, n)
	}

	// Room for every page: a re-scan copies the resident frames' decode.
	warm := scans(0)
	full, pages = warm(nil)
	masked, _ = warm(need)
	t.Logf("resident pages: full scan %.0f allocs, masked %.0f, over %d pages", full, masked, pages)
	if full > float64(4+pages) || masked > float64(4+pages) {
		t.Errorf("re-scan of %d resident pages allocated %.0f (full) and %.0f (masked)", pages, full, masked)
	}
}

// TestIndexScanAllocsPerBatch: an IndexScan under a SUM over a float
// column allocates per run and per batch, never per row — the gather
// decodes straight into pooled batches' vectors and the residual only
// narrows their selection — so a range 20x larger costs at most a
// per-batch constant more.
func TestIndexScanAllocsPerBatch(t *testing.T) {
	const n = 40 * BatchSize
	tab := schema.NewTable("T", "d", "L", n,
		schema.Column{Name: "k", Type: expr.TInt}, schema.Column{Name: "v", Type: expr.TFloat})
	tab.Indexes = []string{"k"}
	cat := schema.NewCatalog()
	cat.MustAddTable(tab)
	cl := cluster.New(cat, network.NewCostModel(1, 1e-6))
	rows := make([]expr.Row, n)
	for i := range rows {
		rows[i] = expr.Row{expr.NewInt(int64(i)), expr.NewFloat(float64(i) / 2)}
	}
	if err := cl.LoadFragment(tab, 0, rows); err != nil {
		t.Fatal(err)
	}
	allocs := func(span int64) float64 {
		idx := plan.NewScan(tab, "t", 0)
		idx.Kind, idx.IdxCol = plan.IndexScan, "k"
		lo, hi := expr.NewInt(100), expr.NewInt(100+span)
		idx.IdxLo, idx.IdxHi, idx.IdxLoInc = &lo, &hi, true
		idx.Pred = expr.NewAnd(
			expr.NewCmp(expr.GE, expr.NewCol("t", "k"), expr.NewConst(lo)),
			expr.NewCmp(expr.LT, expr.NewCol("t", "k"), expr.NewConst(hi)))
		agg := plan.NewAggregate(idx, nil, []plan.NamedAgg{{Fn: expr.AggSum, Arg: expr.NewCol("t", "v"), Name: "s"}})
		agg.Kind = plan.HashAgg
		run := func() {
			out, _, err := Run(agg, cl)
			if err != nil || len(out) != 1 {
				t.Fatalf("run: %d rows, %v", len(out), err)
			}
		}
		run()
		return testing.AllocsPerRun(10, run)
	}
	// Today about 2 per batch; the slack covers the race detector, under
	// which the batch pool drops entries. One allocation per row would
	// cost BatchSize per batch.
	const perBatch = 16
	small, large := allocs(BatchSize), allocs(20*BatchSize)
	if large-small > perBatch*19 {
		t.Errorf("SUM over an index range: %.0f allocations for 1 batch, %.0f for 20; want at most %d more per batch", small, large, perBatch)
	}
	t.Logf("allocations: 1 batch %.0f, 20 batches %.0f", small, large)
}

// TestGlobalAggVecMatchesRows: a global aggregation absorbed
// vectorized (every row in group 0, no key lookup) yields the row
// path's result row, over several column-backed chunks under a
// selection vector, over zero rows, and over arguments that are all
// NULL.
func TestGlobalAggVecMatchesRows(t *testing.T) {
	types := []expr.Type{expr.TInt, expr.TFloat}
	child := &plan.Node{Cols: []plan.ColRef{{Table: "t", Name: "a", Type: expr.TInt}, {Table: "t", Name: "b", Type: expr.TFloat}}}
	var aggs []plan.NamedAgg
	for _, fn := range []expr.AggFn{expr.AggSum, expr.AggCount, expr.AggAvg, expr.AggMin, expr.AggMax} {
		for _, col := range []string{"a", "b"} {
			aggs = append(aggs, plan.NamedAgg{Fn: fn, Arg: expr.NewCol("t", col)})
		}
	}
	aggs = append(aggs, plan.NamedAgg{Fn: expr.AggCount}) // COUNT(*)
	node := &plan.Node{Children: []*plan.Node{child}, Aggs: aggs}

	chunks := func(n int, val func(i int) expr.Row) [][]expr.Row {
		out := make([][]expr.Row, n)
		for c := range out {
			for i := 0; i < 100; i++ {
				out[c] = append(out[c], val(c*100+i))
			}
		}
		return out
	}
	for name, in := range map[string][][]expr.Row{
		"chunks under a selection": chunks(4, func(i int) expr.Row {
			return expr.Row{expr.NewInt(int64(i%37 - 10)), expr.NewFloat(float64(i) / 8)}
		}),
		"zero rows": nil,
		"all-NULL arguments": chunks(3, func(int) expr.Row {
			return expr.Row{expr.TypedNull(expr.TInt), expr.TypedNull(expr.TFloat)}
		}),
	} {
		var got [2][]expr.Row
		for k, vec := range []bool{false, true} {
			op, err := newHashAgg(node, &chunkSrc{chunks: in, types: types, cols: true, sel: true}, vec)
			if err != nil {
				t.Fatal(err)
			}
			if vec != op.(*hashAggOp).vec {
				t.Fatalf("%s: vectorized %v, want %v", name, op.(*hashAggOp).vec, vec)
			}
			if got[k], err = drain(op); err != nil {
				t.Fatal(err)
			}
		}
		if len(got[0]) != 1 || !reflect.DeepEqual(got[0], got[1]) {
			t.Errorf("%s: row path %v, vectorized %v", name, got[0], got[1])
		}
	}
}
