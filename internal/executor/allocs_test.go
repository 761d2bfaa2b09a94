package executor

import (
	"fmt"
	"reflect"
	"testing"

	"cgdqp/internal/cluster"
	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/plan"
	"cgdqp/internal/refeval"
	"cgdqp/internal/schema"
)

// This file pins the zero-allocation contract of the columnar hot
// loops: once an operator's owned scratch has warmed up, absorbing
// another batch through filter→project or aggregate absorption must not
// allocate. The tests drive the operator-owned containers directly
// (compiled predicates/projections, a hand-built hashAggOp) rather than
// pooled engine batches, so a regression here is an allocation in the
// per-batch loop itself, not pool or GC noise.

// allocSource builds a null-free column batch, the steady-state input
// of the measured loops.
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
	fillCols(tb, b, rows, types)
	return b, types
}

// selectRows runs the compiled predicate over a dense source the way
// filterOp does, into a scratch that stands in for the batch-owned
// selection storage.
func selectRows(t *testing.T, p *expr.PredKernel, src expr.VecSource) []int32 {
	sel, err := p.Select(src, nil, selScratch[:0])
	if err != nil {
		t.Fatal(err)
	}
	selScratch = sel
	return sel
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
	p := expr.CompilePred(pred, types)
	exprs := []expr.Expr{
		expr.NewArith(expr.Add, &expr.Col{Name: "a", Index: 0}, &expr.Col{Name: "b", Index: 1}),
		&expr.Col{Name: "c", Index: 2},
		expr.NewConst(expr.NewInt(42)),
	}
	proj := compileProj(exprs, types, ExecOptions{})

	var out expr.Batch
	run := func() {
		sel := selectRows(t, p, in)
		if len(sel) == 0 {
			t.Fatal("selection is empty; the loop under test is idle")
		}
		if err := proj.apply(in, sel, &out); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the operator-owned scratch
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Errorf("filter→project allocates %.1f per batch, want 0", avg)
	}
}

// TestAggAbsorbZeroAlloc pins aggregate absorption: once every group
// exists and the accumulator lanes are grown, absorbing another chunk —
// key encoding, group-id assignment, and all typed accumulator updates
// — must not allocate.
func TestAggAbsorbZeroAlloc(t *testing.T) {
	in, types := allocSource(t, 1024)
	var chunk Batch
	chunk.data = *in

	child := &plan.Node{}
	for i, ty := range types {
		child.Cols = append(child.Cols, plan.ColRef{Table: "t", Name: string(rune('a' + i)), Type: ty})
	}
	col := func(name string) expr.Expr { return expr.NewCol("t", name) }
	node := plan.NewAggregate(child, []*expr.Col{expr.NewCol("t", "c")}, []plan.NamedAgg{
		{Fn: expr.AggSum, Arg: col("b"), Name: "s"}, {Fn: expr.AggCount, Name: "n"}, {Fn: expr.AggAvg, Arg: col("a"), Name: "av"},
		{Fn: expr.AggMax, Arg: col("c"), Name: "mx"}, {Fn: expr.AggMin, Arg: col("b"), Name: "mn"}})
	op, err := newHashAgg(node, nil, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := op.(*hashAggOp)
	a.start()
	// Warm up: the first chunk registers every group and grows the lanes.
	if err := a.absorbChunk(&chunk); err != nil {
		t.Fatal(err)
	}
	if a.groups == 0 {
		t.Fatal("no groups formed")
	}
	run := func() {
		if err := a.absorbChunk(&chunk); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Errorf("agg absorb allocates %.1f per chunk, want 0", avg)
	}
}

// TestPassthroughProjectZeroAlloc pins the column-pruning projection
// that sits on every base table: a list of bare columns, alone or behind
// a filter's selection, gathers vectors — zero allocations per batch.
func TestPassthroughProjectZeroAlloc(t *testing.T) {
	in, types := allocSource(t, 1024)
	proj := compileProj([]expr.Expr{&expr.Col{Name: "c", Index: 2}, &expr.Col{Name: "a", Index: 0}}, types, ExecOptions{})
	p := expr.CompilePred(expr.NewCmp(expr.GT, &expr.Col{Name: "a", Index: 0}, expr.NewConst(expr.NewInt(60))), types)
	var out expr.Batch
	for name, run := range map[string]func(){
		"project": func() {
			if err := proj.apply(in, nil, &out); err != nil || out.Len() != in.Len() {
				t.Fatalf("projection: %d rows, %v", out.Len(), err)
			}
		},
		"filter+project": func() {
			sel := selectRows(t, p, in)
			if err := proj.apply(in, sel, &out); err != nil || len(sel) == 0 || out.Len() != len(sel) {
				t.Fatalf("filter+projection: %d rows, %v", out.Len(), err)
			}
		},
	} {
		run()
		if avg := testing.AllocsPerRun(100, run); avg != 0 {
			t.Errorf("%s allocates %.1f per batch, want 0", name, avg)
		}
	}
}

// noMatchJoin opens the join newNLJoin builds for 512 × 512 rows whose
// keys never meet — the hash join, its condition being two column
// equalities — or, with loop set, the nested loop over the same
// condition. It returns a sweep over its one left chunk, the operator's
// pairs and its Close.
func noMatchJoin(t *testing.T, loop bool) (sweep func() (bool, error), out *pairOut, closeJoin func() error) {
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
	node := c.node(plan.NLJoin)
	l, r := &chunkSrc{tb: t, chunks: c.left, types: types}, &chunkSrc{tb: t, chunks: c.right, types: types}
	var op BatchOperator
	var next func() (*Batch, error)
	var match func(int32) error
	if loop {
		j := newNLLoop(node, l, r, c.bound(t))
		op, out, next, match = j, &j.out, j.left.nextChunk, j.match
	} else {
		o, err := newNLJoin(node, l, r)
		if err != nil {
			t.Fatal(err)
		}
		j, ok := o.(*hashJoinOp)
		if !ok {
			t.Fatalf("column equalities run on %T, not the hash join", o)
		}
		op, out, next, match = j, &j.out, j.nextProbe, j.match
	}
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	if more, err := out.refill(next, match); !more || err != nil || out.rows != 512 {
		t.Fatalf("first left chunk: more=%v err=%v rows=%d", more, err, out.rows)
	}
	return func() (bool, error) {
		out.r = 0
		return out.refill(next, match)
	}, out, op.Close
}

// TestNLJoinZeroAllocPerPair pins that no candidate pair is built to be
// tested: sweeping 512 left rows over 512 right rows that never match
// allocates nothing, whether the keys are looked up in the hash join's
// index or the condition is interpreted over the nested loop's scratch
// row filled from vectors.
func TestNLJoinZeroAllocPerPair(t *testing.T) {
	for _, mode := range []struct {
		name string
		loop bool
	}{{"hash join", false}, {"scratch row over columns", true}} {
		sweep, out, closeJoin := noMatchJoin(t, mode.loop)
		run := func() {
			if more, err := sweep(); !more || err != nil || out.r != out.rows || len(out.pi) != 0 {
				t.Fatalf("%s: sweep stopped at row %d of %d with %d matches: %v", mode.name, out.r, out.rows, len(out.pi), err)
			}
		}
		if avg := testing.AllocsPerRun(10, run); avg != 0 {
			t.Errorf("%s: %.1f allocations per %d candidate pairs, want 0", mode.name, avg, 512*512)
		}
		closeJoin()
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
				&chunkSrc{tb: t, chunks: probe, types: types},
				&chunkSrc{tb: t, chunks: build, types: types})
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

// TestGlobalAggVecMatchesRows: a global aggregation (every row in
// group 0, no key lookup) yields the reference evaluator's result row,
// over several chunks under a filter's selection vector, over zero
// rows, and over arguments that are all NULL.
func TestGlobalAggVecMatchesRows(t *testing.T) {
	for name, val := range map[string]func(i int) expr.Row{
		"chunks under a selection": func(i int) expr.Row {
			return expr.Row{expr.NewInt(int64(i%37 - 10)), expr.NewFloat(float64(i) / 8)}
		},
		"zero rows": nil,
		"all-NULL arguments": func(int) expr.Row {
			return expr.Row{expr.TypedNull(expr.TInt), expr.TypedNull(expr.TFloat)}
		},
	} {
		tab := schema.NewTable("T", "d", "L", 3000,
			schema.Column{Name: "a", Type: expr.TInt}, schema.Column{Name: "b", Type: expr.TFloat})
		cat := schema.NewCatalog()
		cat.MustAddTable(tab)
		cl := cluster.New(cat, network.NewCostModel(1, 1e-6))
		var rows []expr.Row
		for i := 0; val != nil && i < 3000; i++ {
			rows = append(rows, val(i))
		}
		if err := cl.LoadFragment(tab, 0, rows); err != nil {
			t.Fatal(err)
		}
		var aggs []plan.NamedAgg
		for _, fn := range []expr.AggFn{expr.AggSum, expr.AggCount, expr.AggAvg, expr.AggMin, expr.AggMax} {
			for _, col := range []string{"a", "b"} {
				aggs = append(aggs, plan.NamedAgg{Fn: fn, Arg: expr.NewCol("t", col), Name: fmt.Sprintf("%s_%s", fn, col)})
			}
		}
		aggs = append(aggs, plan.NamedAgg{Fn: expr.AggCount, Name: "n"}) // COUNT(*)
		filter := plan.NewFilter(plan.NewScan(tab, "t", -1), expr.NewOr(
			expr.NewIsNull(expr.NewCol("t", "a")),
			expr.NewCmp(expr.NE, expr.NewCol("t", "a"), expr.NewConst(expr.NewInt(3)))))
		agg := plan.NewAggregate(filter, nil, aggs)
		agg.Kind = plan.HashAgg
		got, _, err := Run(agg, cl)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refeval.Eval(agg, cl)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: executor %v, reference %v", name, got, want)
		}
	}
}
