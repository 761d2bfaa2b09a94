package executor

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"cgdqp/internal/cluster"
	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/plan"
	"cgdqp/internal/refeval"
	"cgdqp/internal/schema"
)

// This file holds the hash join's key hashing to the recheck it stands
// in front of, and the run storage that joins and exchanges take from
// package-wide pools to their results: reused storage must answer like
// fresh storage, and pooled storage must keep no value of the run that
// used it.

// vecOf makes a one-column vector of lane type t holding vals.
func vecOf(t *testing.T, typ expr.Type, vals ...expr.Value) *expr.Vec {
	t.Helper()
	v := &expr.Vec{}
	v.Reset(typ, 0)
	for _, x := range vals {
		if !v.Append(x) {
			t.Fatalf("%v is no %s", x, typ)
		}
	}
	return v
}

// TestKeyHashContract: for every keyEqMode, key values that recheck
// finds equal hash equal, column by column and over several key
// columns, and a row with a NULL key gets noKey.
func TestKeyHashContract(t *testing.T) {
	// One backing array for two strings, another for their twins.
	buf := []byte("keykeyx")
	s1, s2 := string(buf[:3]), strings.Clone("key")
	for _, c := range []struct {
		name   string
		mode   keyEqMode
		lt, rt expr.Type
		l, r   expr.Value
	}{
		{"date = int", eqInt, expr.TDate, expr.TInt, expr.NewDate(9_000), expr.NewInt(9_000)},
		{"int = int", eqInt, expr.TInt, expr.TInt, expr.NewInt(-7), expr.NewInt(-7)},
		{"int = double", eqFloat, expr.TInt, expr.TFloat, expr.NewInt(1), expr.NewFloat(1.0)},
		{"string = string", eqStr, expr.TString, expr.TString, expr.NewString(s1), expr.NewString(s2)},
		{"bool = bool", eqSlow, expr.TBool, expr.TBool, expr.NewBool(true), expr.NewBool(true)},
	} {
		if m := keyMode(c.lt, c.rt); m != c.mode {
			t.Fatalf("%s: mode %d, want %d", c.name, m, c.mode)
		}
		pv, bv := vecOf(t, c.lt, c.l), vecOf(t, c.rt, c.r)
		j := &hashJoinOp{eqMode: []keyEqMode{c.mode}, pKeys: []*expr.Vec{pv}, bKeys: []*expr.Vec{bv}}
		if eq, err := j.recheck(0, 0); err != nil || !eq {
			t.Fatalf("%s: recheck %v, %v", c.name, eq, err)
		}
		ph, bh := make([]uint64, 1), make([]uint64, 1)
		hashKeys(ph, j.pKeys, j.eqMode, nil)
		hashKeys(bh, j.bKeys, j.eqMode, nil)
		if ph[0] != bh[0] || ph[0] == noKey {
			t.Errorf("%s: hashes %x and %x", c.name, ph[0], bh[0])
		}
		// The same keys behind an integer key column: the probe hashed
		// under a selection that skips a row with a NULL, the build with
		// a NULL in either column.
		modes := []keyEqMode{eqInt, c.mode}
		pcols := []*expr.Vec{vecOf(t, expr.TInt, expr.TypedNull(expr.TInt), expr.NewInt(3)), vecOf(t, c.lt, c.l, c.l)}
		bcols := []*expr.Vec{vecOf(t, expr.TInt, expr.NewInt(3), expr.NewInt(3), expr.TypedNull(expr.TInt)),
			vecOf(t, c.rt, c.r, expr.TypedNull(c.rt), c.r)}
		ph, bh = make([]uint64, 2), make([]uint64, 3)
		hashKeys(ph, pcols, modes, []int32{1})
		hashKeys(bh, bcols, modes, nil)
		if ph[0] != 0 || ph[1] != bh[0] || bh[0] == noKey || bh[1] != noKey || bh[2] != noKey {
			t.Errorf("%s: two keys: probe %x, build %x", c.name, ph, bh)
		}
	}
}

// TestHashJoinIndexesNoNullKey: build rows with a NULL key are left out
// of the index, and probe rows with one match nothing.
func TestHashJoinIndexesNoNullKey(t *testing.T) {
	ints := []expr.Type{expr.TInt, expr.TInt}
	c := joinCase{lTypes: ints, rTypes: ints, left: [][]expr.Row{intRows(nil, 1, nil, 2)},
		right: [][]expr.Row{intRows(1, nil, 2, nil, 1)},
		cond:  expr.NewCmp(expr.EQ, expr.NewCol("a", "c0"), expr.NewCol("b", "c0"))}
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
		var indexed []int32
		for _, head := range j.out.heads {
			for b := head; b >= 0; b = j.out.next[b] {
				indexed = append(indexed, b)
			}
		}
		slices.Sort(indexed)
		if !slices.Equal(indexed, []int32{0, 2, 4}) {
			t.Errorf("sel %v: indexed build rows %v, want the non-NULL keys 0, 2, 4", sel, indexed)
		}
		var got []expr.Row
		for {
			b, err := j.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			got = append(got, b.Rows()...)
			b.Release()
		}
		j.Close()
		want, _, _ := c.reference(t)
		sameRows(t, fmt.Sprintf("sel %v", sel), got, want)
	}
}

// TestPooledBuildHoldsNoString: once a join is closed, the build
// storage it puts back holds no string of its run, nor does a released
// shipper's frame.
func TestPooledBuildHoldsNoString(t *testing.T) {
	types := []expr.Type{expr.TString, expr.TString}
	var rows []expr.Row
	for i := 0; i < 300; i++ {
		rows = append(rows, expr.Row{expr.NewString(fmt.Sprintf("k%d", i%40)), expr.NewString(strings.Repeat("p", i%9+1))})
	}
	c := joinCase{lTypes: types, rTypes: types, left: [][]expr.Row{rows[:100]}, right: [][]expr.Row{rows, rows[:50]},
		cond: expr.NewCmp(expr.EQ, expr.NewCol("a", "c0"), expr.NewCol("b", "c0"))}
	holdsString := func(b *joinBufs) bool {
		for _, v := range b.bcols[:cap(b.bcols)] {
			if slices.ContainsFunc(v.S[:cap(v.S)], func(s string) bool { return s != "" }) {
				return true
			}
		}
		return false
	}
	for _, kind := range []plan.Kind{plan.HashJoin, plan.NLJoin} {
		l, r := &chunkSrc{tb: t, chunks: c.left, types: types}, &chunkSrc{tb: t, chunks: c.right, types: types}
		var op BatchOperator
		var out *pairOut
		if kind == plan.HashJoin {
			j, err := newHashJoin(c.node(kind), l, r)
			if err != nil {
				t.Fatal(err)
			}
			op, out = j, &j.(*hashJoinOp).out
		} else {
			j := newNLLoop(c.node(kind), l, r, c.bound(t))
			op, out = j, &j.out
		}
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		bufs := out.joinBufs
		if !holdsString(bufs) {
			t.Fatalf("%s: the build side holds no string to clear", kind)
		}
		for {
			b, err := op.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			b.Release()
		}
		op.Close()
		if out.joinBufs != nil || holdsString(bufs) {
			t.Errorf("%s: the closed join's storage still holds its strings", kind)
		}
	}

	s := shipperPool.Get().(*shipper)
	b := NewBatch()
	fillCols(t, b.Data(), rows, types)
	if err := s.pend.bind(b, types); err != nil {
		t.Fatal(err)
	}
	s.pend.add(b, 0, BatchSize/4)
	s.pend.n = 0
	s.pend.add(b, 0, 3) // a short last frame leaves the first behind its length
	s.enc.EncodeCols(nil, s.pend.cols, s.pend.n)
	b.Release()
	s.release()
	for c := range s.pend.cols {
		v := &s.pend.cols[c]
		if slices.ContainsFunc(v.S[:cap(v.S)], func(s string) bool { return s != "" }) {
			t.Errorf("released shipper: packed column %d still holds strings", c)
		}
	}
	if slices.ContainsFunc(s.pend.src, func(v *expr.Vec) bool { return v != nil }) {
		t.Error("released shipper still points at its last batch's columns")
	}
}

// reuseCluster holds L (2,000 rows) at SA and R (1,600 rows) at SB with
// the same columns: an integer, a string and a float key (NULLs in
// each, -0.0 and 0.0 among the floats), a string payload of 0–60
// bytes (NULLs too) and a row number i.
func reuseCluster(t *testing.T) (l, r *schema.Table, cl *cluster.Cluster) {
	t.Helper()
	cols := []schema.Column{{Name: "ki", Type: expr.TInt}, {Name: "ks", Type: expr.TString},
		{Name: "kf", Type: expr.TFloat}, {Name: "p", Type: expr.TString}, {Name: "i", Type: expr.TInt}}
	l = schema.NewTable("L", "dl", "SA", 2000, cols...)
	r = schema.NewTable("R", "dr", "SB", 1600, cols...)
	cat := schema.NewCatalog()
	cat.MustAddTable(l)
	cat.MustAddTable(r)
	cl = cluster.New(cat, network.FiveRegionWAN(cat.Locations()))
	rows := func(n, shift int) []expr.Row {
		out := make([]expr.Row, n)
		for i := range out {
			k := (i + shift) % 251
			row := expr.Row{expr.NewInt(int64(k)), expr.NewString(fmt.Sprintf("key-%d", k)),
				expr.NewFloat(float64(k) / 2), expr.NewString(strings.Repeat("v", (i*7)%61)), expr.NewInt(int64(i))}
			switch {
			case k == 0 && i%2 == 1:
				row[2] = expr.NewFloat(math.Copysign(0, -1))
			case i%17 == 0:
				row[0] = expr.TypedNull(expr.TInt)
			case i%19 == 0:
				row[1] = expr.TypedNull(expr.TString)
			case i%23 == 0:
				row[2] = expr.TypedNull(expr.TFloat)
			}
			if i%7 == 0 {
				row[3] = expr.TypedNull(expr.TString)
			}
			out[i] = row
		}
		return out
	}
	if err := cl.LoadFragment(l, 0, rows(2000, 0)); err != nil {
		t.Fatal(err)
	}
	if err := cl.LoadFragment(r, 0, rows(1600, 13)); err != nil {
		t.Fatal(err)
	}
	return l, r, cl
}

// TestPooledStorageReuse runs hash joins over two exchanges back to
// back and then concurrently: key lanes alternate int → string → float
// (and int = float), build sides shrink and grow between runs, and so
// do the frames the exchanges ship. Every run answers like the
// reference evaluator, and every repeat of a plan in the order its
// first run did.
func TestPooledStorageReuse(t *testing.T) {
	l, r, cl := reuseCluster(t)
	col := expr.NewCol
	ci := func(v int64) expr.Expr { return expr.NewConst(expr.NewInt(v)) }
	side := func(tab *schema.Table, alias, from string, limit int64) *plan.Node {
		f := plan.NewFilter(plan.NewScan(tab, alias, -1), expr.NewCmp(expr.LT, col(alias, "i"), ci(limit)))
		return plan.NewShip(f, from, "SC")
	}
	type run struct {
		name string
		root *plan.Node
		want []string
	}
	var runs []run
	for _, sizes := range [][2]int64{{2000, 1600}, {40, 7}, {900, 1200}, {2000, 0}, {300, 1600}} {
		for _, keys := range [][2]string{{"ki", "ki"}, {"ks", "ks"}, {"kf", "kf"}, {"ki", "kf"}} {
			cond := expr.NewCmp(expr.EQ, col("l", keys[0]), col("r", keys[1]))
			root := plan.NewJoin(side(l, "l", "SA", sizes[0]), side(r, "r", "SB", sizes[1]), cond)
			root.Kind = plan.HashJoin
			want, err := refeval.Eval(root, cl)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, run{fmt.Sprintf("l.%s = r.%s, %d × %d rows", keys[0], keys[1], sizes[0], sizes[1]), root, canon(want)})
		}
	}
	ordered := make([]string, len(runs))
	for rep := 0; rep < 2; rep++ {
		for i, rn := range runs {
			rows, _, err := Run(rn.root, cl)
			if err != nil {
				t.Fatalf("%s: %v", rn.name, err)
			}
			if !slices.Equal(canon(rows), rn.want) {
				t.Fatalf("run %d, %s: %d rows differ from the reference's %d", rep, rn.name, len(rows), len(rn.want))
			}
			if o := fmt.Sprint(rows); rep == 0 {
				ordered[i] = o
			} else if o != ordered[i] {
				t.Fatalf("run %d, %s: rows in another order than the first run's", rep, rn.name)
			}
		}
	}
	var wg sync.WaitGroup
	for g, stride := range []int{1, 3, 7, 9} { // each coprime to len(runs): a permutation
		wg.Add(1)
		go func(g, stride int) {
			defer wg.Done()
			for k := range runs {
				rn := runs[(k*stride+g)%len(runs)]
				rows, _, err := Run(rn.root, cl)
				if err != nil {
					t.Errorf("worker %d, %s: %v", g, rn.name, err)
					return
				}
				if !slices.Equal(canon(rows), rn.want) {
					t.Errorf("worker %d, %s: %d rows differ from the reference's %d", g, rn.name, len(rows), len(rn.want))
					return
				}
			}
		}(g, stride)
	}
	wg.Wait()
}
