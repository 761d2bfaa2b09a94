package executor

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"cgdqp/internal/cluster"
	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/obs"
	"cgdqp/internal/plan"
	"cgdqp/internal/refeval"
	"cgdqp/internal/schema"
)

// parityCluster is the fixture of the repeat-parity table: A
// (2,600 rows over three batches: NULL and duplicate keys, sort ties,
// NULL strings, an index on k) and E (empty) at site SA, B (indexed k)
// at SB, C (B's schema, no index, other NULL positions) at SC.
func parityCluster(t *testing.T) (a, b, c, e *schema.Table, cl *cluster.Cluster) {
	t.Helper()
	a = schema.NewTable("A", "da", "SA", 2600,
		schema.Column{Name: "k", Type: expr.TInt},
		schema.Column{Name: "g", Type: expr.TInt},
		schema.Column{Name: "s", Type: expr.TString},
		schema.Column{Name: "f", Type: expr.TFloat},
		schema.Column{Name: "i", Type: expr.TInt})
	a.Indexes = []string{"k"}
	e = schema.NewTable("E", "da", "SA", 0,
		schema.Column{Name: "k", Type: expr.TInt},
		schema.Column{Name: "w", Type: expr.TInt})
	b = schema.NewTable("B", "db", "SB", 300,
		schema.Column{Name: "k", Type: expr.TInt},
		schema.Column{Name: "w", Type: expr.TInt})
	b.Indexes = []string{"k"}
	c = schema.NewTable("C", "dc", "SC", 120,
		schema.Column{Name: "k", Type: expr.TInt},
		schema.Column{Name: "w", Type: expr.TInt})
	cat := schema.NewCatalog()
	for _, tab := range []*schema.Table{a, b, c, e} {
		cat.MustAddTable(tab)
	}
	cl = cluster.New(cat, network.FiveRegionWAN(cat.Locations()))
	intOrNull := func(v int, null bool) expr.Value {
		if null {
			return expr.TypedNull(expr.TInt)
		}
		return expr.NewInt(int64(v))
	}
	var aRows, bRows, cRows []expr.Row
	for i := 0; i < 2600; i++ {
		s := expr.NewString(fmt.Sprintf("s-%02d", i%17))
		if i%29 == 0 {
			s = expr.TypedNull(expr.TString)
		}
		aRows = append(aRows, expr.Row{
			intOrNull(i%97, i%13 == 0), expr.NewInt(int64(i % 5)), s,
			expr.NewFloat(float64(i%40) / 4), expr.NewInt(int64(i)),
		})
	}
	for i := 0; i < 300; i++ {
		bRows = append(bRows, expr.Row{intOrNull(i%120, i%11 == 0), expr.NewInt(int64(i))})
	}
	for i := 0; i < 120; i++ {
		cRows = append(cRows, expr.Row{intOrNull(i%50, i%7 == 0), expr.NewInt(int64(i * 2))})
	}
	for _, ld := range []struct {
		tab  *schema.Table
		rows []expr.Row
	}{{a, aRows}, {b, bRows}, {c, cRows}, {e, nil}} {
		if err := cl.LoadFragment(ld.tab, 0, ld.rows); err != nil {
			t.Fatal(err)
		}
	}
	return a, b, c, e, cl
}

// cellResult is everything one execution exposes, rendered for
// byte-wise comparison.
type cellResult struct {
	rows    []expr.Row
	stats   RunStats
	ordered string // rows in emission order
	audit   string
	profile string // rows/batches/opens per plan node, pre-order
}

// profileCounts renders the deterministic part of a plan profile.
func profileCounts(prof *obs.PlanProfile, n *plan.Node, depth int, b *strings.Builder) {
	if st := prof.Peek(n); st != nil {
		fmt.Fprintf(b, "%*s%s rows=%d batches=%d opens=%d\n", depth*2, "", n.Kind,
			st.Rows.Load(), st.Batches.Load(), st.Opens.Load())
	} else {
		fmt.Fprintf(b, "%*s%s (never built)\n", depth*2, "", n.Kind)
	}
	for _, ch := range n.Children {
		profileCounts(prof, ch, depth+1, b)
	}
}

// settleGoroutines fails unless the goroutine count returns to (at
// most) the baseline; exiting goroutines get a moment to unwind.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d -> %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// observedRun executes the plan once under a full observer (audit log
// and plan profile) and renders what it exposes.
func observedRun(root *plan.Node, cl *cluster.Cluster, opt ExecOptions) (cellResult, error) {
	prof := obs.NewPlanProfile()
	o := (&obs.Observer{Audit: obs.NewAuditLog()}).WithProfile(prof)
	rows, stats, err := RunParallelOpts(context.Background(), root, cl, o, opt)
	if err != nil {
		return cellResult{}, err
	}
	var ordered, pb strings.Builder
	for _, r := range rows {
		fmt.Fprintln(&ordered, r)
	}
	profileCounts(prof, root, 0, &pb)
	return cellResult{rows: rows, stats: *stats, ordered: ordered.String(), audit: o.Audit.String(), profile: pb.String()}, nil
}

// runCell executes the plan once and checks it left no goroutine
// behind.
func runCell(t *testing.T, root *plan.Node, cl *cluster.Cluster) cellResult {
	t.Helper()
	before := runtime.NumGoroutine()
	r, err := observedRun(root, cl, ExecOptions{})
	if err != nil {
		t.Fatalf("%v\n%s", err, root.Format(true))
	}
	settleGoroutines(t, before)
	return r
}

// sameCell reports every way got differs from want: rows and their
// order, RunStats, audit text, per-node profile counts.
func sameCell(t *testing.T, label string, got, want cellResult) {
	t.Helper()
	if got.ordered != want.ordered {
		t.Errorf("%s: rows or their order differ", label)
	}
	if got.stats != want.stats {
		t.Errorf("%s: stats %+v, want %+v", label, got.stats, want.stats)
	}
	if got.audit != want.audit {
		t.Errorf("%s: audit log differs:\n%s\nwant\n%s", label, got.audit, want.audit)
	}
	if got.profile != want.profile {
		t.Errorf("%s: profile counts differ:\n%s\nwant\n%s", label, got.profile, want.profile)
	}
}

// parityRepeats is how often each case of the repeat-parity table runs.
const parityRepeats = 3

// TestExchangeModeParity runs hand-built plans covering every plan.Kind
// the builder accepts, parityRepeats times each. Every SHIP's producer
// runs on its own goroutine, so the runs interleave differently, yet
// rows and their order, RunStats, the rendered audit log and the
// per-node profile counts must be byte-identical across all of them,
// and the rows — of a plan without a LIMIT, which may keep any of them
// — the multiset the reference evaluator finds.
func TestExchangeModeParity(t *testing.T) {
	a, b, c, e, cl := parityCluster(t)
	multiShip, multiShipCl := chaosPlan(t)

	col := expr.NewCol
	ci := func(v int64) expr.Expr { return expr.NewConst(expr.NewInt(v)) }
	cf := func(v float64) expr.Expr { return expr.NewConst(expr.NewFloat(v)) }
	scan := func(tab *schema.Table, alias string) *plan.Node { return plan.NewScan(tab, alias, -1) }
	as := func(n *plan.Node, k plan.Kind) *plan.Node { n.Kind = k; return n }
	eqK := func(l, r string) expr.Expr { return expr.NewCmp(expr.EQ, col(l, "k"), col(r, "k")) }
	filterA := func() *plan.Node {
		return plan.NewFilter(scan(a, "a"), expr.NewAnd(
			expr.NewCmp(expr.GE, col("a", "g"), ci(2)),
			expr.NewCmp(expr.LT, col("a", "f"), cf(7.5))))
	}
	projs := func() []plan.NamedExpr {
		return []plan.NamedExpr{
			{E: col("a", "s")},
			{E: expr.NewArith(expr.Mul, col("a", "f"), ci(3)), Name: "tri"},
			{E: ci(42), Name: "c"},
		}
	}
	indexScan := func(tab *schema.Table, alias string, lo, hi int64) *plan.Node {
		n := as(scan(tab, alias), plan.IndexScan)
		n.FragIdx = 0
		l, h := expr.NewInt(lo), expr.NewInt(hi)
		n.IdxCol, n.IdxLo, n.IdxHi, n.IdxLoInc = "k", &l, &h, true
		n.Pred = expr.AndAll(
			expr.NewCmp(expr.GE, col(alias, "k"), expr.NewConst(l)),
			expr.NewCmp(expr.LT, col(alias, "k"), expr.NewConst(h)),
			expr.NewCmp(expr.NE, col(alias, "k"), ci(lo+1)))
		return n
	}
	lookupJoin := func(inner *schema.Table) *plan.Node {
		in := scan(inner, "r")
		in.FragIdx = 0
		j := as(plan.NewJoin(scan(b, "l"), in, expr.NewAnd(eqK("l", "r"),
			expr.NewCmp(expr.NE, col("l", "w"), ci(5)))), plan.IndexLookupJoin)
		j.IdxCol, j.IdxOuter = "k", col("l", "k")
		return j
	}
	wantRows := func(n int) func(*testing.T, cellResult) {
		return func(t *testing.T, r cellResult) {
			if len(r.rows) != n {
				t.Errorf("rows: %d, want %d", len(r.rows), n)
			}
		}
	}

	cases := []struct {
		name  string
		cl    *cluster.Cluster
		root  *plan.Node
		check func(*testing.T, cellResult)
	}{
		{"scan", cl, scan(a, "a"), wantRows(2600)},
		{"filter", cl, filterA(), nil},
		{"filter+project", cl, plan.NewProject(filterA(), projs()), nil},
		{"project", cl, plan.NewProject(scan(a, "a"), projs()), wantRows(2600)},
		{"hash join over ships null keys residual", cl,
			as(plan.NewJoin(plan.NewShip(scan(b, "l"), "SB", "SA"), plan.NewShip(scan(c, "r"), "SC", "SA"),
				expr.NewAnd(eqK("l", "r"), expr.NewCmp(expr.LT, col("l", "w"), col("r", "w")))), plan.HashJoin),
			func(t *testing.T, r cellResult) {
				for _, row := range r.rows {
					if row[0].IsNull() || row[2].IsNull() || row[0].Int() != row[2].Int() || row[1].Int() >= row[3].Int() {
						t.Fatalf("bad join row %v", row)
					}
				}
				if r.stats.ShippedRows != 420 {
					t.Errorf("shipped rows %d, want 420", r.stats.ShippedRows)
				}
			}},
		{"nl join", cl, as(plan.NewJoin(scan(b, "l"), scan(c, "r"), expr.NewAnd(eqK("l", "r"),
			expr.NewCmp(expr.LT, col("l", "w"), col("r", "w")))), plan.NLJoin), nil},
		{"hash agg", cl, as(plan.NewAggregate(scan(a, "a"), []*expr.Col{col("a", "g")}, []plan.NamedAgg{
			{Fn: expr.AggSum, Arg: col("a", "f"), Name: "sf"}, {Fn: expr.AggCount, Name: "n"},
			{Fn: expr.AggMin, Arg: col("a", "s"), Name: "ms"}, {Fn: expr.AggAvg, Arg: col("a", "k"), Name: "ak"},
		}), plan.HashAgg), wantRows(5)},
		{"sort multi-key desc asc nulls ties", cl,
			plan.NewSort(scan(a, "a"), []plan.SortKey{{E: col("a", "g"), Desc: true}, {E: col("a", "k")}}),
			func(t *testing.T, r cellResult) {
				if len(r.rows) != 2600 {
					t.Fatalf("rows: %d", len(r.rows))
				}
				for i := 1; i < len(r.rows); i++ {
					p, q := r.rows[i-1], r.rows[i]
					switch {
					case p[1].Int() != q[1].Int():
						if p[1].Int() < q[1].Int() {
							t.Fatalf("row %d: g not descending", i)
						}
					case p[0].IsNull() != q[0].IsNull():
						if q[0].IsNull() {
							t.Fatalf("row %d: NULL k after a non-NULL one (ascending sorts NULLs first)", i)
						}
					case !p[0].IsNull() && p[0].Int() != q[0].Int():
						if p[0].Int() > q[0].Int() {
							t.Fatalf("row %d: k not ascending", i)
						}
					default:
						if p[4].Int() > q[4].Int() {
							t.Fatalf("row %d: tie broke input order (sort must be stable)", i)
						}
					}
				}
			}},
		{"sort by expression desc nulls last", cl,
			plan.NewSort(scan(a, "a"), []plan.SortKey{{E: expr.NewArith(expr.Add, col("a", "k"), col("a", "g")), Desc: true}}),
			func(t *testing.T, r cellResult) {
				if !r.rows[len(r.rows)-1][0].IsNull() || r.rows[0][0].IsNull() {
					t.Errorf("descending sort must put NULL keys last")
				}
			}},
		{"limit over ship", cl, plan.NewLimit(plan.NewShip(scan(a, "a"), "SA", "SB"), 5),
			func(t *testing.T, r cellResult) {
				if len(r.rows) != 5 {
					t.Errorf("rows: %d, want 5", len(r.rows))
				}
				if r.stats.ShippedRows != 2600 {
					t.Errorf("the producer must ship all 2600 rows despite the limit, got %d", r.stats.ShippedRows)
				}
			}},
		{"union of ships", cl, plan.NewUnion(plan.NewShip(scan(b, "x"), "SB", "SA"), plan.NewShip(scan(c, "x"), "SC", "SA")), wantRows(420)},
		{"index scan", cl, indexScan(a, "a", 10, 20), func(t *testing.T, r cellResult) {
			// Index reads come in row-ID order: the filtered full scan's
			// rows, in the same order.
			want := runCell(t, plan.NewFilter(scan(a, "a"), indexScan(a, "a", 10, 20).Pred), cl)
			if len(r.rows) == 0 || r.ordered != want.ordered {
				t.Errorf("index scan returned %d rows, want the filtered scan's %d in its order", len(r.rows), len(want.rows))
			}
		}},
		{"index scan index unusable", cl, indexScan(c, "c", 10, 20), nil},
		{"index lookup join", cl, lookupJoin(a), nil},
		{"index lookup join over a filtered outer", cl, func() *plan.Node {
			j := lookupJoin(a)
			j.Children[0] = plan.NewFilter(j.Children[0], expr.NewCmp(expr.GE, col("l", "w"), ci(100)))
			return j
		}(), func(t *testing.T, r cellResult) {
			// The same multiset as the hash join of the filtered outer.
			h := lookupJoin(a)
			h.Kind, h.Children[0] = plan.HashJoin, plan.NewFilter(h.Children[0], expr.NewCmp(expr.GE, col("l", "w"), ci(100)))
			got, want := strings.Split(r.ordered, "\n"), strings.Split(runCell(t, h, cl).ordered, "\n")
			slices.Sort(got)
			slices.Sort(want)
			if len(r.rows) == 0 || !slices.Equal(got, want) {
				t.Errorf("index lookup join returned %d rows, want the hash join's %d", len(r.rows), len(want)-1)
			}
		}},
		{"index lookup join probeFallback", cl, lookupJoin(c), nil},
		{"empty inputs", cl, plan.NewLimit(plan.NewSort(as(plan.NewAggregate(
			plan.NewProject(plan.NewFilter(plan.NewShip(scan(e, "e"), "SA", "SB"), expr.NewCmp(expr.GT, col("e", "k"), ci(0))),
				[]plan.NamedExpr{{E: col("e", "w")}}),
			[]*expr.Col{col("e", "w")}, []plan.NamedAgg{{Fn: expr.AggCount, Name: "n"}}), plan.HashAgg),
			[]plan.SortKey{{E: col("e", "w")}}), 5),
			func(t *testing.T, r cellResult) {
				if len(r.rows) != 0 {
					t.Errorf("rows: %d, want 0", len(r.rows))
				}
				if r.stats.ShipCost <= 0 {
					t.Errorf("an empty inter-site ship must still pay the start-up cost, got %+v", r.stats)
				}
			}},
		{"empty join sides", cl, plan.NewUnion(
			as(plan.NewJoin(scan(e, "l"), scan(b, "r"), eqK("l", "r")), plan.HashJoin),
			as(plan.NewJoin(scan(e, "l"), scan(e, "r"), eqK("l", "r")), plan.NLJoin)), wantRows(0)},
		{"global agg over empty input", cl, as(plan.NewAggregate(scan(e, "e"), nil,
			[]plan.NamedAgg{{Fn: expr.AggCount, Name: "n"}, {Fn: expr.AggSum, Arg: col("e", "w"), Name: "s"}}), plan.HashAgg), wantRows(1)},
		{"multi-ship join", multiShipCl, multiShip, func(t *testing.T, r cellResult) {
			if len(r.rows) != 200 {
				t.Errorf("rows: %d, want 200", len(r.rows))
			}
			if frags := plan.SplitFragments(multiShip); len(frags) != 4 {
				t.Errorf("fragments: got %d, want 4", len(frags))
			}
			if r.stats.ShippedRows == 0 || r.stats.ShipCost <= 0 {
				t.Errorf("ship stats not recorded: %+v", r.stats)
			}
		}},
	}

	covered := map[plan.Kind]bool{}
	for _, tc := range cases {
		tc.root.Walk(func(n *plan.Node) bool { covered[n.Kind] = true; return true })
		t.Run(tc.name, func(t *testing.T) {
			ref := runCell(t, tc.root, tc.cl)
			if tc.check != nil {
				tc.check(t, ref)
			}
			limited := false
			tc.root.Walk(func(n *plan.Node) bool { limited = limited || n.Kind == plan.Limit; return true })
			if want, err := refeval.Eval(tc.root, tc.cl); err != nil {
				t.Fatalf("reference: %v", err)
			} else if got := canon(ref.rows); !limited && !slices.Equal(got, canon(want)) {
				t.Errorf("%d rows differ from the reference's %d", len(got), len(want))
			}
			for rep := 1; rep < parityRepeats; rep++ {
				sameCell(t, fmt.Sprintf("run %d", rep), runCell(t, tc.root, tc.cl), ref)
			}
		})
	}
	for _, k := range []plan.Kind{plan.Scan, plan.IndexScan, plan.IndexLookupJoin, plan.Filter, plan.Project,
		plan.HashJoin, plan.NLJoin, plan.HashAgg, plan.Sort, plan.Limit, plan.Union, plan.Ship} {
		if !covered[k] {
			t.Errorf("no case covers %s", k)
		}
	}
}

// TestCancelShiplessPlan: a plan without a Ship has no exchange to
// observe cancellation at, so the scans do — once per batch. A context
// cancelled before the run, or while the scan is underway, surfaces as
// context.Canceled without draining the table, and no goroutine
// outlives the run. inline=true runs the scan as the plan's root, so
// the run drains it in line; inline=false puts a Filter above it.
func TestCancelShiplessPlan(t *testing.T) {
	const nRows = 1024 * BatchSize
	mk := func(name string, indexes ...string) *schema.Table {
		tab := schema.NewTable(name, "d", "L", nRows, schema.Column{Name: "k", Type: expr.TInt})
		tab.Indexes = indexes
		return tab
	}
	plain, indexed := mk("plain"), mk("indexed", "k")
	cat := schema.NewCatalog()
	cat.MustAddTable(plain)
	cat.MustAddTable(indexed)
	cl := cluster.New(cat, network.NewCostModel(1, 1e-6))
	row := expr.Row{expr.NewInt(1)}
	rows := make([]expr.Row, nRows)
	for i := range rows {
		rows[i] = row
	}
	for _, tab := range []*schema.Table{plain, indexed} {
		if err := cl.LoadFragment(tab, 0, rows); err != nil {
			t.Fatal(err)
		}
	}
	pred := func(alias string) expr.Expr {
		return expr.NewCmp(expr.EQ, expr.NewCol(alias, "k"), expr.NewConst(expr.NewInt(1)))
	}
	tableScan := plan.NewScan(plain, "p", 0)
	indexScan := plan.NewScan(indexed, "x", 0)
	indexScan.Kind, indexScan.IdxCol, indexScan.Pred = plan.IndexScan, "k", pred("x")

	for _, tc := range []struct {
		name  string
		scan  *plan.Node
		alias string
	}{
		{"scan", tableScan, "p"},
		{"index scan", indexScan, "x"},
	} {
		for _, inline := range []bool{true, false} {
			root := tc.scan
			if !inline {
				root = plan.NewFilter(tc.scan, pred(tc.alias))
			}
			for _, pre := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/inline=%v/precancelled=%v", tc.name, inline, pre), func(t *testing.T) {
					before := runtime.NumGoroutine()
					prof := obs.NewPlanProfile()
					o := (&obs.Observer{}).WithProfile(prof)
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					watcher := make(chan struct{})
					if pre {
						cancel()
						close(watcher)
					} else {
						// Cancel as soon as the scan has delivered a batch.
						go func() {
							defer close(watcher)
							for prof.Stats(tc.scan).Batches.Load() == 0 {
								time.Sleep(20 * time.Microsecond)
							}
							cancel()
						}()
					}
					out, _, err := RunParallelOpts(ctx, root, cl, o, ExecOptions{})
					<-watcher
					if !errors.Is(err, context.Canceled) || out != nil {
						t.Fatalf("got %d rows, error %v; want context.Canceled", len(out), err)
					}
					scanned := prof.Stats(tc.scan).Rows.Load()
					if pre != (scanned == 0) {
						t.Errorf("precancelled=%v run scanned %d rows", pre, scanned)
					}
					if scanned >= nRows {
						t.Errorf("cancelled run drained the table (%d rows)", scanned)
					}
					settleGoroutines(t, before)
				})
			}
		}
	}
}
