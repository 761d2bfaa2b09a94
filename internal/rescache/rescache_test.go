package rescache

import (
	"fmt"
	"sync"
	"testing"

	"cgdqp/internal/executor"
	"cgdqp/internal/expr"
	"cgdqp/internal/leakcheck"
	"cgdqp/internal/obs"
	"cgdqp/internal/plan"
	"cgdqp/internal/schema"
)

// The tests execute plans, and every SHIP starts a producer goroutine.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// fixture builds a two-site located plan: scan t1 at A, ship to B.
func fixturePlan(tb testing.TB, table string) *plan.Node {
	tb.Helper()
	t1 := schema.NewTable(table, "db1", "A", 10,
		schema.Column{Name: "a", Type: expr.TInt})
	scan := plan.NewScan(t1, table, -1)
	scan.Loc = "A"
	ship := plan.NewShip(scan, "A", "B")
	return ship
}

type testView struct {
	epochs  map[string]uint64
	policy  uint64
	recheck func(*plan.Node) bool
}

func (v *testView) view() View {
	return View{
		DataEpoch:   func(t string) uint64 { return v.epochs[t] },
		PolicyEpoch: func() uint64 { return v.policy },
		Recheck:     v.recheck,
	}
}

func rowsFixture(n int) []expr.Row {
	rows := make([]expr.Row, n)
	for i := range rows {
		rows[i] = expr.Row{expr.NewInt(int64(i)), expr.NewString("v")}
	}
	return rows
}

func TestKeyVariesWithRootSiteAndOptions(t *testing.T) {
	v := &testView{epochs: map[string]uint64{}}
	p := fixturePlan(t, "t1")
	k1 := Prepare(p, "", v.view()).Key
	k2 := Prepare(p, "wc", v.view()).Key

	p2 := p.Clone()
	p2.Loc = "C"
	p2.ToLoc = "C"
	k3 := Prepare(p2, "", v.view()).Key
	if k1 == k2 {
		t.Fatalf("options fingerprint not in key")
	}
	if k1 == k3 {
		t.Fatalf("root site not in key")
	}
	if k := Prepare(p, "", v.view()).Key; k != k1 {
		t.Fatalf("key not deterministic: %s vs %s", k, k1)
	}
}

func TestHitIsDeepCopiedBothWays(t *testing.T) {
	v := &testView{epochs: map[string]uint64{"t1": 3}}
	c := New(1 << 20)
	p := fixturePlan(t, "t1")
	fill := Prepare(p, "", v.view())

	in := rowsFixture(4)
	audit := []obs.AuditRecord{{From: "A", To: "B", Relations: []string{"t1"}, Rows: 4}}
	c.Put(fill, in, []string{"a", "v"}, executor.RunStats{RowsOut: 4}, audit, 1.5)

	// Mutating what the caller passed in must not reach the cache.
	in[0][0] = expr.NewInt(999)

	r1, ok := c.Get(fill.Key, v.view())
	if !ok {
		t.Fatalf("expected hit")
	}
	if r1.Rows[0][0].I != 0 {
		t.Fatalf("Put aliased caller rows: got %v", r1.Rows[0][0])
	}
	// Mutating a served copy must not corrupt later hits.
	r1.Rows[1][0] = expr.NewInt(-7)
	r1.Columns[0] = "mutated"

	r2, ok := c.Get(fill.Key, v.view())
	if !ok {
		t.Fatalf("expected second hit")
	}
	if r2.Rows[1][0].I != 1 || r2.Columns[0] != "a" {
		t.Fatalf("served copy aliased cache: %v %v", r2.Rows[1][0], r2.Columns)
	}
	if r2.Stats.RowsOut != 4 || len(r2.Audit) != 1 || r2.ShipCost != 1.5 {
		t.Fatalf("stats/audit not replayed: %+v", r2)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Fills != 1 || st.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDataEpochInvalidates(t *testing.T) {
	v := &testView{epochs: map[string]uint64{"t1": 1}}
	c := New(1 << 20)
	fill := Prepare(fixturePlan(t, "t1"), "", v.view())
	c.Put(fill, rowsFixture(2), []string{"a", "v"}, executor.RunStats{RowsOut: 2}, nil, 0)

	if _, ok := c.Get(fill.Key, v.view()); !ok {
		t.Fatalf("expected hit before load")
	}
	v.epochs["t1"]++ // a load into t1
	if _, ok := c.Get(fill.Key, v.view()); ok {
		t.Fatalf("served stale result after data epoch bump")
	}
	st := c.Stats()
	if st.InvalidatedData != 1 || st.Entries != 0 {
		t.Fatalf("stats after invalidation: %+v", st)
	}
	// The entry is gone: even restoring the old epoch cannot revive it.
	v.epochs["t1"]--
	if _, ok := c.Get(fill.Key, v.view()); ok {
		t.Fatalf("invalidated entry revived")
	}
}

func TestPolicyEpochRecheck(t *testing.T) {
	allow := true
	var rechecks int
	v := &testView{epochs: map[string]uint64{}, recheck: func(p *plan.Node) bool {
		rechecks++
		if p == nil || p.Kind != plan.Ship {
			t.Fatalf("recheck got wrong plan: %+v", p)
		}
		return allow
	}}
	c := New(1 << 20)
	fill := Prepare(fixturePlan(t, "t1"), "", v.view())
	c.Put(fill, rowsFixture(1), []string{"a", "v"}, executor.RunStats{}, nil, 0)

	// Unchanged policy epoch: no recheck needed.
	if _, ok := c.Get(fill.Key, v.view()); !ok {
		t.Fatalf("expected hit")
	}
	if rechecks != 0 {
		t.Fatalf("recheck ran with unchanged epoch")
	}

	// Epoch moved but provenance still compliant: served, epoch adopted.
	v.policy = 1
	if _, ok := c.Get(fill.Key, v.view()); !ok {
		t.Fatalf("expected hit after passing recheck")
	}
	if rechecks != 1 {
		t.Fatalf("recheck count %d", rechecks)
	}
	if _, ok := c.Get(fill.Key, v.view()); !ok {
		t.Fatalf("expected hit after epoch adoption")
	}
	if rechecks != 1 {
		t.Fatalf("epoch not adopted after successful recheck (%d rechecks)", rechecks)
	}

	// Epoch moved and provenance now forbidden: dropped, re-run required.
	v.policy = 2
	allow = false
	if _, ok := c.Get(fill.Key, v.view()); ok {
		t.Fatalf("served result with non-compliant provenance")
	}
	st := c.Stats()
	if st.InvalidatedPolicy != 1 || st.Rechecked != 1 || st.Entries != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestNilRecheckRefusesOnPolicyChange(t *testing.T) {
	v := &testView{epochs: map[string]uint64{}}
	c := New(1 << 20)
	fill := Prepare(fixturePlan(t, "t1"), "", v.view())
	c.Put(fill, rowsFixture(1), nil, executor.RunStats{}, nil, 0)
	v.policy = 1
	if _, ok := c.Get(fill.Key, v.view()); ok {
		t.Fatalf("nil Recheck must refuse entries from older policy epochs")
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	v := &testView{epochs: map[string]uint64{}}
	c := New(4096)
	var fills []*Fill
	for i := 0; i < 8; i++ {
		f := Prepare(fixturePlan(t, fmt.Sprintf("t%d", i)), "", v.view())
		fills = append(fills, f)
		c.Put(f, rowsFixture(8), []string{"a", "v"}, executor.RunStats{}, nil, 0)
	}
	st := c.Stats()
	if st.Bytes > 4096 {
		t.Fatalf("over budget: %d bytes", st.Bytes)
	}
	if st.Evictions == 0 || st.Entries >= 8 {
		t.Fatalf("expected evictions: %+v", st)
	}
	// Most-recent entries survive; the oldest were evicted.
	if _, ok := c.Get(fills[0].Key, v.view()); ok {
		t.Fatalf("oldest entry survived over newer ones")
	}
	if _, ok := c.Get(fills[7].Key, v.view()); !ok {
		t.Fatalf("newest entry evicted")
	}
}

func TestOversizedResultNotStored(t *testing.T) {
	v := &testView{epochs: map[string]uint64{}}
	c := New(1024)
	fill := Prepare(fixturePlan(t, "t1"), "", v.view())
	c.Put(fill, rowsFixture(1000), nil, executor.RunStats{}, nil, 0)
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized entry stored: %+v", st)
	}
}

func TestPurge(t *testing.T) {
	v := &testView{epochs: map[string]uint64{}}
	c := New(1 << 20)
	fill := Prepare(fixturePlan(t, "t1"), "", v.view())
	c.Put(fill, rowsFixture(2), nil, executor.RunStats{}, nil, 0)
	c.Purge()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("purge left entries: %+v", st)
	}
	if _, ok := c.Get(fill.Key, v.view()); ok {
		t.Fatalf("hit after purge")
	}
}

// TestConcurrentGetPut drives Get/Put/invalidation from many goroutines
// under -race: the cache must stay consistent and every served result
// must be internally intact.
func TestConcurrentGetPut(t *testing.T) {
	var mu sync.Mutex
	epochs := map[string]uint64{}
	view := View{
		DataEpoch: func(tb string) uint64 {
			mu.Lock()
			defer mu.Unlock()
			return epochs[tb]
		},
		PolicyEpoch: func() uint64 { return 0 },
	}
	c := New(64 << 10)
	plans := make([]*Fill, 6)
	for i := range plans {
		plans[i] = Prepare(fixturePlan(t, fmt.Sprintf("t%d", i)), "", view)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f := plans[(g+i)%len(plans)]
				if r, ok := c.Get(f.Key, view); ok {
					if len(r.Rows) != 3 || r.Rows[1][0].I != 1 {
						t.Errorf("corrupt cached result: %+v", r.Rows)
						return
					}
					r.Rows[0][0] = expr.NewInt(-1) // mutate own copy freely
				} else {
					c.Put(f, rowsFixture(3), []string{"a", "v"}, executor.RunStats{RowsOut: 3}, nil, 0)
				}
				if i%37 == 0 {
					mu.Lock()
					epochs[fmt.Sprintf("t%d", g%len(plans))]++
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
}
