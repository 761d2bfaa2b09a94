package cluster

import (
	"strings"
	"testing"

	"cgdqp/internal/expr"
	"cgdqp/internal/leakcheck"
	"cgdqp/internal/network"
	"cgdqp/internal/schema"
)

// Shipping runs on goroutines: no test may leave one running.
func TestMain(m *testing.M) { leakcheck.Main(m) }

func testCatalog() *schema.Catalog {
	cat := schema.NewCatalog()
	cat.MustAddTable(schema.NewTable("t1", "db-1", "L1", 10,
		schema.Column{Name: "a", Type: expr.TInt}))
	cat.MustAddTable(&schema.Table{
		Name:    "frag",
		Columns: []schema.Column{{Name: "x", Type: expr.TInt}},
		Fragments: []schema.Fragment{
			{DB: "db-1", Location: "L1", RowCount: 2},
			{DB: "db-2", Location: "L2", RowCount: 2},
		},
	})
	return cat
}

func TestClusterSetup(t *testing.T) {
	cat := testCatalog()
	cl := New(cat, network.NewCostModel(1, 0.001))
	s1, ok := cl.sites["L1"]
	if !ok {
		t.Fatal("no engine at L1")
	}
	if _, ok := cl.sites["L9"]; ok {
		t.Error("unknown site")
	}
	if len(cl.Locations()) != 2 {
		t.Errorf("locations: %v", cl.Locations())
	}
	// Single-fragment table stored under its bare name at L1.
	if _, ok := s1.Table("t1"); !ok {
		t.Error("t1 missing at L1")
	}
	// Fragmented table gets per-fragment names.
	if _, ok := s1.Table("frag#0"); !ok {
		t.Error("frag#0 missing at L1")
	}
	if _, ok := cl.sites["L2"].Table("frag#1"); !ok {
		t.Error("frag#1 missing at L2")
	}
}

func TestLoadAndReadFragments(t *testing.T) {
	cat := testCatalog()
	cl := New(cat, network.NewCostModel(1, 0.001))
	tab, _ := cat.Table("t1")
	frag, _ := cat.Table("frag")

	if err := cl.LoadFragment(tab, -1, []expr.Row{{expr.NewInt(1)}}); err != nil {
		t.Fatal(err) // -1 normalizes to fragment 0
	}
	if err := cl.LoadFragment(frag, 0, []expr.Row{{expr.NewInt(10)}, {expr.NewInt(11)}}); err != nil {
		t.Fatal(err)
	}
	if err := cl.LoadFragment(frag, 1, []expr.Row{{expr.NewInt(20)}}); err != nil {
		t.Fatal(err)
	}
	if err := cl.LoadFragment(frag, 5, nil); err == nil {
		t.Error("bad fragment index must fail")
	}
	// -1 names the sole fragment: a fragmented table has none.
	if err := cl.LoadFragment(frag, -1, []expr.Row{{expr.NewInt(30)}}); err == nil {
		t.Error("-1 on a fragmented table must fail")
	}

	rows, err := cl.FragmentRows(frag, 0)
	if err != nil || len(rows) != 2 {
		t.Errorf("frag 0: %v %v", rows, err)
	}
	all, err := cl.AllRows(frag)
	if err != nil || len(all) != 3 {
		t.Errorf("all rows: %v %v", all, err)
	}
	if _, err := cl.FragmentRows(frag, 9); err == nil {
		t.Error("bad index read must fail")
	}
	// A run's ledger prices through the cluster's model.
	run := cl.NewRun()
	run.OpenShipment("L1", "L2").Add(1, 1000)
	if c := run.Ledger().Snapshot().Cost; c != 1+1 {
		t.Errorf("ledger cost: %v", c)
	}
}

// TestRefusedBatchChangesNothing: a batch holding one row too wide for
// a page is refused whole on either pager — row count, scan, index
// lookup and the table's data epoch stay as they were before it, so an
// index read and a scan never disagree and no cached result goes stale.
func TestRefusedBatchChangesNothing(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		cat := schema.NewCatalog()
		cat.MustAddTable(schema.NewTable("t", "db-1", "L1", 10,
			schema.Column{Name: "k", Type: expr.TInt}, schema.Column{Name: "s", Type: expr.TString}))
		if err := cat.AddIndex("t", "k"); err != nil {
			t.Fatal(err)
		}
		cl, err := NewWithStore(cat, network.NewCostModel(1, 0.001), &StoreConfig{DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		tab, _ := cat.Table("t")
		if err := cl.LoadFragment(tab, 0, []expr.Row{{expr.NewInt(0), expr.NewString("seed")}}); err != nil {
			t.Fatal(err)
		}
		epoch := cl.DataEpoch("t")
		batch := []expr.Row{
			{expr.NewInt(1), expr.NewString("a")},
			{expr.NewInt(1), expr.NewString("b")},
			{expr.NewInt(2), expr.NewString(strings.Repeat("x", 9000))},
		}
		if err := cl.LoadFragment(tab, 0, batch); err == nil {
			t.Errorf("dir=%q: a row wider than a page was accepted", dir)
		}
		st, _ := cl.fragmentTable(tab, 0)
		rows, err := cl.FragmentRows(tab, 0)
		if err != nil || len(rows) != 1 || st.RowCount() != 1 {
			t.Errorf("dir=%q: after the refused batch: RowCount %d, scan %d rows (%v), want 1", dir, st.RowCount(), len(rows), err)
		}
		hits, ok, err := cl.IndexLookupRows(tab, 0, "k", expr.NewInt(1))
		if err != nil || !ok || len(hits) != 0 {
			t.Errorf("dir=%q: index lookup k=1 after the refused batch: %d rows, ok=%v, err=%v", dir, len(hits), ok, err)
		}
		if got := cl.DataEpoch("t"); got != epoch {
			t.Errorf("dir=%q: data epoch moved %d -> %d on a refused batch", dir, epoch, got)
		}
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
