package cluster

import (
	"testing"

	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/schema"
)

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
	s1, ok := cl.Site("L1")
	if !ok || s1.DB.Name != "db-1" {
		t.Fatalf("site L1: %v %v", s1, ok)
	}
	if _, ok := cl.Site("L9"); ok {
		t.Error("unknown site")
	}
	if len(cl.Locations()) != 2 {
		t.Errorf("locations: %v", cl.Locations())
	}
	// Single-fragment table stored under its bare name at L1.
	if _, ok := s1.DB.Table("t1"); !ok {
		t.Error("t1 missing at L1")
	}
	// Fragmented table gets per-fragment names.
	if _, ok := s1.DB.Table("frag#0"); !ok {
		t.Error("frag#0 missing at L1")
	}
	s2, _ := cl.Site("L2")
	if _, ok := s2.DB.Table("frag#1"); !ok {
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
