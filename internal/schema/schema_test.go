package schema

import (
	"sync"
	"testing"

	"cgdqp/internal/expr"
)

func demoTable() *Table {
	t := NewTable("Customer", "db-1", "L1", 1500,
		Column{Name: "custkey", Type: expr.TInt},
		Column{Name: "name", Type: expr.TString, AvgWidth: 18},
		Column{Name: "acctbal", Type: expr.TFloat},
		Column{Name: "mktsegment", Type: expr.TString},
	)
	t.SetColStats("custkey", ColStats{Distinct: 1500, Min: expr.NewInt(1), Max: expr.NewInt(1500)})
	t.SetColStats("mktsegment", ColStats{Distinct: 5})
	return t
}

func TestTableBasics(t *testing.T) {
	tab := demoTable()
	if tab.RowCount() != 1500 {
		t.Errorf("RowCount = %d", tab.RowCount())
	}
	if tab.Location() != "L1" || tab.DB() != "db-1" {
		t.Errorf("placement: %s %s", tab.Location(), tab.DB())
	}
	if tab.Fragmented() {
		t.Error("single fragment should not be fragmented")
	}
	c, ok := tab.Column("ACCTBAL")
	if !ok || c.Type != expr.TFloat {
		t.Errorf("case-insensitive column lookup: %v %v", c, ok)
	}
	if _, ok := tab.Column("nope"); ok {
		t.Error("unknown column should miss")
	}
	names := tab.ColumnNames()
	if len(names) != 4 || names[0] != "custkey" {
		t.Errorf("ColumnNames: %v", names)
	}
	// Row width: 8 + 18 + 8 + 16 (default string).
	if w := tab.RowWidth(); w != 50 {
		t.Errorf("RowWidth = %d, want 50", w)
	}
	if s := tab.Stats("custkey"); s.Distinct != 1500 {
		t.Errorf("Stats: %+v", s)
	}
	if s := tab.Stats("unknown"); s.Distinct != 0 {
		t.Errorf("unknown stats should be zero: %+v", s)
	}
}

func TestColumnWidthDefaults(t *testing.T) {
	if (Column{Type: expr.TInt}).Width() != 8 {
		t.Error("int width")
	}
	if (Column{Type: expr.TString}).Width() != 16 {
		t.Error("string default width")
	}
	if (Column{Type: expr.TString, AvgWidth: 25}).Width() != 25 {
		t.Error("explicit width")
	}
	if (Column{Type: expr.TBool}).Width() != 1 {
		t.Error("bool width")
	}
}

func TestCatalogAddAndResolve(t *testing.T) {
	c := NewCatalog()
	c.MustAddTable(demoTable())
	c.MustAddTable(NewTable("Orders", "db-2", "L2", 15000,
		Column{Name: "orderkey", Type: expr.TInt},
		Column{Name: "custkey", Type: expr.TInt},
		Column{Name: "totalprice", Type: expr.TFloat},
	))

	if got := c.Locations(); len(got) != 2 || got[0] != "L1" || got[1] != "L2" {
		t.Errorf("Locations: %v", got)
	}
	if db := c.DatabaseAt("L2"); db != "db-2" {
		t.Errorf("DatabaseAt: %s", db)
	}
	if db := c.DatabaseAt("L9"); db != "" {
		t.Errorf("DatabaseAt unknown: %q", db)
	}

	tab, ok := c.Table("customer") // case-insensitive
	if !ok || tab.Name != "Customer" {
		t.Errorf("Table lookup: %v %v", tab, ok)
	}
	if _, ok := c.Table("lineitem"); ok {
		t.Error("unknown table should miss")
	}

	tabs := c.Tables()
	if len(tabs) != 2 || tabs[0].Name != "Customer" || tabs[1].Name != "Orders" {
		t.Errorf("Tables sorted: %v", tabs)
	}
}

func TestCatalogErrors(t *testing.T) {
	c := NewCatalog()
	c.MustAddTable(demoTable())
	if err := c.AddTable(demoTable()); err == nil {
		t.Error("duplicate table should error")
	}
	if err := c.AddTable(&Table{Name: "empty", Columns: []Column{{Name: "a"}}}); err == nil {
		t.Error("table without fragments should error")
	}
	if err := c.AddTable(&Table{Name: "nocols", Fragments: []Fragment{{Location: "L1"}}}); err == nil {
		t.Error("table without columns should error")
	}
}

func TestFragmentedTable(t *testing.T) {
	c := NewCatalog()
	frag := &Table{
		Name:    "Orders",
		Columns: []Column{{Name: "orderkey", Type: expr.TInt}},
		Fragments: []Fragment{
			{DB: "db-1", Location: "L1", RowCount: 500},
			{DB: "db-2", Location: "L2", RowCount: 700},
			{DB: "db-3", Location: "L3", RowCount: 300},
		},
	}
	c.MustAddTable(frag)
	if !frag.Fragmented() {
		t.Error("should be fragmented")
	}
	if frag.RowCount() != 1500 {
		t.Errorf("fragment sum: %d", frag.RowCount())
	}
	if got := c.Locations(); len(got) != 3 {
		t.Errorf("fragment locations registered: %v", got)
	}
}

func TestAddLocationIdempotent(t *testing.T) {
	c := NewCatalog()
	c.AddLocation("L1")
	c.AddLocation("L1")
	c.AddLocation("L2")
	if got := c.Locations(); len(got) != 2 {
		t.Errorf("Locations: %v", got)
	}
	// Mutating the returned slice must not corrupt the catalog.
	got := c.Locations()
	got[0] = "HACKED"
	if c.Locations()[0] != "L1" {
		t.Error("Locations leaked internal slice")
	}
}

// TestCatalogVersion: the version moves once per change — also for an
// AddTable that registers locations on the way — and not at all for a
// call that changes nothing.
func TestCatalogVersion(t *testing.T) {
	c := NewCatalog()
	step := func(what string, want uint64, f func() error) {
		t.Helper()
		before := c.Version()
		err := f()
		if got := c.Version() - before; got != want {
			t.Errorf("%s (err=%v) moved the version by %d, want %d", what, err, got, want)
		}
	}
	step("AddLocation", 1, func() error { c.AddLocation("L0"); return nil })
	step("repeated AddLocation", 0, func() error { c.AddLocation("L0"); return nil })
	step("AddTable at two new locations", 1, func() error {
		return c.AddTable(&Table{Name: "F", Columns: []Column{{Name: "k", Type: expr.TInt}},
			Fragments: []Fragment{{DB: "d1", Location: "L1", RowCount: 1}, {DB: "d2", Location: "L2", RowCount: 2}}})
	})
	step("duplicate AddTable", 0, func() error { return c.AddTable(NewTable("f", "d1", "L1", 1, Column{Name: "k"})) })
	step("SetColStats", 1, func() error { return c.SetColStats("f", "K", ColStats{Distinct: 3}) })
	step("SetColStats on an unknown table", 0, func() error { return c.SetColStats("nope", "k", ColStats{}) })
	step("SetTableStats", 1, func() error { return c.SetTableStats("F", []int64{5, 6}, map[string]ColStats{"K": {Distinct: 9}}) })
	step("SetTableStats with a missing fragment", 0, func() error { return c.SetTableStats("F", []int64{5}, nil) })
	step("AddIndex", 1, func() error { return c.AddIndex("F", "k") })
	step("AddIndex on an unknown column", 0, func() error { return c.AddIndex("F", "nope") })

	f, _ := c.Table("F")
	if f.RowCount() != 11 || f.FragmentRows(1) != 6 || f.Stats("k").Distinct != 9 || !f.Indexed("K") {
		t.Errorf("published state: rows %d, stats %+v, indexes %v", f.RowCount(), f.Stats("k"), f.IndexList())
	}
	if f.Fragments[1].RowCount != 2 || len(f.Indexes) != 0 {
		t.Errorf("publishing wrote into the fields the table was built with: %+v %v", f.Fragments, f.Indexes)
	}
	defer func() {
		if recover() == nil {
			t.Error("Table.SetColStats on a registered table did not panic")
		}
	}()
	f.SetColStats("k", ColStats{})
}

// TestConcurrentStatsPublish (run under -race): readers never see a torn
// generation. Every publish keeps the fragment counts summing to 1000
// and sets the distinct count to fragment 0's rows.
func TestConcurrentStatsPublish(t *testing.T) {
	c := NewCatalog()
	tab := &Table{Name: "F", Columns: []Column{{Name: "k", Type: expr.TInt}},
		Fragments: []Fragment{{DB: "d1", Location: "L1", RowCount: 1000}, {DB: "d2", Location: "L2"}},
		ColStats:  map[string]ColStats{"k": {Distinct: 1000}}}
	c.MustAddTable(tab)
	var readers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n := tab.RowCount(); n != 1000 {
					t.Errorf("RowCount %d summed over two generations", n)
					return
				}
				if s := tab.live.Load(); s.fragRows[0] != s.cols["k"].Distinct {
					t.Errorf("generation with %d rows and %d distinct", s.fragRows[0], s.cols["k"].Distinct)
					return
				}
				_, _ = tab.Stats("k"), c.Tables()
			}
		}()
	}
	for g := int64(0); g < 500; g++ {
		if err := c.SetTableStats("F", []int64{g, 1000 - g}, map[string]ColStats{"k": {Distinct: g}}); err != nil {
			t.Fatal(err)
		}
		if err := c.SetColStats("F", "k", ColStats{Distinct: g}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()
}
