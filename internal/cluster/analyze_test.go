package cluster

import (
	"testing"

	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/schema"
)

func TestAnalyze(t *testing.T) {
	cat := schema.NewCatalog()
	tab := schema.NewTable("t", "db-1", "L1", 999, // wrong declared count
		schema.Column{Name: "k", Type: expr.TInt},
		schema.Column{Name: "s", Type: expr.TString},
	)
	cat.MustAddTable(tab)
	cl := New(cat, network.NewCostModel(1, 1e-6))
	var rows []expr.Row
	for i := 0; i < 100; i++ {
		v := expr.NewString("x")
		if i%2 == 0 {
			v = expr.NewString("y")
		}
		if i == 50 {
			v = expr.TypedNull(expr.TString)
		}
		rows = append(rows, expr.Row{expr.NewInt(int64(i % 10)), v})
	}
	if err := cl.LoadFragment(tab, 0, rows); err != nil {
		t.Fatal(err)
	}
	if err := cl.Analyze(cat, tab); err != nil {
		t.Fatal(err)
	}
	// Row count corrected from the declared 999.
	if tab.RowCount() != 100 {
		t.Errorf("row count: %d", tab.RowCount())
	}
	ks := tab.Stats("k")
	if ks.Distinct != 10 || ks.Min.Int() != 0 || ks.Max.Int() != 9 {
		t.Errorf("k stats: %+v", ks)
	}
	ss := tab.Stats("s")
	if ss.Distinct != 2 { // NULL not counted
		t.Errorf("s distinct: %d", ss.Distinct)
	}
	if ss.Min.Str() != "x" || ss.Max.Str() != "y" {
		t.Errorf("s min/max: %v %v", ss.Min, ss.Max)
	}
}

func TestAnalyzeAllFragmented(t *testing.T) {
	cat := schema.NewCatalog()
	frag := &schema.Table{
		Name:    "f",
		Columns: []schema.Column{{Name: "a", Type: expr.TInt}},
		Fragments: []schema.Fragment{
			{DB: "d1", Location: "L1", RowCount: 0},
			{DB: "d2", Location: "L2", RowCount: 0},
		},
	}
	cat.MustAddTable(frag)
	cl := New(cat, network.NewCostModel(1, 1e-6))
	if err := cl.LoadFragment(frag, 0, []expr.Row{{expr.NewInt(1)}, {expr.NewInt(2)}}); err != nil {
		t.Fatal(err)
	}
	if err := cl.LoadFragment(frag, 1, []expr.Row{{expr.NewInt(2)}, {expr.NewInt(3)}, {expr.NewInt(4)}}); err != nil {
		t.Fatal(err)
	}
	if err := cl.AnalyzeAll(cat); err != nil {
		t.Fatal(err)
	}
	if frag.FragmentRows(0) != 2 || frag.FragmentRows(1) != 3 {
		t.Errorf("fragment counts: %d, %d", frag.FragmentRows(0), frag.FragmentRows(1))
	}
	if st := frag.Stats("a"); st.Distinct != 4 || st.Max.Int() != 4 {
		t.Errorf("stats: %+v", st)
	}
}
