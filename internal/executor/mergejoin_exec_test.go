package executor

import (
	"testing"

	"cgdqp/internal/cluster"
	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/plan"
	"cgdqp/internal/schema"
)

// In-package merge-join coverage: construction, NULL-key skipping,
// duplicate blocks, and the no-equi-key error.
func TestMergeJoinOperator(t *testing.T) {
	cat := schema.NewCatalog()
	l := schema.NewTable("l", "d1", "L1", 5, schema.Column{Name: "k", Type: expr.TInt}, schema.Column{Name: "v", Type: expr.TInt})
	r := schema.NewTable("r", "d2", "L2", 5, schema.Column{Name: "k", Type: expr.TInt})
	cat.MustAddTable(l)
	cat.MustAddTable(r)
	cl := cluster.New(cat, network.UniformWAN(1, 1e-6))
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(cl.LoadFragment(l, 0, []expr.Row{
		{expr.NewInt(3), expr.NewInt(30)},
		{expr.NewInt(1), expr.NewInt(10)},
		{expr.TypedNull(expr.TInt), expr.NewInt(99)},
		{expr.NewInt(1), expr.NewInt(11)},
	}))
	must(cl.LoadFragment(r, 0, []expr.Row{
		{expr.NewInt(1)}, {expr.NewInt(1)}, {expr.NewInt(2)}, {expr.TypedNull(expr.TInt)},
	}))
	cond := expr.NewCmp(expr.EQ, expr.NewCol("a", "k"), expr.NewCol("b", "k"))
	j := plan.NewJoin(plan.NewScan(l, "a", -1), plan.NewScan(r, "b", -1), cond)
	j.Kind = plan.MergeJoin
	rows, _, err := Run(j, cl)
	if err != nil {
		t.Fatal(err)
	}
	// k=1 appears twice on each side → 4 rows; NULLs never join; k=3/2
	// have no partner.
	if len(rows) != 4 {
		t.Fatalf("rows: %d, want 4", len(rows))
	}
	for _, row := range rows {
		if row[0].Int() != 1 || row[2].Int() != 1 {
			t.Errorf("unexpected row: %v", row)
		}
	}
	// Reversed-side condition binds too.
	rev := plan.NewJoin(plan.NewScan(l, "a", -1), plan.NewScan(r, "b", -1),
		expr.NewCmp(expr.EQ, expr.NewCol("b", "k"), expr.NewCol("a", "k")))
	rev.Kind = plan.MergeJoin
	if rows, _, err := Run(rev, cl); err != nil || len(rows) != 4 {
		t.Errorf("reversed cond: %d rows, %v", len(rows), err)
	}
	// Without an equi key, construction fails.
	bad := plan.NewJoin(plan.NewScan(l, "a", -1), plan.NewScan(r, "b", -1),
		expr.NewCmp(expr.LT, expr.NewCol("a", "k"), expr.NewCol("b", "k")))
	bad.Kind = plan.MergeJoin
	if _, _, err := Run(bad, cl); err == nil {
		t.Error("merge join without equi key must fail to build")
	}
}
