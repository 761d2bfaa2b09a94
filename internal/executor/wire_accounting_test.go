package executor

import (
	"context"
	"testing"

	"cgdqp/internal/cluster"
	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/obs"
	"cgdqp/internal/plan"
)

// encodedStreamBytes recomputes, independently of the executors, the
// wire bytes of shipping rows: the stream framed into BatchSize-row
// batches, each serialized with the wire encoder.
func encodedStreamBytes(rows []expr.Row) int64 {
	var total int64
	for start := 0; start < len(rows); start += BatchSize {
		end := start + BatchSize
		if end > len(rows) {
			end = len(rows)
		}
		total += int64(len(network.EncodeBatch(rows[start:end], network.WireOptions{})))
	}
	return total
}

// widthSum is the old Σ-Width() estimate of shipping rows.
func widthSum(rows []expr.Row) int64 {
	var n int64
	for _, r := range rows {
		n += int64(r.Width())
	}
	return n
}

// TestShipAccountsEncodedBytes is the Width()-drift regression test:
// the ledger must charge exactly the serialized frame bytes of the
// shipped stream — recomputed here from the result rows — and that
// figure must NOT be the old Σ-Width() estimate, or the wire format
// has silently regressed to per-row width accounting.
func TestShipAccountsEncodedBytes(t *testing.T) {
	cat, cl := carco(t)
	c := scanNode(t, cat, "Customer", "C")
	root := plan.NewShip(c, "N", "E")

	rows, stats, err := Run(root, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 {
		t.Fatalf("rows: got %d, want 50", len(rows))
	}
	// The root SHIP moves exactly the result stream, so the expected
	// wire bytes are recomputable from the rows alone.
	want := encodedStreamBytes(rows)
	if stats.ShippedBytes != want {
		t.Errorf("ShippedBytes = %d, want %d (encoded frame bytes)", stats.ShippedBytes, want)
	}
	if old := widthSum(rows); stats.ShippedBytes == old {
		t.Errorf("ShippedBytes = %d equals the old Σ-Width() accounting; wire encoding is not being priced", old)
	}
}

// TestShipAccountsEncodedBytesMultiFrame covers the >BatchSize path:
// a shipped stream longer than one batch is framed into multiple
// serialized batches, and the ledger charges their total.
func TestShipAccountsEncodedBytesMultiFrame(t *testing.T) {
	cat, cl := carco(t)
	o := scanNode(t, cat, "Orders", "O")
	s := scanNode(t, cat, "Supply", "S")
	join := plan.NewJoin(o, s, expr.NewCmp(expr.EQ, expr.NewCol("O", "ordkey"), expr.NewCol("S", "ordkey")))
	join.Kind = plan.HashJoin
	root := plan.NewShip(plan.NewUnion(join, join), "E", "N")

	rows, stats, err := Run(root, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) <= BatchSize {
		t.Fatalf("fixture too small: %d rows, need > %d for multi-frame", len(rows), BatchSize)
	}
	want := encodedStreamBytes(rows)
	if stats.ShippedBytes != want {
		t.Errorf("ShippedBytes = %d, want %d over %d rows", stats.ShippedBytes, want, len(rows))
	}
}

// runKernelModes executes the plan with kernels and with the row
// interpreter and requires byte-identical rows, stats, and audit text.
func runKernelModes(t *testing.T, root *plan.Node, cl *cluster.Cluster, label string) {
	t.Helper()
	type mode struct {
		name string
		opt  ExecOptions
	}
	modes := []mode{
		{"kernels", ExecOptions{}},
		{"interp", ExecOptions{NoKernels: true}},
	}
	var wantRows []string
	var wantStats RunStats
	var wantAudit string
	for i, m := range modes {
		audit := obs.NewAuditLog()
		o := &obs.Observer{Audit: audit}
		rows, stats, err := RunParallelOpts(context.Background(), root, cl, o, m.opt)
		if err != nil {
			t.Fatalf("%s %s: %v", label, m.name, err)
		}
		got := canon(rows)
		if i == 0 {
			wantRows, wantStats, wantAudit = got, *stats, audit.String()
			if wantAudit == "" {
				t.Fatalf("%s: no audit records from a shipping plan", label)
			}
			continue
		}
		if len(got) != len(wantRows) {
			t.Fatalf("%s %s: %d rows, want %d", label, m.name, len(got), len(wantRows))
		}
		for j := range wantRows {
			if got[j] != wantRows[j] {
				t.Fatalf("%s %s: row %d differs:\ngot  %s\nwant %s", label, m.name, j, got[j], wantRows[j])
			}
		}
		if *stats != wantStats {
			t.Fatalf("%s %s: stats differ:\ngot  %+v\nwant %+v", label, m.name, *stats, wantStats)
		}
		if a := audit.String(); a != wantAudit {
			t.Fatalf("%s %s: audit log differs:\ngot:\n%s\nwant:\n%s", label, m.name, a, wantAudit)
		}
	}
}

// TestKernelInterpreterEngineParity: the one end-to-end check of
// ExecOptions.NoKernels — kernels and the interpreter nodes produce
// byte-identical rows, shipping statistics, and audit logs.
func TestKernelInterpreterEngineParity(t *testing.T) {
	root, cl := chaosPlan(t)
	runKernelModes(t, root, cl, "multi-ship join")

	cat, cl2 := carco(t)
	c := scanNode(t, cat, "Customer", "C")
	filter := plan.NewFilter(c, expr.NewCmp(expr.GE, expr.NewCol("C", "acctbal"), expr.NewConst(expr.NewFloat(200))))
	project := plan.NewProject(filter, []plan.NamedExpr{
		{E: expr.NewCol("C", "name")},
		{E: expr.NewArith(expr.Mul, expr.NewCol("C", "acctbal"), expr.NewConst(expr.NewInt(3))), Name: "tri"},
	})
	runKernelModes(t, plan.NewShip(project, "N", "E"), cl2, "filter+project")
}

// TestFusedFilterRejectsAllRows: a kernel filter that keeps zero rows
// must yield an empty result. Regression for the nil-vs-empty selection
// contract — an empty selection vector must not alias to the nil "all
// rows" form inside Select or on its way into the fused projection.
func TestFusedFilterRejectsAllRows(t *testing.T) {
	cat, cl := carco(t)
	c := scanNode(t, cat, "Customer", "C")
	// First conjunct rejects every row; the second must not re-expand
	// the empty selection back to the full batch.
	pred := expr.NewAnd(
		expr.NewCmp(expr.LT, expr.NewCol("C", "acctbal"), expr.NewConst(expr.NewFloat(-1))),
		expr.NewCmp(expr.GE, expr.NewCol("C", "custkey"), expr.NewConst(expr.NewInt(0))),
	)
	project := plan.NewProject(plan.NewFilter(c, pred), []plan.NamedExpr{
		{E: expr.NewArith(expr.Mul, expr.NewCol("C", "acctbal"), expr.NewConst(expr.NewInt(2))), Name: "x"},
	})
	rows, _, err := Run(project, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("%d rows from an all-rejecting filter, want 0", len(rows))
	}
}
