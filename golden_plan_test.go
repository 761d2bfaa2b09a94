package cgdqp

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cgdqp/internal/network"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/plan"
	"cgdqp/internal/policy"
	"cgdqp/internal/tpch"
	"cgdqp/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/plans/*.golden from current optimizer output")

// TestGoldenPlans snapshots the compliant plan the optimizer picks for
// every TPC-H evaluation query under the CR policy set. The shapes are
// load-bearing — a ship pushed to the wrong side of a join changes both
// cost and compliance — so any drift must be reviewed, then blessed
// with `make golden`.
func TestGoldenPlans(t *testing.T) {
	cat := tpch.NewCatalog(0.01)
	net := network.FiveRegionWAN(cat.Locations())
	pc := workload.TPCHSet(workload.SetCR)
	opt := optimizer.New(cat, pc, net, optimizer.Options{Compliant: true})

	for _, name := range tpch.QueryNames() {
		res, err := opt.OptimizeSQL(tpch.Queries[name])
		if err != nil {
			t.Fatalf("%s: optimize: %v", name, err)
		}
		wantDigestsRecompute(t, name, res.Plan)
		got := res.Plan.Format(true)
		path := filepath.Join("testdata", "plans", name+".golden")
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (`make golden` creates the snapshot)", name, err)
		}
		if got != string(want) {
			t.Errorf("%s: plan drifted from %s (if the change is intended, re-pin with `make golden` and state it in the PR):\n--- got ---\n%s\n--- want ---\n%s", name, path, got, want)
		}
	}

	for _, set := range workload.SetNames() {
		opt := optimizer.New(cat, workload.TPCHSet(set), net, optimizer.Options{Compliant: true})
		for _, name := range tpch.QueryNames() {
			res, err := opt.OptimizeSQL(tpch.Queries[name])
			if err != nil {
				t.Fatalf("%s under %s: optimize: %v", name, set, err)
			}
			wantSortsSurface(t, name+" under "+string(set), tpch.Queries[name], res.Plan)
		}
	}
}

// wantDigestsRecompute asserts that the digest Analyzer.Describe builds
// from its cached renderings, for every local-query subtree of the
// plan, equals Query.Digest computed afresh from the descriptor's
// fields: the evaluator cache is keyed on it.
func wantDigestsRecompute(t *testing.T, label string, root *plan.Node) {
	t.Helper()
	a := policy.NewAnalyzer()
	described := 0
	root.Walk(func(n *plan.Node) bool {
		q, ok := a.Describe(n)
		if !ok {
			return true
		}
		described++
		fresh := &policy.Query{DB: q.DB, Home: q.Home, OutAttrs: q.OutAttrs, GroupBy: q.GroupBy, Pred: q.Pred, Aggregated: q.Aggregated}
		if got, want := q.Digest(), fresh.Digest(); got != want {
			t.Errorf("%s: %s subtree: Describe digest\n  %s\nrecomputed\n  %s", label, n.Kind, got, want)
		}
		return true
	})
	if described == 0 {
		t.Errorf("%s: no subtree is a local query", label)
	}
}

// wantSortsSurface asserts that result order has one source: every
// ORDER BY of the statement is a SortExec in the emitted plan — none is
// elided on the strength of some operator's output order — and no node
// has the retired MergeJoin kind.
func wantSortsSurface(t *testing.T, label, sql string, root *plan.Node) {
	t.Helper()
	sorts := 0
	root.Walk(func(n *plan.Node) bool {
		switch n.Kind {
		case plan.SortExec:
			sorts++
		case plan.MergeJoin:
			t.Errorf("%s: plan contains a MergeJoin:\n%s", label, root.Format(false))
		}
		return true
	})
	if want := strings.Count(strings.ToUpper(sql), "ORDER BY"); sorts != want {
		t.Errorf("%s: %d ORDER BY, %d SortExec:\n%s", label, want, sorts, root.Format(false))
	}
}
