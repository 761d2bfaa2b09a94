package cgdqp

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"cgdqp/internal/cluster"
	"cgdqp/internal/executor"
	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/plan"
	"cgdqp/internal/tpch"
	"cgdqp/internal/workload"
)

// TestTheorem1Property is a randomized whole-system check of the paper's
// soundness theorem and of plan semantics: over random ad-hoc queries and
// random policy sets,
//
//  1. every plan the compliant optimizer emits passes the independent
//     Definition 1 checker (Theorem 1: the optimizer never outputs a
//     non-compliant plan), and
//  2. executing the compliant plan returns exactly the same multiset of
//     rows as the traditional (unconstrained) plan — compliance rewrites
//     (masking projections, aggregation pushdown, rerouting) never change
//     query semantics (Section 3.2's requirement).
func TestTheorem1Property(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized end-to-end check")
	}
	cat := tpch.NewCatalog(0.0005)
	net := network.FiveRegionWAN(cat.Locations())
	cl := cluster.New(cat, net)
	if err := tpch.Generate(cat, cl); err != nil {
		t.Fatal(err)
	}

	queries := workload.NewQueryGen(99).Generate(30)
	// A few fixed ORDER BY queries over primary-key-ordered inputs (the
	// generator itself emits no ORDER BY, mirroring §7.1).
	queries = append(queries,
		`SELECT o.orderkey, o.totalprice FROM orders o, lineitem l
		 WHERE o.orderkey = l.orderkey AND l.quantity BETWEEN 5 AND 45
		 ORDER BY o.orderkey`,
		`SELECT c.custkey, SUM(o.totalprice) AS t FROM customer c, orders o
		 WHERE c.custkey = o.custkey GROUP BY c.custkey ORDER BY c.custkey`,
		`SELECT s.suppkey, ps.supplycost FROM supplier s, partsupp ps
		 WHERE s.suppkey = ps.suppkey ORDER BY s.suppkey, ps.supplycost`,
	)
	for trial, set := range []workload.SetName{workload.SetC, workload.SetCR, workload.SetCRA} {
		pc := workload.NewPolicyGen(uint64(1000+trial), cat.Locations()).Generate(set, 25)
		copt := optimizer.New(cat, pc, net, optimizer.Options{Compliant: true})
		topt := optimizer.New(cat, pc, net, optimizer.Options{Compliant: false})
		for qi, q := range queries {
			cres, err := copt.OptimizeSQL(q)
			if err != nil {
				t.Fatalf("set %s q%d: compliant optimizer rejected a generated query (covering core violated?): %v\n%s", set, qi, err, q)
			}
			// (1) Theorem 1: the emitted plan passes the checker.
			if v := copt.Check(cres.Plan); len(v) != 0 {
				t.Fatalf("set %s q%d: THEOREM 1 VIOLATION: %v\n%s\n%s", set, qi, v, q, cres.Plan.Format(true))
			}
			// (1b) Structural invariants: declared schemas match row
			// layouts everywhere.
			if err := optimizer.ValidatePlan(cres.Plan); err != nil {
				t.Fatalf("set %s q%d: %v\n%s", set, qi, err, cres.Plan.Format(true))
			}
			if err := optimizer.ValidatePlan(tresPlanOf(t, topt, q)); err != nil {
				t.Fatalf("set %s q%d (traditional): %v", set, qi, err)
			}
			// (2) Semantics: identical results to the unconstrained plan.
			tres, err := topt.OptimizeSQL(q)
			if err != nil {
				t.Fatalf("set %s q%d: traditional optimizer failed: %v", set, qi, err)
			}
			cRows, _, err := executor.Run(cres.Plan, cl)
			if err != nil {
				t.Fatalf("set %s q%d: compliant execution: %v\n%s", set, qi, err, cres.Plan.Format(true))
			}
			tRows, _, err := executor.Run(tres.Plan, cl)
			if err != nil {
				t.Fatalf("set %s q%d: traditional execution: %v", set, qi, err)
			}
			if diff := rowsDiff(cRows, tRows); diff != "" {
				t.Fatalf("set %s q%d: result mismatch (%s)\nquery: %s\ncompliant:\n%s\ntraditional:\n%s",
					set, qi, diff, q, cres.Plan.Format(true), tres.Plan.Format(true))
			}
			// (3) Ordering: the fixed ORDER BY queries lead with their
			// first sort key, so the first column is non-decreasing —
			// and it is a SortExec that makes it so.
			wantSortsSurface(t, fmt.Sprintf("set %s q%d", set, qi), q, cres.Plan)
			wantSortsSurface(t, fmt.Sprintf("set %s q%d (traditional)", set, qi), q, tres.Plan)
			if strings.Contains(q, "ORDER BY") {
				for i := 1; i < len(cRows); i++ {
					if c, err := cRows[i][0].Compare(cRows[i-1][0]); err == nil && c < 0 {
						t.Fatalf("set %s q%d: ORDER BY violated at row %d\n%s", set, qi, i, cres.Plan.Format(true))
					}
				}
			}
		}
	}
}

// rowsDiff compares two row multisets order-insensitively with numeric
// tolerance; it returns "" when equal.
func rowsDiff(a, b []expr.Row) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d vs %d rows", len(a), len(b))
	}
	ka, kb := canonRows(a), canonRows(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return fmt.Sprintf("row %d: %s vs %s", i, ka[i], kb[i])
		}
	}
	return ""
}

func canonRows(rows []expr.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			if !v.IsNull() && (v.T == expr.TFloat || v.T == expr.TInt) {
				parts[j] = fmt.Sprintf("%.6g", v.Float())
			} else {
				parts[j] = v.String()
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// tresPlanOf re-optimizes traditionally (plans are cheap at this scale)
// so structural validation covers both modes.
func tresPlanOf(t *testing.T, opt *optimizer.Optimizer, q string) *plan.Node {
	t.Helper()
	res, err := opt.OptimizeSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	return res.Plan
}
