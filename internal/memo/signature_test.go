package memo_test

import (
	"testing"

	"cgdqp/internal/cost"
	"cgdqp/internal/memo"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/plan"
	"cgdqp/internal/rules"
	"cgdqp/internal/sqlparse"
	"cgdqp/internal/tpch"
	"cgdqp/internal/workload"
)

var ruleSet = []memo.Rule{rules.JoinCommute{}, rules.JoinAssoc{}, rules.JoinUnionDistribute{}, rules.AggPushdown{}}

// goldenAndGenerated is the six golden TPC-H queries plus the 30
// generated queries TestTheorem1Property runs.
func goldenAndGenerated() []string {
	var queries []string
	for _, name := range tpch.QueryNames() {
		queries = append(queries, tpch.Queries[name])
	}
	return append(queries, workload.NewQueryGen(99).Generate(30)...)
}

// TestJoinSignatureInvariants checks the merge's soundness conditions on
// the explored memo of goldenAndGenerated: every Join expression carries the
// signature of the group it lives in (so every rule output computed the
// relation its target group stands for), no two groups own the same
// signature (each logical join exists once), and no rule output reached a
// relation through two groups (DigestConflicts counts those).
func TestJoinSignatureInvariants(t *testing.T) {
	cat := tpch.NewCatalog(0.01)
	queries := goldenAndGenerated()
	for qi, sql := range queries {
		logical, err := sqlparse.ParseAndBind(sql, cat)
		if err != nil {
			t.Fatalf("q%d: %v", qi, err)
		}
		norm := optimizer.Normalize(logical)
		m := memo.New(cost.NewEstimator(norm))
		m.InsertTree(norm)
		m.Explore(ruleSet)
		if m.Budget() {
			t.Fatalf("q%d: search truncated", qi)
		}
		owner := map[string]int{}
		joins := 0
		for _, g := range m.Groups {
			sig := g.Signature()
			if sig != "" {
				if other, dup := owner[sig]; dup {
					t.Errorf("q%d: groups %d and %d share signature %q", qi, other, g.ID, sig)
				}
				owner[sig] = g.ID
			}
			for _, e := range g.Exprs {
				if e.Op.Kind != plan.Join {
					continue
				}
				joins++
				if got := m.ExprSignature(e); got != sig {
					t.Errorf("q%d: group %d holds a join with signature %q, group's is %q", qi, g.ID, got, sig)
				}
			}
		}
		t.Logf("q%d: groups=%d exprs=%d joins=%d conflicts=%d", qi, len(m.Groups), m.ExprCount(), joins, m.DigestConflicts)
		if m.DigestConflicts != 0 {
			t.Errorf("q%d: %d rule outputs landed outside their target group", qi, m.DigestConflicts)
		}
	}
}
