package cgdqp

import (
	"strings"
	"testing"

	"cgdqp/internal/cluster"
	"cgdqp/internal/cost"
	"cgdqp/internal/executor"
	"cgdqp/internal/memo"
	"cgdqp/internal/network"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/plan"
	"cgdqp/internal/policy"
	"cgdqp/internal/rules"
	"cgdqp/internal/sqlparse"
	"cgdqp/internal/tpch"
	"cgdqp/internal/workload"
)

// TestMergedGroupSemantics checks "rewrites never change semantics" on
// the plans the cost model did not pick. A memo group now holds every
// join tree that reached its relation, so for generated multi-join
// queries at a tiny scale factor it executes (a) one plan per memo
// expression — that expression at its group, first expressions elsewhere,
// implemented and site-selected in traditional mode so no policy hides
// one — and (b) every Pareto survivor of the explored memo's root group
// under a generated policy set, and requires the reference row multiset
// from each.
func TestMergedGroupSemantics(t *testing.T) {
	if testing.Short() {
		t.Skip("executes every memo expression of the generated queries")
	}
	cat := tpch.NewCatalog(0.0005)
	net := network.FiveRegionWAN(cat.Locations())
	cl := cluster.New(cat, net)
	if err := tpch.Generate(cat, cl); err != nil {
		t.Fatal(err)
	}
	pc := workload.NewPolicyGen(1002, cat.Locations()).Generate(workload.SetCRA, 25)
	topt := optimizer.New(cat, pc, net, optimizer.Options{Compliant: false})
	ruleSet := []memo.Rule{rules.JoinCommute{}, rules.JoinAssoc{}, rules.JoinUnionDistribute{}, rules.AggPushdown{}}

	run := func(sql, what string, annotated *plan.Node, want []string) {
		t.Helper()
		located, _, err := optimizer.SelectSites(annotated.Clone(), net, "")
		if err != nil {
			t.Fatalf("%s: site selection: %v\n%s", what, err, sql)
		}
		rows, _, err := executor.Run(located, cl)
		if err != nil {
			t.Fatalf("%s: %v\n%s\n%s", what, err, sql, located.Format(true))
		}
		got := canonRows(rows)
		if len(got) != len(want) || strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%s: %d rows, reference has %d, or rows differ\n%s\n%s", what, len(got), len(want), sql, located.Format(true))
		}
	}

	queries, plans := 0, 0
	for _, sql := range workload.NewQueryGen(99).Generate(60) {
		if queries == 12 {
			break
		}
		if strings.Count(sql, " = ") < 2 {
			continue // fewer than three tables: nothing to merge
		}
		ref, err := topt.OptimizeSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		refRows, _, err := executor.Run(ref.Plan, cl)
		if err != nil {
			t.Fatal(err)
		}
		want := canonRows(refRows)

		logical, err := sqlparse.ParseAndBind(sql, cat)
		if err != nil {
			t.Fatal(err)
		}
		norm := optimizer.Normalize(logical)
		m := memo.New(cost.NewEstimator(norm))
		root := m.InsertTree(norm)
		m.Explore(ruleSet)
		queries++

		// (a) One plan per memo expression. via[g] is an expression that
		// has g as a child, found walking down from the root.
		via := map[*memo.Group]*memo.MExpr{}
		order := []*memo.Group{root}
		for i := 0; i < len(order); i++ {
			for _, e := range order[i].Exprs {
				for _, c := range e.Children {
					if _, seen := via[c]; !seen && c != root {
						via[c] = e
						order = append(order, c)
					}
				}
			}
		}
		for _, g := range order {
			for _, e := range g.Exprs {
				tree := exprTree(e, nil, nil)
				for at := g; at != root; at = via[at].Group {
					tree = exprTree(via[at], at, tree)
				}
				single := memo.New(cost.NewEstimator(tree))
				sroot := single.InsertTree(tree)
				single.Implement(sroot, &memo.ImplConfig{AllLocations: cat.Locations()})
				best := memo.Best(sroot, false, "")
				if best == nil {
					t.Fatalf("no traditional plan for\n%s", tree.Format(false))
				}
				run(sql, "expression "+e.Op.Kind.String(), best.Tree, want)
				plans++
			}
		}

		// (b) Every survivor of the explored memo's root group.
		var st policy.EvalStats
		alts := m.Implement(root, &memo.ImplConfig{
			Compliant:    true,
			Evaluator:    policy.NewEvaluator(pc, cat.Locations()),
			AllLocations: cat.Locations(),
			MaxAlts:      64,
			Stats:        &st,
		})
		if len(alts) == 0 {
			t.Fatalf("no compliant alternative for\n%s", sql)
		}
		for _, alt := range alts {
			run(sql, "root alternative", alt.Tree, want)
			plans++
		}
	}
	if queries < 8 || plans < 100 {
		t.Fatalf("only %d queries / %d plans exercised", queries, plans)
	}
	t.Logf("%d queries, %d plans executed", queries, plans)
}

// exprTree extracts the logical tree rooted at e: the subtree sub stands
// in for child group at, every other group contributes its first
// expression. Join schemas follow the extracted children (a commuted
// member orders its columns differently from its group).
func exprTree(e *memo.MExpr, at *memo.Group, sub *plan.Node) *plan.Node {
	n := *e.Op
	n.Children = make([]*plan.Node, len(e.Children))
	for i, c := range e.Children {
		if c == at {
			n.Children[i] = sub
		} else {
			n.Children[i] = exprTree(c.Exprs[0], nil, nil)
		}
	}
	switch n.Kind {
	case plan.Join:
		n.Cols = append(append([]plan.ColRef{}, n.Children[0].Cols...), n.Children[1].Cols...)
	case plan.Filter, plan.Sort, plan.Limit:
		n.Cols = n.Children[0].Cols
	}
	return &n
}
