package memo

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"cgdqp/internal/cost"
	"cgdqp/internal/expr"
	"cgdqp/internal/plan"
	"cgdqp/internal/policy"
	"cgdqp/internal/schema"
)

func tbl(name, db, loc string, rows int64) *schema.Table {
	return schema.NewTable(name, db, loc, rows,
		schema.Column{Name: "k", Type: expr.TInt},
		schema.Column{Name: "v", Type: expr.TString},
	)
}

func joinCond(l, r string) expr.Expr {
	return expr.NewCmp(expr.EQ, expr.NewCol(l, "k"), expr.NewCol(r, "k"))
}

// buildJoin returns Join(Join(a, b), c) over three single-site tables.
func buildJoin() *plan.Node {
	a := plan.NewScan(tbl("A", "db-a", "LA", 100), "a", -1)
	b := plan.NewScan(tbl("B", "db-b", "LB", 200), "b", -1)
	c := plan.NewScan(tbl("C", "db-c", "LC", 300), "c", -1)
	return plan.NewJoin(plan.NewJoin(a, b, joinCond("a", "b")), c, joinCond("b", "c"))
}

func newMemo(root *plan.Node) (*Memo, *Group) {
	est := cost.NewEstimator(root)
	m := New(est)
	return m, m.InsertTree(root)
}

func TestInsertTreeDedup(t *testing.T) {
	root := buildJoin()
	m, g := newMemo(root)
	if g == nil {
		t.Fatal("no root group")
	}
	// 3 scans + 2 joins = 5 groups, 5 expressions.
	if len(m.Groups) != 5 || m.ExprCount() != 5 {
		t.Errorf("groups=%d exprs=%d", len(m.Groups), m.ExprCount())
	}
	// Re-inserting the identical tree adds nothing.
	g2 := m.InsertTree(buildJoin())
	if g2 != g || m.ExprCount() != 5 {
		t.Errorf("dedup failed: %d exprs", m.ExprCount())
	}
	// Group schema/card come from the first expression.
	if g.Card <= 0 || len(g.Cols) != 6 {
		t.Errorf("group props: card=%v cols=%d", g.Card, len(g.Cols))
	}
}

// commuteRule is a minimal rule for engine tests.
type commuteRule struct{}

func (commuteRule) Name() string { return "commute" }
func (commuteRule) Apply(m *Memo, e *MExpr, _ [2]int) []*NewExpr {
	if e.Op.Kind != plan.Join {
		return nil
	}
	return []*NewExpr{{
		Op:       &plan.Node{Kind: plan.Join, Pred: e.Op.Pred},
		Children: []any{e.Children[1], e.Children[0]},
	}}
}

func TestExploreFixpoint(t *testing.T) {
	m, g := newMemo(buildJoin())
	before := m.ExprCount()
	m.Explore([]Rule{commuteRule{}})
	// Each of the two joins gains its commuted twin; commuting twice is
	// deduplicated.
	if m.ExprCount() != before+2 {
		t.Errorf("exprs after explore: %d (before %d)", m.ExprCount(), before)
	}
	if len(g.Exprs) != 2 {
		t.Errorf("root group exprs: %d", len(g.Exprs))
	}
	// Idempotent.
	m.Explore([]Rule{commuteRule{}})
	if m.ExprCount() != before+2 {
		t.Error("explore not idempotent")
	}
}

func TestExploreBudget(t *testing.T) {
	root := buildJoin()
	est := cost.NewEstimator(root)
	m := New(est)
	m.MaxExprs = 5 // exactly the seed size: no room to explore
	m.InsertTree(root)
	m.Explore([]Rule{commuteRule{}})
	if m.ExprCount() > 6 {
		t.Errorf("budget exceeded: %d", m.ExprCount())
	}
}

func implCfg(root *plan.Node, compliant bool, pols ...*policy.Expression) *ImplConfig {
	pc := policy.NewCatalog()
	pc.AddAll(pols...)
	return &ImplConfig{
		Est:          cost.NewEstimator(root),
		Compliant:    compliant,
		Evaluator:    policy.NewEvaluator(pc, []string{"LA", "LB", "LC"}),
		AllLocations: []string{"LA", "LB", "LC"},
	}
}

func TestImplementTraditional(t *testing.T) {
	root := buildJoin()
	m, g := newMemo(root)
	alts := m.Implement(g, implCfg(root, false))
	if len(alts) != 1 {
		t.Fatalf("traditional mode keeps one alt, got %d", len(alts))
	}
	tree := alts[0].Tree
	if !tree.Kind.Physical() {
		t.Errorf("root kind %v not physical", tree.Kind)
	}
	// Leaves are pinned to their sites; joins may run anywhere.
	tree.Walk(func(n *plan.Node) bool {
		if n.Kind == plan.TableScan && n.Exec.Len() != 1 {
			t.Errorf("scan exec: %v", n.Exec)
		}
		if n.Kind == plan.HashJoin && n.Exec.Len() != 3 {
			t.Errorf("join exec: %v", n.Exec)
		}
		return true
	})
}

func TestImplementCompliantTraits(t *testing.T) {
	root := buildJoin()
	m, g := newMemo(root)
	// A and B may ship anywhere; C only stays home.
	cfg := implCfg(root, true,
		policy.MustParse("ship * from A to *", "pa", "db-a"),
		policy.MustParse("ship * from B to *", "pb", "db-b"),
	)
	alts := m.Implement(g, cfg)
	if len(alts) == 0 {
		t.Fatal("no compliant alternatives")
	}
	for _, alt := range alts {
		// C never leaves LC, so every join must happen at LC.
		if !alt.Ship.Contains("LC") || alt.Ship.Len() != 1 {
			t.Errorf("root ship: %v", alt.Ship)
		}
	}
	best := Best(alts, true, "")
	if best == nil || best.Tree.Exec.Key() != "LC" {
		t.Errorf("best exec: %+v", best)
	}
	// Requiring an unreachable location yields nil.
	if Best(alts, true, "LA") != nil {
		t.Error("LA should be unreachable")
	}
	if best != nil && best.Cost <= 0 {
		t.Error("best cost")
	}
}

func TestImplementInfeasible(t *testing.T) {
	root := buildJoin()
	m, g := newMemo(root)
	// No policies at all: nothing may ship anywhere, no join site exists.
	alts := m.Implement(g, implCfg(root, true))
	if len(alts) != 0 {
		t.Errorf("expected no feasible alternatives, got %d", len(alts))
	}
	if Best(alts, true, "") != nil {
		t.Error("best over empty alts")
	}
}

func TestInsertAltParetoPruning(t *testing.T) {
	mk := func(cost float64, locs ...string) *Alt {
		return &Alt{Cost: cost, Ship: plan.NewSiteSet(locs...), Tree: &plan.Node{}}
	}
	cfgC := &ImplConfig{Compliant: true}
	alts := insertAlt(nil, mk(10, "A"), 4, cfgC)
	// Dominated: higher cost, subset ship.
	alts = insertAlt(alts, mk(20, "A"), 4, cfgC)
	if len(alts) != 1 {
		t.Fatalf("dominated alt kept: %d", len(alts))
	}
	// Incomparable: higher cost but wider ship.
	alts = insertAlt(alts, mk(20, "A", "B"), 4, cfgC)
	if len(alts) != 2 {
		t.Fatalf("incomparable alt dropped: %d", len(alts))
	}
	// Dominating: cheaper and wider — evicts both.
	alts = insertAlt(alts, mk(5, "A", "B"), 4, cfgC)
	if len(alts) != 1 || alts[0].Cost != 5 {
		t.Fatalf("dominating alt: %+v", alts)
	}
	// Cap enforcement.
	alts = nil
	for i := 0; i < 10; i++ {
		alts = insertAlt(alts, mk(float64(i), string(rune('A'+i))), 3, cfgC)
	}
	if len(alts) > 3 {
		t.Errorf("cap exceeded: %d", len(alts))
	}
	// DescKey guard: same cost/ship but different local-query shapes are
	// both kept.
	a := mk(10, "A")
	a.DescKey = "d1"
	b := mk(10, "A")
	b.DescKey = "d2"
	alts = insertAlt(nil, a, 4, cfgC)
	alts = insertAlt(alts, b, 4, cfgC)
	if len(alts) != 2 {
		t.Errorf("desc-distinct alts: %d", len(alts))
	}
}

func TestForEachCombo(t *testing.T) {
	a1, a2 := &Alt{Cost: 1}, &Alt{Cost: 2}
	b1 := &Alt{Cost: 3}
	var combos [][]*Alt
	forEachCombo([][]*Alt{{a1, a2}, {b1}}, func(c []*Alt) {
		combos = append(combos, c)
	})
	if len(combos) != 2 {
		t.Fatalf("combos: %d", len(combos))
	}
	// Zero children: one empty combo.
	count := 0
	forEachCombo(nil, func([]*Alt) { count++ })
	if count != 1 {
		t.Errorf("nil combos: %d", count)
	}
}

func TestCanonicalizeAltReorders(t *testing.T) {
	g := &Group{Cols: []plan.ColRef{{Table: "b", Name: "x", Type: expr.TInt}, {Table: "a", Name: "y", Type: expr.TInt}}}
	node := &plan.Node{
		Kind: plan.HashJoin,
		Cols: []plan.ColRef{{Table: "a", Name: "y", Type: expr.TInt}, {Table: "b", Name: "x", Type: expr.TInt}},
		Card: 10,
		Cost: 100,
	}
	alt := &Alt{Tree: node, Cost: 100}
	cfg := &ImplConfig{groups: make([]groupImpl, 1)}
	out := cfg.canonicalizeAlt(alt, g)
	if out.Tree.Kind != plan.ProjectExec {
		t.Fatalf("expected reorder projection, got %v", out.Tree.Kind)
	}
	if out.Tree.Cols[0].Key() != "b.x" || len(out.Tree.Projs) != 2 {
		t.Errorf("reorder schema: %v", out.Tree.Cols)
	}
	if out.Cost <= 100 {
		t.Error("reorder must cost something")
	}
	// Matching schemas pass through untouched.
	same := &Alt{Tree: &plan.Node{Kind: plan.HashJoin, Cols: g.Cols}, Cost: 1}
	if cfg.canonicalizeAlt(same, g) != same {
		t.Error("no-op canonicalization should return the alt unchanged")
	}
}

// TestImplementPassesShareAMemo runs Implement passes with different
// evaluators and modes over one explored memo: each sees only its own
// alternatives, equal to a pass over a private memo, whether the passes
// run one after another or at once (under -race: Implement never writes
// to the memo). An indexed, filtered input adds the access paths.
func TestImplementPassesShareAMemo(t *testing.T) {
	ta, tb := tbl("A", "db-a", "LA", 100), tbl("B", "db-b", "LB", 200)
	ta.Indexes, tb.Indexes = []string{"k"}, []string{"k"}
	a := plan.NewFilter(plan.NewScan(ta, "a", -1), expr.NewCmp(expr.LT, expr.NewCol("a", "k"), expr.NewConst(expr.NewInt(50))))
	ab := plan.NewJoin(a, plan.NewScan(tb, "b", -1), joinCond("a", "b"))
	root := plan.NewJoin(ab, plan.NewScan(tbl("C", "db-c", "LC", 300), "c", -1), joinCond("b", "c"))
	pa := policy.MustParse("ship * from A to *", "pa", "db-a")
	pb := policy.MustParse("ship * from B to *", "pb", "db-b")
	pc := policy.MustParse("ship * from C to *", "pc", "db-c")
	configs := func() []*ImplConfig {
		return []*ImplConfig{
			implCfg(root, true, pa, pb),     // C stays home
			implCfg(root, true, pa, pb, pc), // everything may ship
			implCfg(root, true),             // nothing may ship
			implCfg(root, false),
			implCfg(root, false),
		}
	}
	render := func(alts []*Alt) string {
		var b strings.Builder
		for _, a := range alts {
			fmt.Fprintf(&b, "%v %v %s\n%s", a.Cost, a.Ship, a.DescKey, a.Tree.Format(true))
		}
		return b.String()
	}
	explored := func() (*Memo, *Group) {
		m, g := newMemo(root)
		m.Explore([]Rule{commuteRule{}})
		return m, g
	}
	var want []string
	for _, cfg := range configs() {
		m, g := explored()
		want = append(want, render(m.Implement(g, cfg)))
	}
	if want[0] == want[1] || want[1] == want[3] {
		t.Fatal("the configurations do not tell passes apart")
	}

	// The concurrent passes come first, so that under -race any write a
	// pass made to the shared memo would meet another pass's read.
	shared, g := explored()
	got := make([]string, len(want))
	var wg sync.WaitGroup
	for i, cfg := range configs() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = render(shared.Implement(g, cfg))
		}()
	}
	wg.Wait()
	cfgs := configs()
	for i := len(cfgs) - 1; i >= 0; i-- {
		if seq := render(shared.Implement(g, cfgs[i])); seq != want[i] {
			t.Errorf("sequential pass %d over the shared memo:\n%s\nwant:\n%s", i, seq, want[i])
		}
		if got[i] != want[i] {
			t.Errorf("concurrent pass %d:\n%s\nwant:\n%s", i, got[i], want[i])
		}
	}
}
