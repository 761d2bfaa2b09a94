package memo

import (
	"math"
	"sort"

	"cgdqp/internal/cost"
	"cgdqp/internal/expr"
	"cgdqp/internal/plan"
	"cgdqp/internal/policy"
)

// Alt is one physical alternative for a group: a concrete operator tree
// whose nodes carry cardinalities and (in compliant mode) execution and
// shipping traits.
type Alt struct {
	Tree *plan.Node
	Cost float64
	// Ship is the root's shipping trait 𝒮 (compliant mode only).
	Ship plan.SiteSet
	// DescKey identifies the subtree as a local query for AR4 pruning
	// purposes ("" when the subtree is not a local query).
	DescKey string
}

// ImplConfig configures the implementation pass.
type ImplConfig struct {
	Est *cost.Estimator
	// Compliant enables trait derivation (AR1–AR4) and the
	// compliance-based cost function; when false the pass behaves like a
	// traditional cost-based optimizer (single cheapest alternative per
	// group, all traits ignored).
	Compliant bool
	// Evaluator supplies 𝒜 for AR4 (required when Compliant).
	Evaluator *policy.Evaluator
	// AllLocations is the universe of sites (traditional mode execution
	// traits for the site selector).
	AllLocations []string
	// MaxAlts caps the number of Pareto alternatives kept per group.
	MaxAlts int
	// Stats receives per-optimization evaluator statistics (η, calls,
	// hits). The evaluator itself may be shared across concurrent
	// optimizations; this handle is owned by one Implement pass.
	Stats *policy.EvalStats

	// analyzer caches local-query analysis across alternatives.
	analyzer *policy.Analyzer
	// equiConds caches, per join predicate, its equi-join conjuncts
	// (Col = Col); predicates are shared across memo expressions, so the
	// conjunct split would otherwise be recomputed for every alternative.
	equiConds map[expr.Expr][]*expr.Cmp
	// allSites is NewSiteSet(AllLocations...), built once per pass.
	allSites plan.SiteSet
}

// equiCmps returns the equi-join conjuncts (Col = Col) of a join
// predicate, cached per predicate pointer.
func (cfg *ImplConfig) equiCmps(pred expr.Expr) []*expr.Cmp {
	if pred == nil {
		return nil
	}
	if cs, ok := cfg.equiConds[pred]; ok {
		return cs
	}
	var cs []*expr.Cmp
	for _, c := range expr.Conjuncts(pred) {
		if cmp, ok := c.(*expr.Cmp); ok && cmp.Op == expr.EQ {
			if _, lok := cmp.L.(*expr.Col); lok {
				if _, rok := cmp.R.(*expr.Col); rok {
					cs = append(cs, cmp)
				}
			}
		}
	}
	if cfg.equiConds == nil {
		cfg.equiConds = map[expr.Expr][]*expr.Cmp{}
	}
	cfg.equiConds[pred] = cs
	return cs
}

// Implement computes the physical alternatives of a group bottom-up,
// memoized. In compliant mode an alternative is discarded when its
// execution trait is empty (the infinite-cost adaptation of Section 6.1).
func (m *Memo) Implement(g *Group, cfg *ImplConfig) []*Alt {
	if g.implemented {
		return g.Alts
	}
	g.implemented = true // set first; the memo DAG is acyclic by construction
	if cfg.analyzer == nil {
		cfg.analyzer = policy.NewAnalyzer()
		cfg.allSites = plan.NewSiteSet(cfg.AllLocations...)
	}
	maxAlts := cfg.MaxAlts
	if maxAlts <= 0 {
		maxAlts = 12
	}
	if !cfg.Compliant {
		maxAlts = 1
	}

	var alts []*Alt
	for _, e := range g.Exprs {
		childAlts := make([][]*Alt, len(e.Children))
		feasible := true
		for i, c := range e.Children {
			childAlts[i] = m.Implement(c, cfg)
			if len(childAlts[i]) == 0 {
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}
		// The output schema depends on the expression alone, not on the
		// chosen physical kind or child combination; hoist it out of the
		// per-alternative loop (alternatives share the slice, plans never
		// mutate their Cols).
		x := exprImpl{e: e, cols: outputCols(e.Op, e.Children)}
		kinds := physicalKinds(e.Op, cfg)
		for _, phys := range kinds {
			if phys == plan.HashJoin {
				x.hashable = true
			}
		}
		for _, phys := range kinds {
			forEachCombo(childAlts, func(combo []*Alt) {
				if alt := m.buildAlt(&x, phys, combo, alts, cfg); alt != nil {
					alts = insertAlt(alts, alt, maxAlts, cfg)
				}
			})
		}
		// Index access paths (see indexpaths.go): IndexScan implements a
		// Filter over a bare Scan; IndexLookupJoin implements a Join whose
		// inner side is a bare Scan with an index on the join key.
		if e.Op.Kind == plan.Filter && len(e.Children) == 1 {
			for _, alt := range m.indexScanAlts(e, x.cols, cfg) {
				alts = insertAlt(alts, alt, maxAlts, cfg)
			}
		}
		if e.Op.Kind == plan.Join && len(e.Children) == 2 {
			for _, left := range childAlts[0] {
				if alt := m.indexLookupJoinAlt(e, left, x.cols, cfg); alt != nil {
					alts = insertAlt(alts, alt, maxAlts, cfg)
				}
			}
		}
	}
	g.Alts = alts
	return alts
}

// Static physical-kind slices: physicalKinds is called once per memo
// expression and must not allocate.
var (
	kindsScan     = []plan.Kind{plan.TableScan}
	kindsFilter   = []plan.Kind{plan.FilterExec}
	kindsProject  = []plan.Kind{plan.ProjectExec}
	kindsEquiJoin = []plan.Kind{plan.HashJoin, plan.NLJoin}
	kindsNLJoin   = []plan.Kind{plan.NLJoin}
	kindsAgg      = []plan.Kind{plan.HashAgg}
	kindsSort     = []plan.Kind{plan.SortExec}
	kindsLimit    = []plan.Kind{plan.LimitExec}
	kindsUnion    = []plan.Kind{plan.UnionAll}
)

// physicalKinds maps a logical operator to its physical implementations.
func physicalKinds(op *plan.Node, cfg *ImplConfig) []plan.Kind {
	switch op.Kind {
	case plan.Scan:
		return kindsScan
	case plan.Filter:
		return kindsFilter
	case plan.Project:
		return kindsProject
	case plan.Join:
		if len(cfg.equiCmps(op.Pred)) > 0 {
			return kindsEquiJoin
		}
		return kindsNLJoin
	case plan.Aggregate:
		return kindsAgg
	case plan.Sort:
		return kindsSort
	case plan.Limit:
		return kindsLimit
	case plan.Union:
		return kindsUnion
	}
	// Already physical (should not happen for logical exploration).
	return []plan.Kind{op.Kind}
}

// altBlock fuses the three allocations an alternative needs — the Alt,
// its operator node and the (≤2-ary) child pointer slice — into one.
type altBlock struct {
	alt  Alt
	node plan.Node
	kids [2]*plan.Node
}

// exprImpl carries what every alternative of one memo expression shares.
type exprImpl struct {
	e        *MExpr
	cols     []plan.ColRef
	hashable bool // HashJoin is among the physical kinds
}

// buildAlt constructs one physical alternative and derives its traits.
// It returns nil when the alternative is infeasible (empty execution
// trait in compliant mode — the infinite-cost rule) or when front already
// holds an alternative that dominates it: cost and traits are computed on
// the stack first, and nothing is allocated for an alternative insertAlt
// would throw away.
func (m *Memo) buildAlt(x *exprImpl, phys plan.Kind, combo []*Alt, front []*Alt, cfg *ImplConfig) *Alt {
	e := x.e
	// Derive the execution trait up front (AR1/AR2): infeasible
	// alternatives — empty trait, the infinite-cost rule — are discarded
	// before anything is allocated. SiteSet algebra is allocation-free.
	var exec plan.SiteSet
	switch {
	case phys == plan.TableScan:
		// AR1: a tablescan executes at its table's source location.
		exec = plan.NewSiteSet(scanLocation(e.Op))
	case !cfg.Compliant:
		// Traditional mode: anything but a leaf may run anywhere.
		exec = cfg.allSites
	default:
		// AR2: an operator may execute wherever every input may legally
		// be shipped.
		exec = combo[0].Ship
		for _, c := range combo[1:] {
			exec = exec.Intersect(c.Ship)
		}
		if exec.Empty() {
			return nil
		}
	}

	// Input cardinalities stay on the stack for the common arities.
	var inCardsBuf [2]float64
	inCards := inCardsBuf[:]
	if len(combo) > len(inCardsBuf) {
		inCards = make([]float64, len(combo))
	} else {
		inCards = inCards[:len(combo)]
	}
	// Only a subtree whose inputs are all local queries can be one itself
	// (AR4); otherwise Describe cannot succeed and 𝒮 = ℰ is final.
	describable := cfg.Compliant
	childCost := 0.0
	for i, c := range combo {
		inCards[i] = c.Tree.Card
		childCost += c.Cost
		if c.DescKey == "" {
			describable = false
		}
	}
	card := e.Group.Card
	opCost := cost.OperatorCost(phys, card, inCards...)
	total := childCost + opCost

	if !describable {
		// Hash and nested-loop joins of one combination differ in cost
		// alone, so the dearer twin is dominated: never price it.
		switch {
		case phys == plan.HashJoin && cost.OperatorCost(plan.NLJoin, card, inCards...) < opCost,
			phys == plan.NLJoin && x.hashable && cost.OperatorCost(plan.HashJoin, card, inCards...) <= opCost:
			return nil
		}
		probe := Alt{Cost: total, Ship: exec}
		if !sameColKeys(x.cols, e.Group.Cols) {
			probe.Cost += cost.OperatorCost(plan.ProjectExec, card, card) // canonicalizeAlt's reorder
		}
		if dominated(front, &probe, cfg) {
			return nil
		}
	}

	blk := &altBlock{node: *e.Op}
	node := &blk.node
	node.Kind = phys
	// Schema comes from this expression's own children (a commuted join
	// orders its output columns differently from the group canon; upstream
	// operators resolve columns by name, so order is a per-tree detail).
	node.Cols = x.cols
	node.Card = card
	node.Exec = exec
	node.Cost = total
	if len(combo) <= len(blk.kids) {
		node.Children = blk.kids[:len(combo):len(combo)]
	} else {
		node.Children = make([]*plan.Node, len(combo))
	}
	for i, c := range combo {
		node.Children[i] = c.Tree
	}

	alt := &blk.alt
	alt.Tree = node
	alt.Cost = total
	if !cfg.Compliant {
		// Traditional mode: traits carry only what the site selector needs.
		return canonicalizeAlt(alt, e.Group)
	}

	// AR3: output can ship wherever the operator can execute.
	ship := exec
	// AR4: when the subtree is a local query over a single database,
	// the policy evaluator contributes destinations.
	if describable {
		if q, ok := cfg.analyzer.Describe(node); ok {
			ship = ship.Union(cfg.Evaluator.EvaluateWith(q, cfg.Stats))
			alt.DescKey = q.Digest()
		}
	}
	node.ShipT = ship
	alt.Ship = ship
	return canonicalizeAlt(alt, e.Group)
}

// canonicalizeAlt makes the alternative's output schema match the group's
// canonical column order. Group members may produce the same columns in
// different orders (a commuted join concatenates its sides the other way
// round); parents resolve positions against the group schema, so every
// alternative must deliver exactly that layout. A cheap reordering
// projection is inserted when the orders differ.
func canonicalizeAlt(alt *Alt, g *Group) *Alt {
	node := alt.Tree
	if sameColKeys(node.Cols, g.Cols) {
		return alt
	}
	// The reorder projection list depends only on the group schema; cache
	// it on the group — every mis-ordered alternative shares it (plan
	// trees never mutate their Projs).
	if g.canonProjs == nil {
		projs := make([]plan.NamedExpr, len(g.Cols))
		for i, c := range g.Cols {
			projs[i] = plan.NamedExpr{E: c.Col(), Name: c.Name, Type: c.Type}
		}
		g.canonProjs = projs
	}
	blk := &altBlock{alt: *alt}
	blk.kids[0] = node
	blk.node = plan.Node{
		Kind:     plan.ProjectExec,
		Children: blk.kids[:1:1],
		Cols:     g.Cols,
		Projs:    g.canonProjs,
		Card:     node.Card,
		Cost:     node.Cost + cost.OperatorCost(plan.ProjectExec, node.Card, node.Card),
		Exec:     node.Exec,
		ShipT:    node.ShipT,
	}
	out := &blk.alt
	out.Tree = &blk.node
	out.Cost = blk.node.Cost
	return out
}

func sameColKeys(a, b []plan.ColRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Field-wise comparison of what Key() concatenates (no allocation).
		if a[i].Table != b[i].Table || a[i].Name != b[i].Name {
			return false
		}
	}
	return true
}

func scanLocation(n *plan.Node) string {
	idx := n.FragIdx
	if idx < 0 {
		idx = 0
	}
	if n.Table == nil || idx >= len(n.Table.Fragments) {
		return ""
	}
	return n.Table.Fragments[idx].Location
}

// insertAlt adds an alternative to a Pareto-pruned list. Alternative B
// dominates A when B costs no more, B's shipping trait covers A's, and
// the two describe the same local query (or A describes none) — the
// descriptor guard keeps alternatives whose different masking shapes
// could yield different AR4 results upstream.
func insertAlt(alts []*Alt, alt *Alt, maxAlts int, cfg *ImplConfig) []*Alt {
	if dominated(alts, alt, cfg) {
		return alts
	}
	kept := alts[:0]
	for _, other := range alts {
		if !dominates(alt, other, cfg) {
			kept = append(kept, other)
		}
	}
	kept = append(kept, alt)
	if len(kept) > maxAlts {
		sort.Slice(kept, func(i, j int) bool { return kept[i].Cost < kept[j].Cost })
		kept = kept[:maxAlts]
	}
	return kept
}

// dominated reports whether the front already holds an alternative that
// makes alt redundant.
func dominated(front []*Alt, alt *Alt, cfg *ImplConfig) bool {
	for _, other := range front {
		if dominates(other, alt, cfg) {
			return true
		}
	}
	return false
}

func dominates(b, a *Alt, cfg *ImplConfig) bool {
	if b.Cost > a.Cost {
		return false
	}
	if cfg.Compliant && !b.Ship.SupersetOf(a.Ship) {
		return false
	}
	if cfg.Compliant && a.DescKey != "" && a.DescKey != b.DescKey {
		return false
	}
	return true
}

// forEachCombo enumerates the cartesian product of child alternatives.
// The combo slice is reused across invocations; fn must copy anything it
// retains (buildAlt copies the members into the node's Children).
func forEachCombo(childAlts [][]*Alt, fn func([]*Alt)) {
	if len(childAlts) == 0 {
		fn(nil)
		return
	}
	combo := make([]*Alt, len(childAlts))
	var rec func(i int)
	rec = func(i int) {
		if i == len(childAlts) {
			fn(combo)
			return
		}
		for _, a := range childAlts[i] {
			combo[i] = a
			rec(i + 1)
		}
	}
	rec(0)
}

// Best returns the cheapest alternative of a group satisfying the
// compliance-based optimization goal (non-empty shipping trait in
// compliant mode). When requiredLoc is non-empty, only alternatives
// whose output may legally reach that location qualify (the result must
// be deliverable there). It returns nil when the group has no feasible
// alternative — the optimizer then rejects the query.
func Best(g *Group, compliant bool, requiredLoc string) *Alt {
	var best *Alt
	for _, a := range g.Alts {
		if compliant {
			if a.Ship.Empty() {
				continue
			}
			if requiredLoc != "" && !a.Ship.Contains(requiredLoc) {
				continue
			}
		}
		if best == nil || a.Cost < best.Cost {
			best = a
		}
	}
	return best
}

// BestCost returns the cost of the best alternative or +Inf.
func BestCost(g *Group, compliant bool) float64 {
	if b := Best(g, compliant, ""); b != nil {
		return b.Cost
	}
	return math.Inf(1)
}
