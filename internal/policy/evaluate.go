package policy

import (
	"sync"
	"sync/atomic"

	"cgdqp/internal/expr"
	"cgdqp/internal/plan"
)

// evalShards is the number of independently locked cache shards. Sixteen
// keeps lock contention negligible for the 8–64 concurrent optimizations
// a coordinator realistically runs while wasting no memory.
const evalShards = 16

// EvalStats accumulates evaluator statistics for one caller (one
// Optimize call). The struct is owned by a single goroutine and updated
// without synchronization; the evaluator's own cumulative counters are
// atomic and shared. η (Eta) counts policy expressions "considered"
// (Algorithm 1 reaching line 4) — Figure 7 plots optimization time
// against it.
type EvalStats struct {
	Eta   int64 // expressions considered (line 4 reached)
	Calls int64 // Evaluate invocations
	Hits  int64 // cache hits
}

// evalEntry is one memoized result, stamped with the catalog version
// and the number of locations (the list is append-only, so its length
// identifies it) it was computed under.
type evalEntry struct {
	version uint64
	nLocs   int
	set     plan.SiteSet
}

type evalShard struct {
	mu sync.RWMutex
	m  map[string]evalEntry
}

// Evaluator implements the policy evaluation algorithm 𝒜 of Section 5
// (Algorithm 1). It is configured with the policy catalog, the source of
// the full list of locations (for expanding `to *`), and the
// implication-test mode.
//
// One evaluator is safely shareable across goroutines: results are
// memoized by query digest in a sharded, RWMutex-guarded cache, the
// cumulative η/call/hit counters are atomics, and every entry carries
// the Policies.Version() and location count it was computed under
// (entries from another version read as misses), so a catalog change —
// through any caller — invalidates the memo without racing in-flight
// evaluations. Per-caller statistics are attributed through an EvalStats
// handle passed to EvaluateWith.
//
// The configuration fields (Policies, Locations, Mode, NoCache) must be
// set before the evaluator is shared; they are read without locks.
type Evaluator struct {
	Policies *Catalog
	// Locations returns the location universe: append-only, and safe to
	// call concurrently (NewEvaluator installs a fixed list).
	Locations func() []string
	Mode      expr.ImplicationMode
	// NoCache disables result memoization. The paper's evaluator re-runs
	// per plan operator, which is what makes its C-type expression sets
	// (whose implication tests always pass) measurably costlier than
	// CR/CR+A (Figure 6(c–f)); disable the cache to reproduce that
	// effect, keep it for production use.
	NoCache bool

	// Cumulative stats across all callers.
	eta   atomic.Int64
	calls atomic.Int64
	hits  atomic.Int64

	shards [evalShards]evalShard
}

// NewEvaluator builds an evaluator over the given policy catalog.
func NewEvaluator(policies *Catalog, allLocations []string) *Evaluator {
	fixed := append([]string(nil), allLocations...)
	ev := &Evaluator{
		Policies:  policies,
		Locations: func() []string { return fixed },
	}
	for i := range ev.shards {
		ev.shards[i].m = map[string]evalEntry{}
	}
	return ev
}

// Eta returns the cumulative count of policy expressions considered.
func (ev *Evaluator) Eta() int64 { return ev.eta.Load() }

// Calls returns the cumulative number of Evaluate invocations.
func (ev *Evaluator) Calls() int64 { return ev.calls.Load() }

// Hits returns the cumulative number of cache hits.
func (ev *Evaluator) Hits() int64 { return ev.hits.Load() }

// ResetStats clears the cumulative η and call counters (not the cache).
func (ev *Evaluator) ResetStats() {
	ev.eta.Store(0)
	ev.calls.Store(0)
	ev.hits.Store(0)
}

// shardOf picks the cache shard for a key (FNV-1a).
func shardOf(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return h % evalShards
}

// Evaluate runs 𝒜(q, D, P_D): it returns the set of locations to which
// the output of the local query q over database q.DB may legally be
// shipped.
func (ev *Evaluator) Evaluate(q *Query) plan.SiteSet {
	return ev.EvaluateWith(q, nil)
}

// EvaluateWith is Evaluate with per-caller stats attribution: st (when
// non-nil) is incremented alongside the evaluator's cumulative counters,
// letting concurrent optimizations report their own η and call counts.
func (ev *Evaluator) EvaluateWith(q *Query, st *EvalStats) plan.SiteSet {
	ev.calls.Add(1)
	if st != nil {
		st.Calls++
	}
	all := ev.Locations()
	if ev.NoCache {
		return ev.evaluate(q, all, st)
	}
	key := q.Digest()
	// Loaded before the catalog is read: see Catalog.version.
	version := ev.Policies.Version()
	sh := &ev.shards[shardOf(key)]
	sh.mu.RLock()
	e, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok && e.version == version && e.nLocs == len(all) {
		ev.hits.Add(1)
		if st != nil {
			st.Hits++
		}
		return e.set
	}
	res := ev.evaluate(q, all, st)
	sh.mu.Lock()
	sh.m[key] = evalEntry{version: version, nLocs: len(all), set: res}
	sh.mu.Unlock()
	return res
}

func (ev *Evaluator) evaluate(q *Query, all []string, st *EvalStats) plan.SiteSet {
	// Shipping to the data's own location is always legal (Section 3.2
	// evaluates 𝒜(C, D_N, P_N) = {N}): the home location joins the
	// result regardless of policy coverage.
	home := plan.SiteSet{}
	if q.Home != "" {
		home = plan.NewSiteSet(q.Home)
	}
	// A query exposing no attributes (e.g. bare COUNT(*)) still reveals
	// information; with no attribute to anchor the policy match we stay
	// conservative and allow nothing beyond the home location.
	if len(q.OutAttrs) == 0 {
		return home
	}
	exprs := ev.Policies.ForDB(q.DB)
	// L_a per output attribute (line 1).
	locs := make([]plan.SiteSet, len(q.OutAttrs))
	var eta int64

	for _, e := range exprs {
		// Line 2: A_q ∩ A_e ≠ ∅ (attribute-wise, scoped to e's tables).
		overlap := false
		for _, a := range q.OutAttrs {
			if e.Covers(a.Attr) {
				overlap = true
				break
			}
		}
		if !overlap {
			continue
		}
		// Line 3: P_q ⇒ P_e.
		if !expr.ImpliesMode(q.Pred, e.Where, ev.Mode) {
			continue
		}
		eta++ // the expression is "considered" (line 4 reached)

		switch {
		case !e.IsAggregate():
			// Cases 1 & 2 (lines 4–5): basic expression. Raw cells are
			// allowed, so both raw and aggregated uses of the attribute
			// are covered.
			for i, a := range q.OutAttrs {
				if e.Covers(a.Attr) {
					locs[i] = locs[i].Union(plan.NewSiteSet(e.Destinations(all)...))
				}
			}
		case q.Aggregated:
			// Case 3 (lines 6–10): aggregate expression and aggregate
			// query. G_q ⊆ G_e, scoped to the expression's table (this
			// includes the empty subset).
			if !groupBySubset(q.GroupBy, e) {
				continue
			}
			for i, a := range q.OutAttrs {
				if !e.OwnsTable(a.Table) {
					continue
				}
				switch {
				case !a.HasAgg && e.InGroupBy(a.Attr):
					// Grouping attributes are implicitly shippable.
					locs[i] = locs[i].Union(plan.NewSiteSet(e.Destinations(all)...))
				case a.HasAgg && e.Covers(a.Attr) && e.AllowsFn(a.Agg):
					locs[i] = locs[i].Union(plan.NewSiteSet(e.Destinations(all)...))
				}
			}
		}
		// Aggregate expression with a non-aggregating query contributes
		// nothing: raw cells may not leave.
	}
	ev.eta.Add(eta)
	if st != nil {
		st.Eta += eta
	}

	// Line 11: every output attribute must have at least one legal
	// destination; the result is the intersection (plus home).
	out := locs[0]
	for _, s := range locs[1:] {
		if out.Empty() {
			break
		}
		out = out.Intersect(s)
	}
	return out.Union(home)
}

// groupBySubset checks G_q ⊆ G_e for grouping attributes that belong to
// the expression's tables. Attributes of other tables are governed by
// their own tables' expressions (they appear in A_q and accumulate their
// own location sets).
func groupBySubset(groupBy []Attr, e *Expression) bool {
	for _, g := range groupBy {
		if e.OwnsTable(g.Table) && !e.InGroupBy(g) {
			return false
		}
	}
	return true
}

// EvaluateSubtree describes a plan subtree and, when it is a local query,
// evaluates the policies against it. ok is false when the subtree is not
// a local query (AR4 does not apply).
func (ev *Evaluator) EvaluateSubtree(n *plan.Node) (plan.SiteSet, bool) {
	return ev.EvaluateSubtreeWith(n, nil)
}

// EvaluateSubtreeWith is EvaluateSubtree with per-caller stats.
func (ev *Evaluator) EvaluateSubtreeWith(n *plan.Node, st *EvalStats) (plan.SiteSet, bool) {
	q, ok := Describe(n)
	if !ok {
		return plan.SiteSet{}, false
	}
	return ev.EvaluateWith(q, st), true
}
