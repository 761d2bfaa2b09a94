package optimizer

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"cgdqp/internal/cost"
	"cgdqp/internal/expr"
	"cgdqp/internal/memo"
	"cgdqp/internal/network"
	"cgdqp/internal/obs"
	"cgdqp/internal/plan"
	"cgdqp/internal/policy"
	"cgdqp/internal/rules"
	"cgdqp/internal/schema"
	"cgdqp/internal/sqlparse"
)

// ErrNoCompliantPlan is returned when the optimizer cannot find any
// compliant execution plan for a query: the query is rejected, as in
// Figure 2's "legal?" gate.
var ErrNoCompliantPlan = errors.New("optimizer: query has no compliant execution plan under the current dataflow policies")

// DefaultPlanCacheSize is the plan-cache capacity production embedders
// (cgdqp.System, the CLI shell) use unless configured otherwise.
const DefaultPlanCacheSize = 256

// Options configure an optimizer instance.
type Options struct {
	// Compliant selects the compliance-based optimizer; false gives the
	// traditional cost-based baseline (Section 7.1's comparison subject):
	// Calcite-style phase 1 without traits, then the same site selector
	// with every location considered legal.
	Compliant bool
	// ImplicationMode selects the precision of the P_q ⇒ P_e test.
	ImplicationMode expr.ImplicationMode
	// MaxAlts caps per-group Pareto alternatives (default 12).
	MaxAlts int
	// MaxExprs caps memo exploration (default 200000).
	MaxExprs int
	// DisableAggPushdown removes the aggregation-pushdown rule (the
	// ablation of Section 6.4's completeness discussion).
	DisableAggPushdown bool
	// GreedySiteSelection replaces Algorithm 2 with a greedy
	// cheapest-edge placement (ablation).
	GreedySiteSelection bool
	// ResultLocation pins where the query result must be delivered
	// ("" = wherever is cheapest).
	ResultLocation string
	// NoPolicyCache disables the policy evaluator's memoization (the
	// paper's evaluator re-ran per operator; see Figure 6(c–f)).
	NoPolicyCache bool
	// PlanCacheSize enables a whole-plan LRU cache holding that many
	// optimized plans, keyed by (normalized-plan digest, state versions).
	// 0 disables it — the default, so the paper's optimization-time
	// experiments measure real optimizer work.
	PlanCacheSize int
	// PoolBytes is the configured buffer-pool budget fed to the cost
	// model's index access-path pricing (0 = the model's default). It
	// reflects the *configured* budget, never which pager runs, so
	// plan choice stays pager-independent.
	PoolBytes int64
}

// Optimizer turns bound logical plans into located, compliant QEPs.
type Optimizer struct {
	Schema   *schema.Catalog
	Policies *policy.Catalog
	Net      *network.CostModel
	Opts     Options

	// Evaluator is shared across optimizations so that the policy cache
	// persists; per-Optimize η/call counts are attributed through a
	// policy.EvalStats handle, so concurrent optimizations do not race.
	Evaluator *policy.Evaluator

	// planCache (optional) memoizes whole optimization results and the
	// plan digest of known query text; see Options.PlanCacheSize.
	planCache *planCache

	// locs is Schema.Locations() as of the version it was read at.
	locs atomic.Pointer[locationList]

	// obsv receives optimizer metrics (latency histogram, plan-cache and
	// policy-cache gauges). nil disables observation. Set it before
	// sharing the optimizer.
	obsv *obs.Observer
}

type locationList struct {
	schemaVer uint64
	list      []string
}

// SetObserver installs the observability sinks optimizations report
// into (nil disables). Like the catalogs, configure before concurrent
// use starts.
func (o *Optimizer) SetObserver(obsv *obs.Observer) { o.obsv = obsv }

// cacheKey builds the plan-cache key of a normalized-plan digest — the
// only place one is built. Each version is an atomic load from the
// state's owner, so a change made through any handle on the schema
// catalog (tables, statistics, indexes), the policy catalog or the cost
// model is observed here without anyone having to tell the optimizer.
func (o *Optimizer) cacheKey(planDigest string) planCacheKey {
	return planCacheKey{
		planDigest: planDigest,
		schemaVer:  o.Schema.Version(),
		policyVer:  o.Policies.Version(),
		costVer:    o.Net.Version(),
	}
}

// New builds an optimizer over the given catalogs and network model.
func New(sc *schema.Catalog, pc *policy.Catalog, net *network.CostModel, opts Options) *Optimizer {
	// Pre-intern the location universe so SiteSet construction during
	// optimization is pure bit-twiddling on a stable read-only snapshot.
	plan.Universe().Intern(sc.Locations()...)
	ev := policy.NewEvaluator(pc, nil)
	ev.Mode = opts.ImplicationMode
	ev.NoCache = opts.NoPolicyCache
	o := &Optimizer{Schema: sc, Policies: pc, Net: net, Opts: opts, Evaluator: ev}
	ev.Locations = o.locations // `to *` follows the catalog's location list
	if opts.PlanCacheSize > 0 {
		o.planCache = newPlanCache(opts.PlanCacheSize)
	}
	return o
}

// locations returns the schema catalog's location list, copied out of
// the catalog again only when its version has moved. The version is
// loaded first, so a list remembered under v is never older than v.
func (o *Optimizer) locations() []string {
	v := o.Schema.Version()
	if l := o.locs.Load(); l != nil && l.schemaVer == v {
		return l.list
	}
	l := &locationList{schemaVer: v, list: o.Schema.Locations()}
	o.locs.Store(l)
	return l.list
}

// PlanCacheEnabled reports whether the optimizer keeps a plan cache.
func (o *Optimizer) PlanCacheEnabled() bool { return o.planCache != nil }

// PlanCacheStats reports plan-cache effectiveness (zero value when the
// cache is disabled).
func (o *Optimizer) PlanCacheStats() PlanCacheStats {
	if o.planCache == nil {
		return PlanCacheStats{}
	}
	return o.planCache.stats()
}

// Stats reports what one optimization did.
type Stats struct {
	// ParseTime is OptimizeSQL's parse and bind (0 when the query text
	// reached the plan cache without them).
	ParseTime     time.Duration
	NormalizeTime time.Duration
	ExploreTime   time.Duration
	ImplementTime time.Duration
	SiteTime      time.Duration
	TotalTime     time.Duration

	Groups int
	Exprs  int
	Eta    int64 // policy expressions considered (Fig 7's η)
	ACalls int64 // policy evaluator invocations
	AHits  int64 // policy evaluator cache hits

	// Truncated marks a search that the MaxExprs budget cut short. The
	// plan is compliant (annotation and site selection ran in full over
	// what was explored) but possibly not the cheapest.
	Truncated bool
	MaxExprs  int

	// PlanCacheHit marks a result served from the whole-plan cache; the
	// counts above then describe the original (cached) optimization.
	PlanCacheHit bool
	// ExploreHit marks a plan-cache miss that reused a cached exploration
	// of the same query shape: only annotation and site selection ran.
	ExploreHit bool
}

// SearchNote is the line EXPLAIN prints under a plan whose search hit
// the budget ("" otherwise).
func (st Stats) SearchNote() string {
	if !st.Truncated {
		return ""
	}
	return fmt.Sprintf("search: truncated at MaxExprs=%d — groups %d, exprs %d; plan is compliant but may not be cheapest\n",
		st.MaxExprs, st.Groups, st.Exprs)
}

// Result is the outcome of one optimization.
type Result struct {
	// Plan is the final located QEP with SHIP operators.
	Plan *plan.Node
	// Annotated is the phase-1 output (before site selection), with
	// execution and shipping traits on every operator.
	Annotated *plan.Node
	// PlanCost is the phase-1 (single-site) cost of the chosen plan.
	PlanCost float64
	// ShipCost is the phase-2 estimated communication cost.
	ShipCost float64
	// PolicyVer is the policy-catalog version read before the plan was
	// derived — for a plan-cache hit, the version its key carries: the
	// plan is compliant under the catalog at that version.
	PolicyVer uint64
	Stats     Stats
}

// cachedResult turns a plan-cache entry found under key into a Result.
func cachedResult(e *planCacheEntry, key planCacheKey, normTime time.Duration, start time.Time) *Result {
	return &Result{
		Plan:      e.located,
		Annotated: e.annotated,
		PlanCost:  e.planCost,
		ShipCost:  e.shipCost,
		PolicyVer: key.policyVer,
		Stats: Stats{
			NormalizeTime: normTime,
			TotalTime:     time.Since(start),
			Groups:        e.groups,
			Exprs:         e.exprs,
			Eta:           e.eta,
			ACalls:        e.aCalls,
			AHits:         e.aHits,
			Truncated:     e.truncated,
			MaxExprs:      e.maxExprs,
			PlanCacheHit:  true,
		},
	}
}

// Optimize runs the two-phase compliance-based optimization on a bound
// logical plan.
func (o *Optimizer) Optimize(logical *plan.Node) (*Result, error) {
	res, _, err := o.optimize(logical)
	return res, err
}

// optimize additionally returns the normalized-plan digest (when the
// plan cache is on) so OptimizeSQL can index its query-text shortcut.
func (o *Optimizer) optimize(logical *plan.Node) (*Result, string, error) {
	start := time.Now()
	var evStats policy.EvalStats
	norm := Normalize(logical.Clone())
	normTime := time.Since(start)

	var cacheKey planCacheKey
	if o.planCache != nil {
		cacheKey = o.cacheKey(norm.Digest())
		if e, ok := o.planCache.get(cacheKey); ok {
			o.finishOptimize(start, "hit", false, nil)
			return cachedResult(e, cacheKey, normTime, start), cacheKey.planDigest, nil
		}
		o.planCache.misses.Add(1)
	} else {
		// Read before the evaluator reads the catalog, as cacheKey does.
		cacheKey.policyVer = o.Policies.Version()
	}
	// An unknown result location is a configuration error, not a policy
	// verdict: no plan could ever be delivered there. Failures are never
	// cached, so the hit path above needs no check.
	if loc := o.Opts.ResultLocation; loc != "" && !slices.Contains(o.locations(), loc) {
		err := fmt.Errorf("optimizer: unknown result location %q", loc)
		o.finishOptimize(start, "miss", false, err)
		return nil, "", err
	}

	// Phase 1: plan annotator. Exploration reads no policy and no price,
	// so it is shared across their versions (see explore).
	t1 := time.Now()
	x, exploreHit := o.explore(norm, cacheKey)
	exploreTime := time.Since(t1)

	t2 := time.Now()
	cfg := &memo.ImplConfig{
		Est:          x.est,
		Compliant:    o.Opts.Compliant,
		Evaluator:    o.Evaluator,
		AllLocations: o.locations(),
		MaxAlts:      o.Opts.MaxAlts,
		Stats:        &evStats,
	}
	best := memo.Best(x.m.Implement(x.root, cfg), o.Opts.Compliant, o.Opts.ResultLocation)
	implementTime := time.Since(t2)
	truncated := x.m.Budget()
	if best == nil {
		o.finishOptimize(start, "miss", truncated, ErrNoCompliantPlan)
		return nil, "", ErrNoCompliantPlan
	}
	annotated := best.Tree

	// Phase 2: site selector over a private copy of the chosen tree
	// (memo alternatives share subtrees). Adjacent projections are
	// merged first.
	t3 := time.Now()
	located := o.mergeProjections(annotated.Clone(), &evStats)
	var shipCost float64
	var err error
	if o.Opts.GreedySiteSelection {
		located, shipCost, err = greedySelectSites(located, o.Net, o.Opts.ResultLocation)
	} else {
		located, shipCost, err = SelectSites(located, o.Net, o.Opts.ResultLocation)
	}
	siteTime := time.Since(t3)
	if err != nil {
		if o.Opts.Compliant {
			err = fmt.Errorf("%w: %v", ErrNoCompliantPlan, err)
		}
		o.finishOptimize(start, "miss", truncated, err)
		return nil, "", err
	}

	if o.planCache != nil {
		o.planCache.put(cacheKey, &planCacheEntry{
			located:   located,
			annotated: annotated,
			planCost:  best.Cost,
			shipCost:  shipCost,
			groups:    len(x.m.Groups),
			exprs:     x.m.ExprCount(),
			eta:       evStats.Eta,
			aCalls:    evStats.Calls,
			aHits:     evStats.Hits,
			truncated: truncated,
			maxExprs:  x.m.MaxExprs,
		})
	}

	o.finishOptimize(start, "miss", truncated, nil)
	return &Result{
		Plan:      located,
		Annotated: annotated,
		PlanCost:  best.Cost,
		ShipCost:  shipCost,
		PolicyVer: cacheKey.policyVer,
		Stats: Stats{
			NormalizeTime: normTime,
			ExploreTime:   exploreTime,
			ImplementTime: implementTime,
			SiteTime:      siteTime,
			TotalTime:     time.Since(start),
			Groups:        len(x.m.Groups),
			Exprs:         x.m.ExprCount(),
			Eta:           evStats.Eta,
			ACalls:        evStats.Calls,
			AHits:         evStats.Hits,
			Truncated:     truncated,
			MaxExprs:      x.m.MaxExprs,
			ExploreHit:    exploreHit,
		},
	}, cacheKey.planDigest, nil
}

// explore returns the explored memo of a normalized plan: with the plan
// cache on, the one stored under the key's digest and schema version
// when there is one (the bool reports that), otherwise a fresh
// exploration, then stored. Two concurrent misses may both explore; the
// scheduler already coalesces identical optimizations.
func (o *Optimizer) explore(norm *plan.Node, key planCacheKey) (*explored, bool) {
	ek := exploreKey{planDigest: key.planDigest, schemaVer: key.schemaVer}
	if o.planCache != nil {
		if x, ok := o.planCache.getExplored(ek); ok {
			return x, true
		}
	}
	est := cost.NewEstimator(norm)
	if o.Opts.PoolBytes > 0 {
		est.SetPoolBytes(o.Opts.PoolBytes)
	}
	m := memo.New(est)
	if o.Opts.MaxExprs > 0 {
		m.MaxExprs = o.Opts.MaxExprs
	}
	root := m.InsertTree(norm)
	m.Explore(o.ruleSet())
	m.Seal()
	x := &explored{m: m, root: root, est: est}
	if o.planCache != nil {
		o.planCache.putExplored(ek, x)
	}
	return x, false
}

// finishOptimize refreshes the optimizer metrics: the latency histogram, the outcome counter, the
// plan-cache / policy-evaluator gauges (cumulative values sampled at
// each optimization, so exports always reflect the latest state) and
// the versions the plan cache keys on, so a flush can be attributed to
// the one that moved. truncated marks a search the memo budget cut
// short.
func (o *Optimizer) finishOptimize(start time.Time, cache string, truncated bool, err error) {
	m := o.obsv.Reg()
	if m == nil {
		return
	}
	if o.planCache == nil {
		cache = "off"
	}
	status := "ok"
	if err != nil {
		status = "error"
	}
	m.Counter("cgdqp_optimizations_total", "cache", cache, "status", status).Inc()
	if truncated {
		m.Counter("cgdqp_optimizer_budget_truncated_total").Inc()
	}
	if err == nil {
		m.Histogram("cgdqp_optimize_seconds").Observe(time.Since(start).Seconds())
	}
	pcs := o.PlanCacheStats()
	m.Gauge("cgdqp_plan_cache_hits").Set(float64(pcs.Hits))
	m.Gauge("cgdqp_plan_cache_misses").Set(float64(pcs.Misses))
	m.Gauge("cgdqp_plan_cache_evictions").Set(float64(pcs.Evictions))
	m.Gauge("cgdqp_plan_cache_len").Set(float64(pcs.Len))
	m.Gauge("cgdqp_explore_cache_hits").Set(float64(pcs.ExploreHits))
	m.Gauge("cgdqp_explore_cache_misses").Set(float64(pcs.ExploreMisses))
	m.Gauge("cgdqp_explore_cache_evictions").Set(float64(pcs.ExploreEvictions))
	m.Gauge("cgdqp_policy_eval_calls").Set(float64(o.Evaluator.Calls()))
	m.Gauge("cgdqp_policy_eval_cache_hits").Set(float64(o.Evaluator.Hits()))
	m.Gauge("cgdqp_policy_eval_eta").Set(float64(o.Evaluator.Eta()))
	m.Gauge("cgdqp_schema_version").Set(float64(o.Schema.Version()))
	m.Gauge("cgdqp_policy_version").Set(float64(o.Policies.Version()))
	m.Gauge("cgdqp_costmodel_version").Set(float64(o.Net.Version()))
}

// OptimizeSQL parses, binds and optimizes a SQL string. With the plan
// cache on, query text seen before skips parsing, binding and
// normalization entirely: the remembered normalized-plan digest reaches
// straight into the plan cache. The versions in the key still fence off
// stale schema, policy and price state — also for the digest itself: a
// remembered digest can only reach an entry filled under the current
// schema version.
func (o *Optimizer) OptimizeSQL(sql string) (*Result, error) {
	if o.planCache != nil {
		start := time.Now()
		if d, ok := o.planCache.digest(sql); ok {
			key := o.cacheKey(d)
			if e, ok := o.planCache.get(key); ok {
				o.finishOptimize(start, "hit", false, nil)
				return cachedResult(e, key, 0, start), nil
			}
		}
	}
	t0 := time.Now()
	logical, err := sqlparse.ParseAndBind(sql, o.Schema)
	if err != nil {
		return nil, err
	}
	parseTime := time.Since(t0)
	res, digest, err := o.optimize(logical)
	if err != nil {
		return nil, err
	}
	res.Stats.ParseTime = parseTime
	if o.planCache != nil && digest != "" {
		o.planCache.putDigest(sql, digest)
	}
	return res, nil
}

// CachedDigest returns the memoized normalized-plan digest for query
// text this optimizer has successfully optimized before ("" , false
// otherwise, and always false with the plan cache off). Schedulers use
// it to coalesce identical in-flight optimizations under their
// canonical digest even when the SQL texts differ only in spelling.
func (o *Optimizer) CachedDigest(sql string) (string, bool) {
	if o.planCache == nil {
		return "", false
	}
	return o.planCache.digest(sql)
}

// Check validates a located plan against Definition 1 using this
// optimizer's policy evaluator.
func (o *Optimizer) Check(located *plan.Node) []Violation {
	return CheckCompliance(located, o.Evaluator)
}

func (o *Optimizer) ruleSet() []memo.Rule {
	rs := []memo.Rule{rules.JoinCommute{}, rules.JoinAssoc{}, rules.JoinUnionDistribute{}}
	// The traditional baseline mirrors "Calcite as-is" (Section 7.1):
	// no eager-aggregation rule. The compliant optimizer needs it for
	// completeness (Section 6.4).
	if o.Opts.Compliant && !o.Opts.DisableAggPushdown {
		rs = append(rs, rules.AggPushdown{})
	}
	return rs
}

// greedySelectSites is the ablation baseline for Algorithm 2: it places
// each operator bottom-up at the legal location that minimizes only the
// immediate shipping cost of its inputs, ignoring downstream placement.
func greedySelectSites(root *plan.Node, net *network.CostModel, resultLoc string) (*plan.Node, float64, error) {
	total := 0.0
	var place func(n *plan.Node, prefer string) (string, error)
	place = func(n *plan.Node, prefer string) (string, error) {
		if len(n.Children) == 0 {
			if n.Exec.Empty() {
				return "", fmt.Errorf("optimizer: empty execution trait on leaf")
			}
			n.Loc = n.Exec.Slice()[0]
			return n.Loc, nil
		}
		childLocs := make([]string, len(n.Children))
		for i, c := range n.Children {
			cl, err := place(c, prefer)
			if err != nil {
				return "", err
			}
			childLocs[i] = cl
		}
		cands := n.Exec.Slice()
		if prefer != "" && n.Exec.Contains(prefer) && n == root {
			cands = []string{prefer}
		}
		if len(cands) == 0 {
			return "", fmt.Errorf("optimizer: empty execution trait")
		}
		bestLoc, bestCost := "", -1.0
		for _, l := range cands {
			c := 0.0
			for i, child := range n.Children {
				c += net.ShipCost(childLocs[i], l, child.Card*child.RowWidth())
			}
			if bestCost < 0 || c < bestCost {
				bestCost, bestLoc = c, l
			}
		}
		total += bestCost
		n.Loc = bestLoc
		for i, child := range n.Children {
			if childLocs[i] != bestLoc {
				ship := plan.NewShip(child, childLocs[i], bestLoc)
				ship.Exec = plan.NewSiteSet(bestLoc)
				n.Children[i] = ship
			}
		}
		return bestLoc, nil
	}
	if _, err := place(root, resultLoc); err != nil {
		return nil, 0, err
	}
	if resultLoc != "" && root.Loc != resultLoc {
		if !root.Exec.Contains(resultLoc) {
			return nil, 0, fmt.Errorf("optimizer: result location %s not legal", resultLoc)
		}
	}
	return root, total, nil
}
