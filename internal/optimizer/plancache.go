package optimizer

import (
	"sync"
	"sync/atomic"

	"cgdqp/internal/cost"
	"cgdqp/internal/lru"
	"cgdqp/internal/memo"
	"cgdqp/internal/plan"
)

// planCacheKey identifies one optimization outcome: the normalized
// logical plan (its digest covers operators, predicates, projections and
// fragment bindings) and the version of each piece of state a plan is
// derived from — schema catalog (tables, statistics, indexes), policy
// catalog, cost model — each read from its owner (see
// Optimizer.cacheKey). The options that shape the output are not in it:
// a cache belongs to one Optimizer, whose options never change. A plan
// cached under other versions is simply unreachable; nobody has to
// flush it.
type planCacheKey struct {
	planDigest string
	schemaVer  uint64
	policyVer  uint64
	costVer    uint64
}

// planCacheEntry records everything Optimize would recompute. Trees are
// stored privately and deep-cloned on every hit; phase timings are not
// recorded (a hit costs none of them).
type planCacheEntry struct {
	located   *plan.Node
	annotated *plan.Node
	planCost  float64
	shipCost  float64
	groups    int
	exprs     int
	eta       int64
	aCalls    int64
	aHits     int64
	truncated bool
	maxExprs  int
}

// exploreKey identifies one exploration: the normalized plan and the
// state exploration reads — statistics (schema version). Policies and
// prices are not in it: only Implement and site selection read them, so
// an explored memo outlives their changes.
type exploreKey struct {
	planDigest string
	schemaVer  uint64
}

// explored is one query shape's exploration: a sealed memo, which any
// number of Implement passes may share, its root group and the estimator
// it was explored with.
type explored struct {
	m    *memo.Memo
	root *memo.Group
	est  *cost.Estimator
}

// exprsPerPlan sizes the explore cache: it holds PlanCacheSize × 64
// memo expressions.
const exprsPerPlan = 64

// PlanCacheStats is a snapshot of plan-cache effectiveness counters,
// and of the explore cache beside it.
type PlanCacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Len       int

	ExploreHits      int64
	ExploreMisses    int64
	ExploreEvictions int64
}

// planCache holds optimization results and, beside them, the
// normalized-plan digest of query text optimized before, each in an LRU
// of one cost unit per entry, under one mutex. One cache belongs to one
// Optimizer, which is in turn bound to one schema and one policy catalog;
// every change inside them, and every price change, is versioned inside
// the key.
//
// The digests let OptimizeSQL reach a plan without re-parsing,
// re-binding and re-normalizing. That is valid because the schema
// catalog only grows: the same SQL keeps binding to the same logical
// plan. Everything else is handled downstream (the digest is only a key
// component; the versions still gate the plan entry).
//
// The third LRU holds explored memos costed by expression count, so a
// plan miss after a policy or price change skips exploration.
type planCache struct {
	mu       sync.Mutex
	plans    *lru.Cache[planCacheKey, *planCacheEntry]
	digests  *lru.Cache[string, string] // query text → normalized-plan digest
	explored *lru.Cache[exploreKey, *explored]

	hits             atomic.Int64
	misses           atomic.Int64
	evictions        atomic.Int64
	exploreHits      atomic.Int64
	exploreMisses    atomic.Int64
	exploreEvictions atomic.Int64
}

// newPlanCache holds size plans, the digests of 4 × size query texts and
// explored memos of up to exprsPerPlan × size expressions in all.
func newPlanCache(size int) *planCache {
	return &planCache{
		plans:    lru.New[planCacheKey, *planCacheEntry](int64(size)),
		digests:  lru.New[string, string](int64(4 * size)),
		explored: lru.New[exploreKey, *explored](int64(exprsPerPlan * size)),
	}
}

// get returns a deep-cloned copy of the cached entry's trees so callers
// may freely mutate (the executor rewrites locations in place). It counts
// hits only: a miss is counted by the optimization that follows it, once,
// however many lookups (query text, then normalized plan) led there.
func (c *planCache) get(key planCacheKey) (*planCacheEntry, bool) {
	c.mu.Lock()
	e, ok := c.plans.Get(key)
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	c.hits.Add(1)
	out := *e
	out.located = e.located.Clone()
	out.annotated = e.annotated.Clone()
	return &out, true
}

// put stores private clones of the trees under the key.
func (c *planCache) put(key planCacheKey, e *planCacheEntry) {
	stored := *e
	stored.located = e.located.Clone()
	stored.annotated = e.annotated.Clone()
	c.mu.Lock()
	n := c.plans.Put(key, &stored, 1)
	c.mu.Unlock()
	c.evictions.Add(int64(n))
}

// digest returns the normalized-plan digest remembered for query text.
func (c *planCache) digest(sql string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.digests.Get(sql)
}

func (c *planCache) putDigest(sql, digest string) {
	c.mu.Lock()
	c.digests.Put(sql, digest, 1)
	c.mu.Unlock()
}

// getExplored returns the exploration stored under key, counting a hit
// or a miss.
func (c *planCache) getExplored(key exploreKey) (*explored, bool) {
	c.mu.Lock()
	x, ok := c.explored.Get(key)
	c.mu.Unlock()
	if ok {
		c.exploreHits.Add(1)
	} else {
		c.exploreMisses.Add(1)
	}
	return x, ok
}

// putExplored stores an exploration at its expression count. One larger
// than the whole budget is not kept, so the cache never holds more than
// its budget.
func (c *planCache) putExplored(key exploreKey, x *explored) {
	n := int64(x.m.ExprCount())
	c.mu.Lock()
	defer c.mu.Unlock()
	if n <= c.explored.Budget() {
		c.exploreEvictions.Add(int64(c.explored.Put(key, x, n)))
	}
}

func (c *planCache) stats() PlanCacheStats {
	c.mu.Lock()
	n := c.plans.Len()
	c.mu.Unlock()
	return PlanCacheStats{
		Hits:             c.hits.Load(),
		Misses:           c.misses.Load(),
		Evictions:        c.evictions.Load(),
		Len:              n,
		ExploreHits:      c.exploreHits.Load(),
		ExploreMisses:    c.exploreMisses.Load(),
		ExploreEvictions: c.exploreEvictions.Load(),
	}
}
