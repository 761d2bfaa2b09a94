package optimizer

import (
	"container/list"
	"sync"
	"sync/atomic"

	"cgdqp/internal/plan"
)

// planCacheKey identifies one optimization outcome: the normalized
// logical plan (its digest covers operators, predicates, projections and
// fragment bindings), the version of each piece of state a plan is
// derived from — schema catalog (tables, statistics, indexes), policy
// catalog, cost model, feedback hints — each read from its owner (see
// Optimizer.cacheKey), and the optimizer options
// that shape the output. A plan cached under other versions is simply
// unreachable; nobody has to flush it.
type planCacheKey struct {
	planDigest string
	schemaVer  uint64
	policyVer  uint64
	costVer    uint64
	fbEpoch    uint64
	optsFP     string
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
	truncated bool
	maxExprs  int
}

// PlanCacheStats is a snapshot of plan-cache effectiveness counters.
type PlanCacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Len       int
}

// planCache is a mutex-guarded LRU over optimization results. One cache
// belongs to one Optimizer, which is in turn bound to one schema and one
// policy catalog; every change inside them, and every price change, is
// versioned inside the key.
type planCache struct {
	mu      sync.Mutex
	max     int
	entries map[planCacheKey]*list.Element
	lru     *list.List // front = most recent; values are *planCacheItem

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type planCacheItem struct {
	key   planCacheKey
	entry *planCacheEntry
}

func newPlanCache(max int) *planCache {
	return &planCache{
		max:     max,
		entries: map[planCacheKey]*list.Element{},
		lru:     list.New(),
	}
}

// get returns a deep-cloned copy of the cached entry's trees so callers
// may freely mutate (the executor rewrites locations in place). It counts
// hits only: a miss is counted by the optimization that follows it, once,
// however many lookups (query text, then normalized plan) led there.
func (c *planCache) get(key planCacheKey) (*planCacheEntry, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.lru.MoveToFront(el)
	e := el.Value.(*planCacheItem).entry
	out := *e
	c.mu.Unlock()
	c.hits.Add(1)
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
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*planCacheItem).entry = &stored
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&planCacheItem{key: key, entry: &stored})
	for c.lru.Len() > c.max {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.entries, last.Value.(*planCacheItem).key)
		c.evictions.Add(1)
	}
}

// sqlDigestCache memoizes sql text → normalized-plan digest so repeated
// OptimizeSQL calls can consult the plan cache without re-parsing,
// re-binding and re-normalizing. Valid because an Optimizer is bound to
// one schema catalog, which only grows: the same SQL keeps binding to
// the same logical plan. Everything else is handled downstream (the
// digest is only a key component; the versions still gate the plan-cache
// entry). The map is cleared wholesale when full — repeated workloads
// refill it in one pass, and ad-hoc floods cannot grow it without bound.
type sqlDigestCache struct {
	mu  sync.RWMutex
	max int
	m   map[string]string
}

func newSQLDigestCache(max int) *sqlDigestCache {
	return &sqlDigestCache{max: max, m: map[string]string{}}
}

func (c *sqlDigestCache) get(sql string) (string, bool) {
	c.mu.RLock()
	d, ok := c.m[sql]
	c.mu.RUnlock()
	return d, ok
}

func (c *sqlDigestCache) put(sql, digest string) {
	c.mu.Lock()
	if len(c.m) >= c.max {
		c.m = map[string]string{}
	}
	c.m[sql] = digest
	c.mu.Unlock()
}

func (c *planCache) stats() PlanCacheStats {
	c.mu.Lock()
	n := c.lru.Len()
	c.mu.Unlock()
	return PlanCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Len:       n,
	}
}
