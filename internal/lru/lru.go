// Package lru is the one bounded map of the planner and the result
// tier: a least-recently-used cache whose entries carry a cost, evicted
// from the cold end while the total cost exceeds a budget.
package lru

// Cache maps keys to values in recency order. It is not safe for
// concurrent use: every owner guards it with its own lock, which also
// lets an owner validate an entry and drop it in one critical section.
type Cache[K comparable, V any] struct {
	budget, cost int64
	m            map[K]*node[K, V]
	root         node[K, V] // sentinel: root.next is the most recent, root.prev the least
}

type node[K comparable, V any] struct {
	key        K
	val        V
	cost       int64
	prev, next *node[K, V]
}

// New returns an empty cache that holds entries up to a total cost of
// budget.
func New[K comparable, V any](budget int64) *Cache[K, V] {
	c := &Cache[K, V]{budget: budget, m: map[K]*node[K, V]{}}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value stored under k and marks it the most recently
// used entry.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	n, ok := c.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.unlink(n)
	c.pushFront(n)
	return n.val, true
}

// Put stores v under k at the given cost as the most recently used
// entry, replacing what k held. It then evicts least recently used
// entries while the total cost exceeds the budget, but never the only
// entry, and returns how many it evicted.
func (c *Cache[K, V]) Put(k K, v V, cost int64) (evicted int) {
	if n, ok := c.m[k]; ok {
		c.cost += cost - n.cost
		n.val, n.cost = v, cost
		c.unlink(n)
		c.pushFront(n)
	} else {
		n := &node[K, V]{key: k, val: v, cost: cost}
		c.m[k] = n
		c.cost += cost
		c.pushFront(n)
	}
	for c.cost > c.budget && len(c.m) > 1 {
		c.Remove(c.root.prev.key)
		evicted++
	}
	return evicted
}

// Remove drops the entry under k and reports whether there was one.
func (c *Cache[K, V]) Remove(k K) bool {
	n, ok := c.m[k]
	if !ok {
		return false
	}
	c.unlink(n)
	delete(c.m, k)
	c.cost -= n.cost
	return true
}

// Len returns the number of entries.
func (c *Cache[K, V]) Len() int { return len(c.m) }

// Cost returns the total cost of the entries.
func (c *Cache[K, V]) Cost() int64 { return c.cost }

// Budget returns the cost the cache holds at most, but for a single entry
// dearer than that.
func (c *Cache[K, V]) Budget() int64 { return c.budget }

func (c *Cache[K, V]) unlink(n *node[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
}

func (c *Cache[K, V]) pushFront(n *node[K, V]) {
	n.prev, n.next = &c.root, c.root.next
	n.prev.next, n.next.prev = n, n
}
