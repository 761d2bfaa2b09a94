package policy

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Catalog is the policy catalog of Figure 2: the set of all registered
// policy expressions, indexed by owning database. Data officers register
// expressions offline; the optimizer consults the catalog through the
// Evaluator at query time. The catalog is safe for concurrent use, so
// policies may churn (grants added or revoked) while a serving tier
// evaluates queries against it, and it versions itself: every cache of
// policy-derived state stamps what it stores with Version and treats a
// stamp from another version as a miss.
type Catalog struct {
	mu   sync.RWMutex
	byDB map[string][]*Expression
	n    int
	// version counts changes. It is stored under mu after the contents
	// change, so a reader that loads version v and then reads the
	// contents sees at least v's grants: a result stamped v is never
	// older than v.
	version atomic.Uint64
}

// NewCatalog returns an empty policy catalog.
func NewCatalog() *Catalog {
	return &Catalog{byDB: map[string][]*Expression{}}
}

// Version returns the number of changes made to the catalog so far (one
// per Add, AddAll or successful Remove). It is an atomic load.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// Add registers an expression.
func (c *Catalog) Add(e *Expression) { c.AddAll(e) }

// AddAll registers several expressions as one change.
func (c *Catalog) AddAll(es ...*Expression) {
	if len(es) == 0 {
		return
	}
	c.mu.Lock()
	for _, e := range es {
		db := strings.ToLower(e.DB)
		c.byDB[db] = append(c.byDB[db], e)
		c.n++
	}
	c.version.Add(1)
	c.mu.Unlock()
}

// Remove deletes the expression with the given ID (case-insensitive),
// reporting whether one was removed. Revoking a grant tightens the
// catalog: plans and cached results derived while it was in force may
// no longer be compliant, which is why they are stamped with Version.
func (c *Catalog) Remove(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for db, es := range c.byDB {
		for i, e := range es {
			if strings.EqualFold(e.ID, id) {
				// Copy-on-write so slices handed out by ForDB before the
				// removal stay intact for their readers.
				next := make([]*Expression, 0, len(es)-1)
				next = append(next, es[:i]...)
				next = append(next, es[i+1:]...)
				if len(next) == 0 {
					delete(c.byDB, db)
				} else {
					c.byDB[db] = next
				}
				c.n--
				c.version.Add(1)
				return true
			}
		}
	}
	return false
}

// ForDB returns the expressions registered for a database. The returned
// slice must not be mutated; it stays valid across later Add/Remove
// calls (removal copies).
func (c *Catalog) ForDB(db string) []*Expression {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.byDB[strings.ToLower(db)]
}

// Len returns the total number of registered expressions.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.n
}

// Databases returns the databases that have policies, sorted.
func (c *Catalog) Databases() []string {
	c.mu.RLock()
	out := make([]string, 0, len(c.byDB))
	for db := range c.byDB {
		out = append(out, db)
	}
	c.mu.RUnlock()
	sort.Strings(out)
	return out
}

// IDs returns every registered expression ID, sorted.
func (c *Catalog) IDs() []string {
	c.mu.RLock()
	out := make([]string, 0, c.n)
	for _, es := range c.byDB {
		for _, e := range es {
			out = append(out, e.ID)
		}
	}
	c.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Fingerprint returns a digest of the catalog contents.
func (c *Catalog) Fingerprint() string {
	c.mu.RLock()
	var parts []string
	for db, es := range c.byDB {
		for _, e := range es {
			parts = append(parts, db+"|"+e.String())
		}
	}
	c.mu.RUnlock()
	sort.Strings(parts)
	return strings.Join(parts, ";")
}
