// Package rescache is the compliance-aware result-set cache sitting
// between the query-serving tier and the executors: whole executed
// result sets (rows, run statistics, audit records) are cached under the
// digest of the located plan that produced them and replayed to
// repeated or concurrent identical queries without re-executing.
//
// Reuse is only sound when three things still hold, and each has its own
// guard:
//
//   - The data is unchanged. Every entry snapshots, before execution
//     starts, the per-table data epoch of every base table the plan
//     consumes (cluster loads bump a table's epoch); a later Get that
//     observes any different epoch invalidates the entry.
//   - The policies still permit the result's provenance. Every entry
//     records the policy epoch it was filled under and keeps a private
//     clone of the located plan — root site plus every cross-site SHIP
//     edge with the relations it moves. When the policy epoch has moved,
//     the entry is only served if the caller's Recheck proves the stored
//     plan still compliant under the *current* catalog (Definition 1);
//     otherwise the entry is dropped and the query re-runs.
//   - The execution options that shape observable statistics are the
//     same. An options fingerprint is part of the key; no option shapes
//     them today, so every caller passes "".
//
// A cache hit is byte-identical to a fresh run: rows are deep-copied on
// every read (callers may mutate their copy freely), and the replayed
// RunStats and audit records are exactly those of the filling execution,
// which deterministic execution makes equal to what a fresh run of the
// same plan would report.
package rescache

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strings"
	"sync"

	"cgdqp/internal/executor"
	"cgdqp/internal/expr"
	"cgdqp/internal/lru"
	"cgdqp/internal/obs"
	"cgdqp/internal/plan"
)

// View supplies the validity oracles a cache consults on every Get and
// snapshot on every Prepare. The funcs must be safe for concurrent use.
type View struct {
	// DataEpoch returns the current data epoch of a base table
	// (case-insensitive). Loading rows into a table must change it.
	DataEpoch func(table string) uint64
	// PolicyEpoch returns the current policy-catalog epoch; any policy
	// change (grant added or removed) must change it.
	PolicyEpoch func() uint64
	// Recheck reports whether a located plan is still compliant under
	// the current policy catalog. It gates serving entries filled under
	// an older policy epoch; nil refuses all such entries.
	Recheck func(located *plan.Node) bool
}

func (v View) dataEpoch(table string) uint64 {
	if v.DataEpoch == nil {
		return 0
	}
	return v.DataEpoch(table)
}

func (v View) policyEpoch() uint64 {
	if v.PolicyEpoch == nil {
		return 0
	}
	return v.PolicyEpoch()
}

// Fill is the pre-execution snapshot of one cacheable run: the cache
// key, the consumed tables with their data epochs as of *before* the
// execution started (so a load racing the execution invalidates the
// entry rather than being missed), the policy epoch, and a private
// clone of the located plan kept for provenance rechecks.
type Fill struct {
	// Key identifies the (plan, options) pair; see Prepare.
	Key string

	tables      []string
	epochs      map[string]uint64
	policyEpoch uint64
	located     *plan.Node
	rootSite    string
}

// Prepare snapshots everything a subsequent Put needs, and must be
// called before the execution it describes starts. The key digests the
// located physical plan — operators, predicates, fragment bindings and
// every SHIP edge — plus the root execution site and the caller's
// options fingerprint. Keying on the *physical* plan (not the SQL text)
// means a statistics or price change that alters plan choice
// simply keys new entries, so replayed statistics always describe the
// plan actually being executed.
func Prepare(located *plan.Node, opts string, view View) *Fill {
	f := &Fill{
		located:     located.Clone(),
		rootSite:    located.Loc,
		policyEpoch: view.policyEpoch(),
	}
	seen := map[string]bool{}
	for _, sc := range located.Tables() {
		if sc.Table == nil {
			continue
		}
		name := strings.ToLower(sc.Table.Name)
		if !seen[name] {
			seen[name] = true
			f.tables = append(f.tables, name)
		}
	}
	sort.Strings(f.tables)
	f.epochs = make(map[string]uint64, len(f.tables))
	for _, tb := range f.tables {
		f.epochs[tb] = view.dataEpoch(tb)
	}
	sum := sha256.Sum256([]byte(located.Digest() + "@" + located.Loc + "|" + opts))
	f.Key = hex.EncodeToString(sum[:])
	return f
}

// Result is what a cache hit delivers: private row copies plus the
// filling run's statistics and audit records.
type Result struct {
	Rows    []expr.Row
	Columns []string
	Stats   executor.RunStats
	// Audit are the compliance audit records of the execution that
	// produced the cached result — the data movement provenance a
	// cache-served query replays into its own audit log.
	Audit []obs.AuditRecord
	// ShipCost is the optimizer's estimate recorded at fill time.
	ShipCost float64
}

// NewResult builds a Result from private deep copies of the given data,
// so the caller keeps ownership of what it passes. The scheduler uses it
// to publish an immutable master copy of a leader execution to the
// followers coalesced onto it.
func NewResult(rows []expr.Row, cols []string, stats executor.RunStats, audit []obs.AuditRecord, shipCost float64) *Result {
	r := &Result{
		Rows:     make([]expr.Row, len(rows)),
		Columns:  append([]string(nil), cols...),
		Stats:    stats,
		Audit:    append([]obs.AuditRecord(nil), audit...),
		ShipCost: shipCost,
	}
	for i, row := range rows {
		r.Rows[i] = append(expr.Row(nil), row...)
	}
	return r
}

// Copy returns a private deep copy of the result.
func (r *Result) Copy() *Result {
	return NewResult(r.Rows, r.Columns, r.Stats, r.Audit, r.ShipCost)
}

// entry is one cached result set. rows/audit are private master copies;
// every reader copies out.
type entry struct {
	rows        []expr.Row
	cols        []string
	stats       executor.RunStats
	audit       []obs.AuditRecord
	shipCost    float64
	tables      []string
	epochs      map[string]uint64
	policyEpoch uint64
	located     *plan.Node
}

// Stats is a snapshot of cache effectiveness counters.
type Stats struct {
	Hits, Misses, Fills, Evictions int64
	// InvalidatedData counts entries dropped because a consumed table's
	// data epoch moved; InvalidatedPolicy counts entries dropped because
	// the policy catalog no longer permits their provenance.
	InvalidatedData, InvalidatedPolicy int64
	// Rechecked counts provenance revalidations that passed (the entry
	// survived a policy-epoch change).
	Rechecked int64
	Entries   int
	Bytes     int64
}

// Cache is a byte-bounded LRU of executed result sets. It is safe for
// concurrent use: one mutex makes every Get's validate-then-drop atomic.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	entries  *lru.Cache[string, *entry] // cost = estimated bytes

	stats Stats
	reg   *obs.Registry
}

// New creates a cache bounded to maxBytes of estimated result payload
// (minimum one entry is always admitted if it fits the budget; an entry
// larger than the whole budget is not stored).
func New(maxBytes int64) *Cache {
	return &Cache{maxBytes: maxBytes, entries: lru.New[string, *entry](maxBytes)}
}

// SetMetrics installs a metrics registry the cache reports
// cgdqp_rescache_* counters and gauges into (nil disables).
func (c *Cache) SetMetrics(reg *obs.Registry) { c.reg = reg }

// Stats returns a snapshot of the effectiveness counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.entries.Len()
	s.Bytes = c.entries.Cost()
	return s
}

// Purge drops every entry (counters are kept).
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = lru.New[string, *entry](c.maxBytes)
	c.gaugeLocked()
}

// Get returns a deep copy of the entry under key when it is still valid
// in the given view: every consumed table's data epoch is unchanged,
// and the policy epoch either matches or the stored plan rechecks as
// compliant under the current catalog. Invalid entries are dropped.
func (c *Cache) Get(key string, view View) (*Result, bool) {
	c.mu.Lock()
	e, ok := c.entries.Get(key)
	if !ok {
		c.stats.Misses++
		c.count("cgdqp_rescache_misses_total")
		c.mu.Unlock()
		return nil, false
	}
	for _, tb := range e.tables {
		if view.dataEpoch(tb) != e.epochs[tb] {
			c.entries.Remove(key)
			c.stats.InvalidatedData++
			c.stats.Misses++
			c.countReason("cgdqp_rescache_invalidations_total", "data_epoch")
			c.count("cgdqp_rescache_misses_total")
			c.gaugeLocked()
			c.mu.Unlock()
			return nil, false
		}
	}
	if pe := view.policyEpoch(); pe != e.policyEpoch {
		if view.Recheck == nil || !view.Recheck(e.located) {
			c.entries.Remove(key)
			c.stats.InvalidatedPolicy++
			c.stats.Misses++
			c.countReason("cgdqp_rescache_invalidations_total", "policy")
			c.count("cgdqp_rescache_misses_total")
			c.gaugeLocked()
			c.mu.Unlock()
			return nil, false
		}
		// Provenance proved still compliant: adopt the current epoch so
		// the next hit under an unchanged catalog skips the recheck.
		e.policyEpoch = pe
		c.stats.Rechecked++
		c.count("cgdqp_rescache_rechecks_total")
	}
	c.stats.Hits++
	c.count("cgdqp_rescache_hits_total")
	out := materialize(e)
	c.mu.Unlock()
	return out, true
}

// materialize copies an entry out (caller holds mu; the copies escape
// the lock safely because master data is never handed out).
func materialize(e *entry) *Result {
	rows := make([]expr.Row, len(e.rows))
	for i, r := range e.rows {
		rows[i] = append(expr.Row(nil), r...)
	}
	return &Result{
		Rows:     rows,
		Columns:  append([]string(nil), e.cols...),
		Stats:    e.stats,
		Audit:    append([]obs.AuditRecord(nil), e.audit...),
		ShipCost: e.shipCost,
	}
}

// Put stores a successful execution under its pre-execution Fill
// snapshot. Rows and audit records are copied in, so the caller keeps
// ownership of what it passes (and may hand its slices to its own
// caller). Results larger than the whole budget are not stored.
func (c *Cache) Put(f *Fill, rows []expr.Row, cols []string, stats executor.RunStats, audit []obs.AuditRecord, shipCost float64) {
	e := &entry{
		rows:        make([]expr.Row, len(rows)),
		cols:        append([]string(nil), cols...),
		stats:       stats,
		audit:       append([]obs.AuditRecord(nil), audit...),
		shipCost:    shipCost,
		tables:      f.tables,
		epochs:      f.epochs,
		policyEpoch: f.policyEpoch,
		located:     f.located,
	}
	for i, r := range rows {
		e.rows[i] = append(expr.Row(nil), r...)
	}
	size := entrySize(e)
	if size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	evicted := c.entries.Put(f.Key, e, size)
	c.stats.Fills++
	c.count("cgdqp_rescache_fills_total")
	c.stats.Evictions += int64(evicted)
	for ; evicted > 0; evicted-- {
		c.count("cgdqp_rescache_evictions_total")
	}
	c.gaugeLocked()
}

// entrySize estimates the retained payload of an entry: values by wire
// width plus slice/struct overheads, audit records flat-rated, and a
// base cost so empty results still account for their bookkeeping.
func entrySize(e *entry) int64 {
	size := int64(512)
	for _, r := range e.rows {
		size += 24
		for _, v := range r {
			size += 16 + int64(v.Width())
		}
	}
	size += int64(len(e.audit)) * 128
	for _, col := range e.cols {
		size += int64(len(col)) + 16
	}
	return size
}

func (c *Cache) count(name string) {
	if c.reg != nil {
		c.reg.Counter(name).Inc()
	}
}

func (c *Cache) countReason(name, reason string) {
	if c.reg != nil {
		c.reg.Counter(name, "reason", reason).Inc()
	}
}

// gaugeLocked refreshes the size gauges (caller holds mu).
func (c *Cache) gaugeLocked() {
	if c.reg != nil {
		c.reg.Gauge("cgdqp_rescache_bytes").Set(float64(c.entries.Cost()))
		c.reg.Gauge("cgdqp_rescache_entries").Set(float64(c.entries.Len()))
	}
}
