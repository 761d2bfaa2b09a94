// Package cluster simulates the geo-distributed deployment of Figure 2:
// one database gateway per location, a WAN between them priced by the
// message cost model, and a per-run transfer ledger (RunScope) recording
// every cross-border shipment a query performs.
package cluster

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/obs"
	"cgdqp/internal/schema"
	"cgdqp/internal/store"
)

// Cluster is the set of sites plus the network between them. Each
// location is a gateway to one storage engine; every engine draws on
// one shared buffer pool, so the configured byte budget is
// cluster-global. After construction and loading, a cluster is safe for
// concurrent reads: the site map is immutable, store tables guard their
// pages with RWMutexes, and each execution accounts its transfers in
// its own RunScope — which is what lets the parallel executor run
// per-site plan fragments on separate goroutines.
type Cluster struct {
	sites map[string]*store.Engine
	pool  *store.Pool
	Net   *network.CostModel

	// wireDelay scales simulated WAN cost (milliseconds, per the message
	// cost model) into real wall-clock sleeps during execution. The
	// default 0 keeps shipping instantaneous, as before; set it before
	// executing (it is read concurrently by exchange producers).
	wireDelay float64

	// faults/retry drive the resilient shipping path (see ship.go):
	// nil faults means every send succeeds first try, as before. Both
	// are set before execution and read concurrently by producers.
	faults *network.FaultPlan
	retry  network.RetryPolicy

	// obs receives per-edge shipping, retry and fault metrics (see ship.go).
	// nil disables observation; set before execution like the fields
	// above (exchange producers read it without locks).
	obs *obs.Observer

	// epochs tracks a per-table data epoch, bumped by every successful
	// load into any fragment of the table. Result-set caching keys its
	// validity on these: a cached result is reusable only while every
	// table it consumed still has the epoch observed before execution.
	epochMu sync.RWMutex
	epochs  map[string]uint64
}

// StoreConfig configures the per-site storage engines. The zero value
// (no DataDir) keeps every site's pages in memory.
type StoreConfig struct {
	// DataDir is the root directory; each site gets a subdirectory.
	DataDir string
	// BufferPoolBytes is the shared page-cache budget across all sites
	// (default store.DefaultPoolBytes).
	BufferPoolBytes int64
	// Fsync gates fsyncs on WAL appends and checkpoints.
	Fsync bool
}

// DataEpoch returns the current data epoch of a table
// (case-insensitive; 0 for a never-loaded table). Concurrency-safe.
func (c *Cluster) DataEpoch(table string) uint64 {
	c.epochMu.RLock()
	defer c.epochMu.RUnlock()
	return c.epochs[strings.ToLower(table)]
}

// SetObserver installs the observability sinks shipping reports into
// (nil disables). Configure before execution starts.
func (c *Cluster) SetObserver(o *obs.Observer) { c.obs = o }

// SetWireDelay makes SHIP transfers take wall-clock time: every shipment
// sleeps its modeled cost (ms) multiplied by scale. scale 0 disables the
// delay. Set it before execution starts; the geo-distributed benchmarks
// use it so that overlapping transfers (what a parallel executor buys)
// shows up in measured time, not just in the modeled cost.
func (c *Cluster) SetWireDelay(scale float64) { c.wireDelay = scale }

// WireDelay returns the current wire-delay scale.
func (c *Cluster) WireDelay() float64 { return c.wireDelay }

// SleepWire blocks for costMS (simulated ms) scaled by the wire delay,
// or until ctx is cancelled, whose error it then returns: a failed or
// cancelled run does not wait out its shipments' wire time.
func (c *Cluster) SleepWire(ctx context.Context, costMS float64) error {
	if c.wireDelay <= 0 || costMS <= 0 {
		return nil
	}
	return sleepCtx(ctx, time.Duration(costMS*c.wireDelay*float64(time.Millisecond)))
}

// New creates an in-memory cluster over the catalog's locations: each
// location gets a site engine, with every table fragment placed at its
// location.
func New(cat *schema.Catalog, net *network.CostModel) *Cluster {
	c, err := NewWithStore(cat, net, nil)
	if err != nil {
		// Unreachable: only a data directory can fail to open.
		panic(err)
	}
	return c
}

// NewWithStore is New with a store configuration: with a DataDir, every
// site engine keeps its pages under DataDir/<location>. All sites share
// one buffer pool of cfg.BufferPoolBytes (nil cfg: the default budget).
// Tables are created with their catalog-declared column types and
// indexes.
func NewWithStore(cat *schema.Catalog, net *network.CostModel, cfg *StoreConfig) (*Cluster, error) {
	if cfg == nil {
		cfg = &StoreConfig{}
	}
	c := &Cluster{sites: map[string]*store.Engine{}, pool: store.NewPool(cfg.BufferPoolBytes), Net: net, epochs: map[string]uint64{}}
	for _, loc := range cat.Locations() {
		opts := store.Options{Pool: c.pool, Fsync: cfg.Fsync}
		if cfg.DataDir != "" {
			opts.Dir = filepath.Join(cfg.DataDir, siteDirName(loc))
		}
		eng, err := store.Open(opts)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: open store at %s: %w", loc, err)
		}
		c.sites[loc] = eng
	}
	for _, t := range cat.Tables() {
		types := make([]expr.Type, len(t.Columns))
		for i, col := range t.Columns {
			types[i] = col.Type
		}
		for i := range t.Fragments {
			eng := c.sites[t.Fragments[i].Location]
			if eng == nil {
				continue
			}
			if _, err := eng.CreateTable(fragName(t, i), t.ColumnNames(), types, t.IndexList()); err != nil {
				c.Close()
				return nil, fmt.Errorf("cluster: create %s at %s: %w", t.Name, t.Fragments[i].Location, err)
			}
		}
	}
	return c, nil
}

// siteDirName maps a location name onto a directory name.
func siteDirName(loc string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			return r
		default:
			return '_'
		}
	}, loc)
}

// Close checkpoints and closes every site engine.
func (c *Cluster) Close() error {
	var firstErr error
	for loc, e := range c.sites {
		if err := e.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		delete(c.sites, loc)
	}
	return firstErr
}

// StoreStats snapshots the shared buffer-pool counters.
func (c *Cluster) StoreStats() store.PoolStats { return c.pool.Stats() }

// FragmentLoaded reports whether a fragment already holds rows — a
// persistent cluster reopening its data directory skips reloading.
func (c *Cluster) FragmentLoaded(t *schema.Table, fragIdx int) bool {
	tab, err := c.fragmentTable(t, fragIdx)
	if err != nil {
		return false
	}
	return tab.RowCount() > 0
}

// fragName returns the storage name of a fragment: the bare table name
// for single-fragment tables, a #idx-suffixed name otherwise (so two
// fragments of one table may share a site without mixing rows).
func fragName(t *schema.Table, idx int) string {
	if !t.Fragmented() {
		return t.Name
	}
	return fmt.Sprintf("%s#%d", t.Name, idx)
}

// Locations returns the cluster's locations (unsorted map order is
// avoided: callers use the catalog for deterministic order).
func (c *Cluster) Locations() []string {
	out := make([]string, 0, len(c.sites))
	for l := range c.sites {
		out = append(out, l)
	}
	return out
}

// LoadFragment stores rows into a table fragment at its location. A
// negative index names the sole fragment, as in a scan, so a fragmented
// table rejects it.
func (c *Cluster) LoadFragment(t *schema.Table, fragIdx int, rows []expr.Row) error {
	if fragIdx < 0 && t.Fragmented() {
		return fmt.Errorf("cluster: table %s is fragmented: name the fragment to load", t.Name)
	}
	st, err := c.fragmentTable(t, fragIdx)
	if err != nil {
		return err
	}
	if err := st.Append(rows); err != nil {
		return err
	}
	c.epochMu.Lock()
	c.epochs[strings.ToLower(t.Name)]++
	c.epochMu.Unlock()
	return nil
}

// fragmentTable resolves the store table behind one fragment.
func (c *Cluster) fragmentTable(t *schema.Table, fragIdx int) (*store.Table, error) {
	if fragIdx < 0 {
		fragIdx = 0
	}
	if fragIdx >= len(t.Fragments) {
		return nil, fmt.Errorf("cluster: table %s has no fragment %d", t.Name, fragIdx)
	}
	loc := t.Fragments[fragIdx].Location
	eng, ok := c.sites[loc]
	if !ok {
		return nil, fmt.Errorf("cluster: no site at %s", loc)
	}
	st, ok := eng.Table(fragName(t, fragIdx))
	if !ok {
		return nil, fmt.Errorf("cluster: table %s missing at %s", t.Name, loc)
	}
	return st, nil
}

// FragmentRows reads the stored rows of a table fragment.
func (c *Cluster) FragmentRows(t *schema.Table, fragIdx int) ([]expr.Row, error) {
	st, err := c.fragmentTable(t, fragIdx)
	if err != nil {
		return nil, err
	}
	return st.ScanRows()
}

// FragmentBatches returns a page iterator over a fragment (decoding
// pages straight into column vectors); ok is always true.
func (c *Cluster) FragmentBatches(t *schema.Table, fragIdx int) (*store.Iterator, bool, error) {
	st, err := c.fragmentTable(t, fragIdx)
	if err != nil {
		return nil, false, err
	}
	return st.NewIterator(), true, nil
}

// FragmentGather returns an index read over a fragment that fills the
// columns need selects (nil: all); see store.Gather.
func (c *Cluster) FragmentGather(t *schema.Table, fragIdx int, need []bool) (*store.Gather, error) {
	st, err := c.fragmentTable(t, fragIdx)
	if err != nil {
		return nil, err
	}
	return st.NewGather(need), nil
}

// IndexRangeRows reads the rows of a fragment whose indexed column lies
// in [lo, hi]: the whole result of a FragmentGather range, in row-ID
// order. ok is false when the column carries no usable index — callers
// fall back to a full scan plus filter; a page that cannot be read is
// an error.
func (c *Cluster) IndexRangeRows(t *schema.Table, fragIdx int, col string, lo, hi *expr.Value, loInc, hiInc bool) ([]expr.Row, bool, error) {
	g, err := c.FragmentGather(t, fragIdx, nil)
	if err != nil || !g.Range(col, lo, hi, loInc, hiInc) {
		return nil, false, err
	}
	rows, err := g.Rows()
	return rows, err == nil, err
}

// IndexLookupRows reads the rows of a fragment whose indexed column
// equals key, in row-ID order; ok as in IndexRangeRows.
func (c *Cluster) IndexLookupRows(t *schema.Table, fragIdx int, col string, key expr.Value) ([]expr.Row, bool, error) {
	g, err := c.FragmentGather(t, fragIdx, nil)
	if err != nil {
		return nil, false, err
	}
	if _, ok := g.Lookup(col, []expr.Value{key}); !ok {
		return nil, false, nil
	}
	rows, err := g.Rows()
	return rows, err == nil, err
}

// AllRows concatenates the rows of every fragment of a table (global
// view, used by reference execution).
func (c *Cluster) AllRows(t *schema.Table) ([]expr.Row, error) {
	var out []expr.Row
	for i := range t.Fragments {
		rows, err := c.FragmentRows(t, i)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
}
