// Package cluster simulates the geo-distributed deployment of Figure 2:
// one database gateway per location, a WAN between them priced by the
// message cost model, and a transfer ledger recording every cross-border
// shipment a query performs.
package cluster

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/obs"
	"cgdqp/internal/schema"
	"cgdqp/internal/storage"
	"cgdqp/internal/store"
)

// Site is one location: a gateway to its local database.
type Site struct {
	Location string
	DB       *storage.DB
}

// Cluster is the set of sites plus the network between them. After
// construction and loading, a cluster is safe for concurrent reads: the
// site map is immutable, storage tables guard their rows with RWMutexes,
// and the ledger serializes transfer accounting — which is what lets the
// parallel executor run per-site plan fragments on separate goroutines.
type Cluster struct {
	sites  map[string]*Site
	Net    *network.CostModel
	Ledger *network.Ledger

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
	// retries counts failed send attempts across all executions.
	retries atomic.Int64

	// obs receives shipping spans and per-edge metrics (see ship.go).
	// nil disables observation; set before execution like the fields
	// above (exchange producers read it without locks).
	obs *obs.Observer

	// cal receives wire-encoding and shipment samples from the
	// executors (see network.Calibrator). nil disables calibration;
	// set before execution like the fields above.
	cal *network.Calibrator

	// epochs tracks a per-table data epoch, bumped by every successful
	// load into any fragment of the table. Result-set caching keys its
	// validity on these: a cached result is reusable only while every
	// table it consumed still has the epoch observed before execution.
	epochMu sync.RWMutex
	epochs  map[string]uint64

	// Persistent-store state (nil/empty for the in-memory default): one
	// engine per site sharing a single buffer pool, so the configured
	// byte budget is cluster-global.
	pool    *store.Pool
	engines []*store.Engine
}

// StoreConfig configures the persistent per-site storage engines. The
// zero value (no DataDir) keeps the in-memory backend.
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

// SetCalibrator installs the cost-model calibrator shipping and the
// executors' wire encoders feed samples into (nil disables). Configure
// before execution starts.
func (c *Cluster) SetCalibrator(cal *network.Calibrator) { c.cal = cal }

// Calibrator returns the installed calibrator (nil = none).
func (c *Cluster) Calibrator() *network.Calibrator { return c.cal }

// SetObserver installs the observability sinks shipping reports into
// (nil disables). Configure before execution starts.
func (c *Cluster) SetObserver(o *obs.Observer) { c.obs = o }

// Observer returns the installed observer (nil = none).
func (c *Cluster) Observer() *obs.Observer { return c.obs }

// SetWireDelay makes SHIP transfers take wall-clock time: every shipment
// sleeps its modeled cost (ms) multiplied by scale. scale 0 disables the
// delay. Set it before execution starts; the geo-distributed benchmarks
// use it so that overlapping transfers (what a parallel executor buys)
// shows up in measured time, not just in the ledger.
func (c *Cluster) SetWireDelay(scale float64) { c.wireDelay = scale }

// WireDelay returns the current wire-delay scale.
func (c *Cluster) WireDelay() float64 { return c.wireDelay }

// SleepWire blocks for costMS (simulated ms) scaled by the wire delay.
func (c *Cluster) SleepWire(costMS float64) {
	if c.wireDelay <= 0 || costMS <= 0 {
		return
	}
	time.Sleep(time.Duration(costMS * c.wireDelay * float64(time.Millisecond)))
}

// New creates a cluster over the catalog's locations: each location gets
// a site hosting its database (named per the catalog's location→database
// mapping), with every table fragment placed at its location.
func New(cat *schema.Catalog, net *network.CostModel) *Cluster {
	c, err := NewWithStore(cat, net, nil)
	if err != nil {
		// Unreachable: only the persistent backend can fail to open.
		panic(err)
	}
	return c
}

// NewWithStore is New with an optional persistent storage backend: with
// a StoreConfig, every site database runs on a paged engine under
// DataDir/<location>, all sites sharing one buffer pool. Tables are
// created with their catalog-declared column types and indexes on both
// backends, so plans and results do not depend on the backend choice.
func NewWithStore(cat *schema.Catalog, net *network.CostModel, cfg *StoreConfig) (*Cluster, error) {
	c := &Cluster{sites: map[string]*Site{}, Net: net, Ledger: network.NewLedger(net), epochs: map[string]uint64{}}
	if cfg != nil && cfg.DataDir != "" {
		c.pool = store.NewPool(cfg.BufferPoolBytes)
	}
	for _, loc := range cat.Locations() {
		dbName := cat.DatabaseAt(loc)
		if dbName == "" {
			dbName = "db@" + loc
		}
		var db *storage.DB
		if c.pool != nil {
			eng, err := store.Open(store.Options{
				Dir:   filepath.Join(cfg.DataDir, siteDirName(loc)),
				Pool:  c.pool,
				Fsync: cfg.Fsync,
			})
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("cluster: open store at %s: %w", loc, err)
			}
			c.engines = append(c.engines, eng)
			db = storage.NewPersistentDB(dbName, eng)
		} else {
			db = storage.NewDB(dbName)
		}
		c.sites[loc] = &Site{Location: loc, DB: db}
	}
	for _, t := range cat.Tables() {
		types := make([]expr.Type, len(t.Columns))
		for i, col := range t.Columns {
			types[i] = col.Type
		}
		for i := range t.Fragments {
			site := c.sites[t.Fragments[i].Location]
			if site == nil {
				continue
			}
			if _, err := site.DB.CreateTableSpec(fragName(t, i), t.ColumnNames(), types, t.IndexList()); err != nil {
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

// Close flushes and closes the persistent engines (no-op in-memory).
func (c *Cluster) Close() error {
	var firstErr error
	for _, e := range c.engines {
		if err := e.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c.engines = nil
	return firstErr
}

// StoreStats snapshots the shared buffer-pool counters (zero when the
// cluster runs in memory).
func (c *Cluster) StoreStats() store.PoolStats {
	if c.pool == nil {
		return store.PoolStats{}
	}
	return c.pool.Stats()
}

// Persistent reports whether the cluster runs on the paged engine.
func (c *Cluster) Persistent() bool { return c.pool != nil }

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

// Site returns the site at a location.
func (c *Cluster) Site(loc string) (*Site, bool) {
	s, ok := c.sites[loc]
	return s, ok
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

// LoadFragment stores rows into a table fragment at its location.
func (c *Cluster) LoadFragment(t *schema.Table, fragIdx int, rows []expr.Row) error {
	if fragIdx < 0 {
		fragIdx = 0
	}
	if fragIdx >= len(t.Fragments) {
		return fmt.Errorf("cluster: table %s has no fragment %d", t.Name, fragIdx)
	}
	loc := t.Fragments[fragIdx].Location
	site, ok := c.sites[loc]
	if !ok {
		return fmt.Errorf("cluster: no site at %s", loc)
	}
	st, ok := site.DB.Table(fragName(t, fragIdx))
	if !ok {
		return fmt.Errorf("cluster: table %s missing at %s", t.Name, loc)
	}
	if err := st.Insert(rows...); err != nil {
		return err
	}
	c.epochMu.Lock()
	c.epochs[strings.ToLower(t.Name)]++
	c.epochMu.Unlock()
	return nil
}

// fragmentTable resolves the storage table behind one fragment.
func (c *Cluster) fragmentTable(t *schema.Table, fragIdx int) (*storage.Table, error) {
	if fragIdx < 0 {
		fragIdx = 0
	}
	if fragIdx >= len(t.Fragments) {
		return nil, fmt.Errorf("cluster: table %s has no fragment %d", t.Name, fragIdx)
	}
	loc := t.Fragments[fragIdx].Location
	site, ok := c.sites[loc]
	if !ok {
		return nil, fmt.Errorf("cluster: no site at %s", loc)
	}
	st, ok := site.DB.Table(fragName(t, fragIdx))
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
	return st.RowsChecked()
}

// FragmentBatches returns a page iterator over a persistent fragment
// (decoding pages straight into column vectors); ok is false on the
// in-memory backend, whose scans alias rows instead.
func (c *Cluster) FragmentBatches(t *schema.Table, fragIdx int) (*store.Iterator, bool, error) {
	st, err := c.fragmentTable(t, fragIdx)
	if err != nil {
		return nil, false, err
	}
	it, ok := st.Batches()
	return it, ok, nil
}

// IndexRangeRows reads the rows of a fragment whose indexed column lies
// in [lo, hi] via its B+ tree, in (key, insertion) order. ok is false
// when the column carries no usable index — callers fall back to a full
// scan plus filter.
func (c *Cluster) IndexRangeRows(t *schema.Table, fragIdx int, col string, lo, hi *expr.Value, loInc, hiInc bool) ([]expr.Row, bool, error) {
	st, err := c.fragmentTable(t, fragIdx)
	if err != nil {
		return nil, false, err
	}
	rows, ok := st.IndexRangeRows(col, lo, hi, loInc, hiInc)
	return rows, ok, nil
}

// IndexLookupRows reads the rows of a fragment whose indexed column
// equals key, in insertion order; ok as in IndexRangeRows.
func (c *Cluster) IndexLookupRows(t *schema.Table, fragIdx int, col string, key expr.Value) ([]expr.Row, bool, error) {
	st, err := c.fragmentTable(t, fragIdx)
	if err != nil {
		return nil, false, err
	}
	rows, ok := st.IndexLookupRows(col, key)
	return rows, ok, nil
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
