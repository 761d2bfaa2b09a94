// Package cgdqp is a compliant geo-distributed query processing engine:
// a Go implementation of "Compliant Geo-distributed Query Processing"
// (Beedkar, Quiané-Ruiz, Markl; SIGMOD 2021).
//
// The engine executes SQL over data spread across geo-distributed sites
// while guaranteeing that no query execution plan ships data to a
// location its dataflow policies forbid. Data officers declare policies
// with SQL-like policy expressions:
//
//	ship custkey, name from customer to Europe, Asia
//	ship acctbal as aggregates sum, avg from customer to * group by mktsegment
//
// and the compliance-based optimizer (a Volcano-style memo extended with
// execution/shipping traits, annotation rules AR1–AR4 and a two-phase
// site selector) produces plans that provably satisfy them (Theorem 1) —
// or rejects the query when no compliant plan exists.
//
// A minimal session:
//
//	sys := cgdqp.NewSystem()
//	sys.MustDefineTable("customer", "db-eu", "EU", 1000,
//	    cgdqp.Col("custkey", cgdqp.TInt), cgdqp.Col("name", cgdqp.TString))
//	sys.MustAddPolicy("ship custkey, name from customer to *")
//	sys.MustLoad("customer", rows)
//	res, err := sys.Query("SELECT name FROM customer WHERE custkey < 10")
package cgdqp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"cgdqp/internal/cluster"
	"cgdqp/internal/executor"
	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/obs"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/plan"
	"cgdqp/internal/policy"
	"cgdqp/internal/rescache"
	"cgdqp/internal/sched"
	"cgdqp/internal/schema"
	"cgdqp/internal/sqlparse"
	"cgdqp/internal/store"
)

// Value is a scalar value; Row is one tuple.
type (
	Value = expr.Value
	Row   = expr.Row
)

// Value constructors re-exported for data loading.
var (
	Int    = expr.NewInt
	Float  = expr.NewFloat
	String = expr.NewString
	Bool   = expr.NewBool
	Date   = expr.MustDate
	Null   = expr.NullValue
)

// Type is a column type.
type Type = expr.Type

// Column types.
const (
	TInt    = expr.TInt
	TFloat  = expr.TFloat
	TString = expr.TString
	TBool   = expr.TBool
	TDate   = expr.TDate
)

// Column describes a table column.
type Column = schema.Column

// Fragment places part of a horizontally fragmented table.
type Fragment = schema.Fragment

// Col builds a column definition.
func Col(name string, t Type) Column { return Column{Name: name, Type: t} }

// ErrNoCompliantPlan is returned when a query has no compliant plan
// under the registered policies.
var ErrNoCompliantPlan = optimizer.ErrNoCompliantPlan

// ErrColumnType is returned by Load when a row holds a non-NULL value
// of another type than its column's, or a NaN: the whole batch is
// refused, and the table and its data epoch stay as they were.
var ErrColumnType = store.ErrColumnType

// ErrIncomparable is returned by Explain, Legal, Query and AddPolicy
// when a predicate compares values of types that cannot be ordered
// against each other (an INT column with a VARCHAR literal, say).
var ErrIncomparable = expr.ErrIncomparable

// Fault-injection types re-exported for chaos configuration: a
// FaultPlan (Options.Faults) makes the simulated WAN misbehave
// deterministically under a seed, and the shipping layer retries under
// DefaultRetryPolicy. See package network for the full semantics.
type (
	FaultPlan   = network.FaultPlan
	EdgeFaults  = network.EdgeFaults
	RetryPolicy = network.RetryPolicy
	ShipError   = network.ShipError
)

// NewFaultPlan returns an empty fault plan under the given seed.
var NewFaultPlan = network.NewFaultPlan

// DefaultRetryPolicy is the retry configuration used when faults are
// installed without an explicit policy.
var DefaultRetryPolicy = network.DefaultRetryPolicy

// Typed shipping failures: a failed execution under faults wraps one of
// these in a *ShipError (match with errors.Is / errors.As).
var (
	ErrPartitioned  = network.ErrPartitioned
	ErrBatchDropped = network.ErrBatchDropped
	ErrTransient    = network.ErrTransient
	ErrShipTimeout  = network.ErrShipTimeout
)

// Options tune the system.
type Options struct {
	// ResultLocation pins where query results must be delivered
	// ("" = wherever is cheapest among legal sites). A location the
	// schema does not have fails every query with a configuration error,
	// not ErrNoCompliantPlan.
	ResultLocation string
	// Parallel is ignored: every SHIP runs its producing fragment on
	// its own goroutine. The field stays so that callers which set it
	// still compile.
	Parallel bool
	// Faults installs a deterministic fault plan on the simulated WAN:
	// shipments may be dropped, delayed, rejected or partitioned per
	// the plan, and the shipping layer retries under DefaultRetryPolicy.
	// A query either succeeds with results (and shipping statistics)
	// identical to a fault-free run, or fails with a typed *ShipError.
	Faults *FaultPlan
	// PlanCacheSize bounds the optimizer's whole-plan LRU cache (entries).
	// 0 uses optimizer.DefaultPlanCacheSize; negative disables caching.
	// Cached plans are keyed on the versions of the schema and policy
	// catalogs and the cost model, so a change to any of them is never
	// answered from the cache.
	PlanCacheSize int
	// Metrics collects counters/gauges/histograms (plan-cache and
	// policy-cache stats, per-edge shipping volume, retry and fault
	// counts, optimize/execute latency) into System.Metrics().
	Metrics bool
	// Audit keeps an append-only compliance audit log of every
	// successful cross-site shipment — relations/columns, edge, and the
	// shipping-trait justification — in System.AuditLog(). The rendered
	// log is deterministic: replaying the same run (same data, plan and
	// chaos seed) produces byte-identical text.
	Audit bool
	// NoVectorKernels compiles every expression as one interpreter
	// node: filters, projections, aggregate arguments and sort keys run
	// the row interpreter over each column batch's row view instead of
	// the columnar kernels; the operators and their data form stay the
	// same. Results, shipped bytes and audit logs are identical either
	// way; only speed differs.
	NoVectorKernels bool
	// ResultCacheBytes enables the compliance-aware result-set cache,
	// bounded to this many bytes of estimated result payload (LRU).
	// Repeated queries whose consumed tables have not been reloaded and
	// whose result provenance the current policies still permit are
	// served from cached results — rows, RunStats and audit records
	// byte-identical to a fresh run; any load into a consumed table or
	// any policy change invalidates precisely the affected entries (see
	// package rescache). Servers from Serve share the cache and coalesce
	// concurrent identical executions onto one run. 0 disables caching.
	ResultCacheBytes int64
	// SlowQueryLog, when set, receives the account of every query whose
	// end-to-end latency is at or above SlowQueryThreshold, one JSON line
	// each (obs.QueryRecord): SQL and plan digests, outcome (failed and
	// refused queries included), latency and per-phase times, result-
	// and plan-cache dispositions, policy-evaluator calls and η, the
	// policy version, shipped bytes, retry count and the worst
	// per-operator q-errors. Setting it profiles every executed query,
	// to compare each operator's estimate with its actual rows; with a
	// threshold of 0 it is the per-query trace.
	SlowQueryLog io.Writer
	// SlowQueryThreshold is the slow-query latency floor (0 logs every
	// query).
	SlowQueryThreshold time.Duration
	// DataDir puts every site's pages on disk: page files and a redo WAL
	// live under DataDir/<site>, and reopening a system over an existing
	// directory recovers the data (see System.Loaded to skip
	// reloading). Empty — the default — keeps the pages in memory; the
	// engine above the pager is the same, so results, RunStats and audit
	// logs are byte-identical either way.
	DataDir string
	// BufferPoolBytes bounds the page cache all sites share (0 =
	// store.DefaultPoolBytes) and feeds the optimizer's index
	// access-path costing.
	BufferPoolBytes int64
	// Fsync gates fsyncs on WAL appends and checkpoints (durability vs
	// speed; meaningful only with DataDir).
	Fsync bool
}

// Observability handle types re-exported for embedders.
type (
	MetricsRegistry = obs.Registry
	AuditLog        = obs.AuditLog
	AuditRecord     = obs.AuditRecord
	PlanCacheStats  = optimizer.PlanCacheStats
)

// System is a compliant geo-distributed query processing session: a
// geo-distributed catalog, a policy catalog, a simulated cluster holding
// data, and the compliance-based optimizer.
//
// Policies, statistics and indexes may be changed at any time — through
// the system or directly on the exported catalogs — also while servers
// from Serve run: both catalogs version themselves and every cache reads
// those versions.
type System struct {
	Schema   *schema.Catalog
	Policies *policy.Catalog
	// Net is the WAN cost model; left nil, the first query installs the
	// five-region profile over the schema's locations.
	Net  *network.CostModel
	opts Options

	// lc is the query lifecycle and the system's one copy of its parts:
	// the optimizer (nil until built), the cluster (nil until opened),
	// the sinks enabled by
	// Options.Metrics/Audit (a nil Obs keeps execution hooks free),
	// the result cache with its view and the slow-query log (each nil
	// unless its option is set).
	lc sched.Lifecycle
	// policySeq issues unique policy IDs; it never decreases, so a
	// removed policy's ID is not reissued.
	policySeq int
}

// NewSystem creates an empty system with default options.
func NewSystem() *System { return NewSystemWith(Options{}) }

// NewSystemWith creates an empty system.
func NewSystemWith(opts Options) *System {
	s := &System{
		Schema:   schema.NewCatalog(),
		Policies: policy.NewCatalog(),
		opts:     opts,
	}
	lc := &s.lc
	lc.Exec = executor.ExecOptions{NoKernels: opts.NoVectorKernels}
	if opts.Metrics || opts.Audit {
		lc.Obs = &obs.Observer{}
		if opts.Metrics {
			lc.Obs.Metrics = obs.NewRegistry()
		}
		if opts.Audit {
			lc.Obs.Audit = obs.NewAuditLog()
		}
	}
	if opts.ResultCacheBytes > 0 {
		lc.Cache = rescache.New(opts.ResultCacheBytes)
		lc.Cache.SetMetrics(lc.Obs.Reg())
		// The validity oracles the result cache consults: cluster data
		// epochs, the policy catalog's version, and a provenance recheck
		// that re-validates a cached plan against Definition 1 under the
		// current policy catalog.
		lc.View = rescache.View{
			DataEpoch:   func(table string) uint64 { return s.Cluster().DataEpoch(table) },
			PolicyEpoch: s.PolicyEpoch,
			Recheck: func(located *plan.Node) bool {
				return len(s.Optimizer().Check(located)) == 0
			},
		}
	}
	if opts.SlowQueryLog != nil {
		lc.SlowLog = obs.NewSlowQueryLog(opts.SlowQueryLog, opts.SlowQueryThreshold)
	}
	return s
}

// Metrics returns the metrics registry (nil unless Options.Metrics).
func (s *System) Metrics() *MetricsRegistry { return s.lc.Obs.Reg() }

// AuditLog returns the compliance audit log (nil unless Options.Audit).
func (s *System) AuditLog() *AuditLog { return s.lc.Obs.AuditSink() }

// DefineTable registers a single-site table: db names the database at
// the location; rows is the expected cardinality used by the optimizer's
// cost model (statistics can be refined with SetColumnStats). Sites and
// storage tables are created with the cluster, so define every table
// before the first load or query.
func (s *System) DefineTable(name, db, location string, rows int64, cols ...Column) error {
	return s.defineTable(schema.NewTable(name, db, location, rows, cols...))
}

func (s *System) defineTable(t *schema.Table) error {
	if s.lc.Cluster != nil {
		return fmt.Errorf("cgdqp: table %s defined after the cluster was created; define tables before loading", t.Name)
	}
	return s.Schema.AddTable(t)
}

// MustDefineTable is DefineTable panicking on error.
func (s *System) MustDefineTable(name, db, location string, rows int64, cols ...Column) {
	if err := s.DefineTable(name, db, location, rows, cols...); err != nil {
		panic(err)
	}
}

// DefineFragmentedTable registers a horizontally fragmented table: one
// fragment per (db, location, rowcount) triple.
func (s *System) DefineFragmentedTable(name string, cols []Column, fragments []schema.Fragment) error {
	return s.defineTable(&schema.Table{Name: name, Columns: cols, Fragments: fragments})
}

// DefineIndex declares B+ tree secondary indexes over the named columns
// (int64-class or string key types). The site stores maintain declared
// indexes and the optimizer considers IndexScan and IndexLookupJoin
// access paths for them. Indexes are created with the
// storage tables, so declare them before the first load.
func (s *System) DefineIndex(table string, columns ...string) error {
	if s.lc.Cluster != nil {
		return fmt.Errorf("cgdqp: DefineIndex(%s) after the cluster was created; declare indexes before loading", table)
	}
	return s.Schema.AddIndex(table, columns...)
}

// MustDefineIndex is DefineIndex panicking on error.
func (s *System) MustDefineIndex(table string, columns ...string) {
	if err := s.DefineIndex(table, columns...); err != nil {
		panic(err)
	}
}

// SetColumnStats records optimizer statistics for a column.
func (s *System) SetColumnStats(table, column string, distinct int64, min, max Value) error {
	return s.Schema.SetColStats(table, column, schema.ColStats{Distinct: distinct, Min: min, Max: max})
}

// AddPolicy registers a policy expression. The owning database is taken
// from the expression's qualified table ("db-1.customer") or, for
// unqualified tables, from the schema catalog. A predicate comparing
// values of types that cannot be ordered against each other (a VARCHAR
// column with a number, say) is rejected, and the catalog is left as it
// was.
func (s *System) AddPolicy(expression string) error {
	stmt, err := sqlparse.ParsePolicy(expression)
	if err != nil {
		return err
	}
	db := stmt.DB
	if db == "" {
		t, ok := s.Schema.Table(stmt.Table)
		if !ok {
			return fmt.Errorf("cgdqp: policy references unknown table %q (qualify it as db.table or define the table first)", stmt.Table)
		}
		db = t.DB()
	}
	if n := s.Policies.Len(); s.policySeq < n {
		s.policySeq = n
	}
	e, err := policy.FromStmt(stmt, fmt.Sprintf("p%d", s.policySeq+1), db)
	if err != nil {
		return err
	}
	if err := expr.CheckComparisons(e.Where, s.colType); err != nil {
		return fmt.Errorf("cgdqp: policy %q: %w", expression, err)
	}
	s.policySeq++
	s.Policies.Add(e)
	return nil
}

// colType resolves a policy predicate's column — qualified by its base
// table — against the schema catalog; TNull when either is unknown.
func (s *System) colType(c *expr.Col) expr.Type {
	if t, ok := s.Schema.Table(c.Table); ok {
		if col, ok := t.Column(c.Name); ok {
			return col.Type
		}
	}
	return expr.TNull
}

// MustAddPolicy is AddPolicy panicking on error.
func (s *System) MustAddPolicy(expression string) {
	if err := s.AddPolicy(expression); err != nil {
		panic(err)
	}
}

// AddDenyPolicies registers negative expressions
// (`deny attrs from table to locations`) for one table and compiles them
// into positive grants under the closed-world assumption (Section 4's
// disclosure-model note): every attribute may ship everywhere except
// where a denial blocks it. All denials for a table must be supplied in
// one call, after every location is known (i.e. after all tables are
// defined).
func (s *System) AddDenyPolicies(table string, expressions ...string) error {
	t, ok := s.Schema.Table(table)
	if !ok {
		return fmt.Errorf("cgdqp: unknown table %q", table)
	}
	denials := make([]*policy.Denial, 0, len(expressions))
	for _, src := range expressions {
		d, err := policy.ParseDenial(src, t.DB())
		if err != nil {
			return err
		}
		if !strings.EqualFold(d.Table, t.Name) {
			return fmt.Errorf("cgdqp: denial over %q registered for table %q", d.Table, t.Name)
		}
		denials = append(denials, d)
	}
	grants, err := policy.CompileDenials(t.Name, t.DB(), t.ColumnNames(), denials, s.Schema.Locations(),
		fmt.Sprintf("deny-%s-", strings.ToLower(t.Name)))
	if err != nil {
		return err
	}
	s.Policies.AddAll(grants...)
	return nil
}

// RemovePolicy revokes a registered policy expression by ID (the "p1",
// "p2", … IDs AddPolicy assigns in order, or a deny-compiled grant's
// generated ID — see PolicyIDs), reporting whether one was removed.
// Revocation tightens compliance: plans and cached results derived
// while the grant was in force are invalidated, and a query whose only
// compliant plan depended on it fails with ErrNoCompliantPlan
// afterwards.
func (s *System) RemovePolicy(id string) bool { return s.Policies.Remove(id) }

// PolicyIDs returns the IDs of the registered policy expressions,
// sorted (use with RemovePolicy).
func (s *System) PolicyIDs() []string { return s.Policies.IDs() }

// PolicyEpoch returns the policy catalog's version: the number of
// changes made to it so far, through the system or directly. Every
// cache of policy-derived state reads it, so servers started by Serve
// observe a change immediately.
func (s *System) PolicyEpoch() uint64 { return s.Policies.Version() }

// PolicyList returns the registered policy expressions in surface
// syntax, grouped by database.
func (s *System) PolicyList() []string {
	var out []string
	for _, db := range s.Policies.Databases() {
		for _, e := range s.Policies.ForDB(db) {
			out = append(out, e.String())
		}
	}
	return out
}

// Load inserts rows into a table (fragment 0). Every non-NULL value
// must have its column's type — a DOUBLE is not an INT, nothing is
// coerced — and a DOUBLE is never NaN, or the whole batch is refused
// with ErrColumnType; a NULL is stored as a NULL of its column's type,
// a DOUBLE −0 as 0.
func (s *System) Load(table string, rows []Row) error {
	return s.LoadFragment(table, 0, rows)
}

// MustLoad is Load panicking on error.
func (s *System) MustLoad(table string, rows []Row) {
	if err := s.Load(table, rows); err != nil {
		panic(err)
	}
}

// LoadFragment inserts rows into one fragment of a table.
func (s *System) LoadFragment(table string, fragIdx int, rows []Row) error {
	t, ok := s.Schema.Table(table)
	if !ok {
		return fmt.Errorf("cgdqp: unknown table %q", table)
	}
	return s.Cluster().LoadFragment(t, fragIdx, rows)
}

// Analyze recomputes optimizer statistics (distinct counts, min/max,
// fragment row counts) for every table from the loaded data — the
// engine's ANALYZE. Run it after loading so cardinality estimates match
// reality.
func (s *System) Analyze() error {
	return s.Cluster().AnalyzeAll(s.Schema)
}

// Open creates the cluster eagerly (after all tables are defined),
// surfacing persistent-store open errors that Cluster would panic on.
// Optional: every entry point opens the cluster lazily on first use.
func (s *System) Open() error {
	if s.lc.Cluster != nil {
		return nil
	}
	cl, err := s.newCluster()
	if err != nil {
		return err
	}
	s.lc.Cluster = cl
	return nil
}

// Close closes the site storage engines: with a DataDir it checkpoints
// (flushes pages, truncates the WAL); in memory it releases the pages.
// The system must not be used afterwards.
func (s *System) Close() error {
	if s.lc.Cluster == nil {
		return nil
	}
	return s.lc.Cluster.Close()
}

// Loaded reports whether every fragment of a table already holds rows —
// true when a persistent system reopened its data directory, letting
// loaders skip re-ingesting.
func (s *System) Loaded(table string) bool {
	t, ok := s.Schema.Table(table)
	if !ok {
		return false
	}
	for i := range t.Fragments {
		if !s.Cluster().FragmentLoaded(t, i) {
			return false
		}
	}
	return len(t.Fragments) > 0
}

// newCluster creates the cluster and installs what the options ask of
// it: fault plan and observer.
func (s *System) newCluster() (*cluster.Cluster, error) {
	cl, err := cluster.NewWithStore(s.Schema, s.network(), &cluster.StoreConfig{
		DataDir:         s.opts.DataDir,
		BufferPoolBytes: s.opts.BufferPoolBytes,
		Fsync:           s.opts.Fsync,
	})
	if err != nil {
		return nil, err
	}
	if s.opts.Faults != nil {
		cl.SetFaults(s.opts.Faults)
	}
	cl.SetObserver(s.lc.Obs)
	return cl, nil
}

// Cluster returns the simulated geo-distributed cluster, creating it on
// first use (after all tables are defined). It panics when the
// persistent store cannot be opened — call Open first to handle that
// error gracefully.
func (s *System) Cluster() *cluster.Cluster {
	if err := s.Open(); err != nil {
		panic(fmt.Sprintf("cgdqp: open persistent store: %v", err))
	}
	return s.lc.Cluster
}

func (s *System) network() *network.CostModel {
	if s.Net == nil {
		s.Net = network.FiveRegionWAN(s.Schema.Locations())
	}
	return s.Net
}

// ResultCacheStats reports the result cache's effectiveness. Always
// safe to call: with the cache disabled it returns the zero value.
func (s *System) ResultCacheStats() rescache.Stats {
	if s.lc.Cache == nil {
		return rescache.Stats{}
	}
	return s.lc.Cache.Stats()
}

// ResultCache exposes the result cache (nil unless
// Options.ResultCacheBytes), e.g. to share it with a hand-built
// sched.Server or purge it.
func (s *System) ResultCache() *rescache.Cache { return s.lc.Cache }

// Optimizer returns the compliance-based optimizer over the catalogs,
// built on first use and again only when Schema or Policies has been
// pointed at a different catalog (a Server started earlier keeps the old
// one). Changes inside a catalog need no rebuild: the optimizer's caches
// read the catalogs' versions.
func (s *System) Optimizer() *optimizer.Optimizer {
	if o := s.lc.Opt; o == nil || o.Schema != s.Schema || o.Policies != s.Policies {
		pcs := s.opts.PlanCacheSize
		switch {
		case pcs == 0:
			pcs = optimizer.DefaultPlanCacheSize
		case pcs < 0:
			pcs = 0
		}
		s.lc.Opt = optimizer.New(s.Schema, s.Policies, s.network(), optimizer.Options{
			Compliant:      true,
			ResultLocation: s.opts.ResultLocation,
			PlanCacheSize:  pcs,
			PoolBytes:      s.opts.BufferPoolBytes,
		})
		s.lc.Opt.SetObserver(s.lc.Obs)
	}
	return s.lc.Opt
}

// PlanCacheStats reports the optimizer's plan-cache effectiveness. It
// is always safe to call: with the cache disabled (Options.PlanCacheSize
// < 0) it returns the zero value rather than failing.
func (s *System) PlanCacheStats() optimizer.PlanCacheStats {
	return s.Optimizer().PlanCacheStats()
}

// Plan is a located, compliant query execution plan.
type Plan struct {
	Root *plan.Node
	// Columns are the output column names.
	Columns []string
	// EstShipCost is the optimizer's estimated communication cost.
	EstShipCost float64
	// Stats describes the optimization that produced the plan: phase
	// times, memo size, η, policy-evaluator calls, plan-cache hit.
	Stats optimizer.Stats
}

// String pretty-prints the plan with locations and traits, plus one
// line when the search that found it was cut short by MaxExprs.
func (p *Plan) String() string { return p.Root.Format(true) + p.Stats.SearchNote() }

// Dot renders the plan as a Graphviz digraph clustered by site.
func (p *Plan) Dot() string { return p.Root.Dot() }

// JSON renders the plan as indented JSON for external tooling.
func (p *Plan) JSON() (string, error) { return p.Root.JSON() }

// Explain parses, binds and optimizes a query, returning the compliant
// plan without executing it. It returns ErrNoCompliantPlan when the
// query is illegal under the policies.
func (s *System) Explain(sql string) (*Plan, error) {
	// Planning needs only the optimizer; the cluster stays unopened.
	lc := sched.Lifecycle{Opt: s.Optimizer()}
	res, cols, err := lc.Plan(sql)
	if err != nil {
		return nil, err
	}
	return newPlan(res, cols), nil
}

// newPlan describes an optimization as a Plan.
func newPlan(res *optimizer.Result, cols []string) *Plan {
	return &Plan{Root: res.Plan, Columns: cols, EstShipCost: res.ShipCost, Stats: res.Stats}
}

// Result is the outcome of an executed query.
type Result struct {
	Plan    *Plan
	Rows    []Row
	Columns []string
	// ShippedBytes / ShipCost account the cross-border transfers the
	// execution performed (simulated WAN time in milliseconds).
	ShippedBytes int64
	ShipCost     float64
	// Retries counts send attempts the shipping layer had to repeat
	// under an installed fault plan (0 in fault-free runs).
	Retries int64
	// Cached marks a result served from the result cache without
	// executing: rows are a private copy, and the shipping statistics
	// and replayed audit records are those of the execution that filled
	// the entry (byte-identical to a fresh run).
	Cached bool
}

// Query optimizes and executes a SQL query over the loaded data,
// guaranteeing the executed plan is compliant.
func (s *System) Query(sql string) (*Result, error) {
	return s.query(context.Background(), sql, nil)
}

// QueryContext is Query under a caller context: cancelling ctx tears
// down the execution (fragment pipelines, in-flight shipment retries)
// and returns the context's error.
func (s *System) QueryContext(ctx context.Context, sql string) (*Result, error) {
	return s.query(ctx, sql, nil)
}

// ExplainAnalyze executes the query like Query and additionally returns
// the plan annotated with per-operator actual rows, batches and wall
// time (inclusive of children, in the style of EXPLAIN ANALYZE). It
// bypasses the result cache: its point is per-operator actuals from a
// real execution.
func (s *System) ExplainAnalyze(sql string) (*Result, string, error) {
	prof := obs.NewPlanProfile()
	res, err := s.query(context.Background(), sql, prof)
	if err != nil {
		return nil, "", err
	}
	return res, prof.Format(res.Plan.Root) + res.Plan.Stats.SearchNote(), nil
}

// lifecycle returns the system's query lifecycle, ready to run: on a
// built optimizer and an open cluster.
func (s *System) lifecycle() sched.Lifecycle {
	s.Optimizer()
	s.Cluster()
	return s.lc
}

// query runs the lifecycle's steps back to back; a non-nil prof
// (EXPLAIN ANALYZE) skips the result-cache probe.
func (s *System) query(ctx context.Context, sql string, prof *obs.PlanProfile) (*Result, error) {
	lc := s.lifecycle()
	q := &sched.Query{SQL: sql, Start: time.Now()}
	r, hit, err := runSteps(ctx, &lc, q, prof)
	how := obs.OutcomeOK
	if hit {
		how = obs.OutcomeCacheHit
	}
	lc.Note(q, r, how, err)
	if err != nil {
		return nil, err
	}
	return &Result{
		Plan:         newPlan(q.Res, q.Columns),
		Rows:         r.Rows,
		Columns:      q.Columns,
		ShippedBytes: r.Stats.ShippedBytes,
		ShipCost:     r.Stats.ShipCost,
		Retries:      r.Stats.Retries,
		Cached:       hit,
	}, nil
}

// runSteps plans, probes and executes q back to back, reporting
// whether the result came from the cache.
func runSteps(ctx context.Context, lc *sched.Lifecycle, q *sched.Query, prof *obs.PlanProfile) (*rescache.Result, bool, error) {
	res, cols, err := lc.Plan(q.SQL)
	if err != nil {
		return nil, false, err
	}
	q.SetPlan(res, cols, false)
	if prof == nil {
		if r, hit, err := lc.Probe(q); err != nil || hit {
			return r, hit, err
		}
	}
	r, err := lc.Execute(ctx, q, prof)
	return r, false, err
}

// --- concurrent query serving -------------------------------------------

// Query-serving types re-exported from the scheduler subsystem: a
// Server is the concurrent front end (admission control, a worker pool,
// shared-work batching of identical in-flight optimizations and
// executions) over one System.
type (
	Server        = sched.Server
	ServeOptions  = sched.Options
	ServeResponse = sched.Response
	ServeCounters = sched.Counters
	Ticket        = sched.Ticket
)

// Typed admission rejections from Server.Submit (match with errors.Is).
var (
	ErrQueueFull    = sched.ErrQueueFull
	ErrServerClosed = sched.ErrServerClosed
)

// DefaultPlanCacheSize is the plan cache size behind the zero Options
// value, for front ends that display it.
const DefaultPlanCacheSize = optimizer.DefaultPlanCacheSize

// Serve starts a concurrent query-serving front end over the system:
// queries submitted through the returned Server are admission-controlled
// (bounded FIFO queue, typed rejections under overload), taken by a pool
// of MaxConcurrent workers, and run through the same lifecycle as Query
// — the system's optimizer, cluster, result cache, slow-query log and
// execution options; identical in-flight optimizations and executions are coalesced. The
// server shares the system's observability sinks (queue gauges,
// admission/rejection counters, latency histograms land in
// System.Metrics()). Close the server before discarding it:
//
//	srv := sys.Serve(cgdqp.ServeOptions{MaxConcurrent: 8})
//	defer srv.Close()
//	resp, err := srv.Do(ctx, "SELECT ...")
func (s *System) Serve(opts ServeOptions) *Server {
	return sched.NewServer(s.lifecycle(), opts)
}

// Legal reports whether a query has at least one compliant execution
// plan under the current policies (Figure 2's "legal?" gate).
func (s *System) Legal(sql string) (bool, error) {
	_, err := s.Explain(sql)
	if err == nil {
		return true, nil
	}
	if errors.Is(err, ErrNoCompliantPlan) {
		return false, nil
	}
	return false, err
}

// CheckCompliance validates any located plan against Definition 1,
// returning human-readable violations (empty = compliant).
func (s *System) CheckCompliance(p *Plan) []string {
	vs := s.Optimizer().Check(p.Root)
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

// EvaluatePolicies runs the policy evaluator 𝒜 on a query over a single
// database: it returns the locations the query's output may legally be
// shipped to. The query must reference tables of one database only.
func (s *System) EvaluatePolicies(sql string) ([]string, error) {
	logical, err := sqlparse.ParseAndBind(sql, s.Schema)
	if err != nil {
		return nil, err
	}
	q, ok := policy.Describe(optimizer.Normalize(logical))
	if !ok {
		return nil, fmt.Errorf("cgdqp: query is not a local query over a single database")
	}
	ev := policy.NewEvaluator(s.Policies, s.Schema.Locations())
	return ev.Evaluate(q).Slice(), nil
}
