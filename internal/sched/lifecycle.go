package sched

import (
	"context"
	"time"

	"cgdqp/internal/cluster"
	"cgdqp/internal/executor"
	"cgdqp/internal/expr"
	"cgdqp/internal/feedback"
	"cgdqp/internal/obs"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/plan"
	"cgdqp/internal/rescache"
)

// Lifecycle is the system's one query path — plan → probe → execute
// (which fills the result cache and records feedback) → note — and the
// only code that performs those steps. System.Query and ExplainAnalyze
// call the steps back to back; a Server calls the same steps and wraps
// what is the scheduler's own around them: admission and the worker pool
// in front, the optimization singleflight around Plan, the execution
// singleflight around Execute.
type Lifecycle struct {
	Opt     *optimizer.Optimizer
	Cluster *cluster.Cluster
	// Obs bundles the tracer, metrics and audit sinks (nil = unobserved).
	Obs *obs.Observer
	// Cache is the result-set cache and View its validity oracles. With a
	// nil Cache every Probe misses and Execute fills nothing.
	Cache *rescache.Cache
	View  rescache.View
	// Exec are the execution options; Parallel picks goroutine-mode
	// exchanges over inline ones.
	Exec     executor.ExecOptions
	Parallel bool
	// Feedback receives per-operator actuals and latency samples, SlowLog
	// one JSON line per slow query (both may be nil).
	Feedback *feedback.Store
	SlowLog  *feedback.SlowQueryLog
}

// Query is one statement on its way through the lifecycle.
type Query struct {
	SQL string
	// Start is where end-to-end latency is measured from (admission, for
	// a served query).
	Start time.Time
	// Root is the located plan this query executes. It is private to the
	// query: a follower of a shared optimization holds a clone.
	Root        *plan.Node
	Columns     []string
	EstShipCost float64
	// Coalesced marks an optimization shared with an identical in-flight
	// one.
	Coalesced bool

	fill  *rescache.Fill      // set by Probe: Execute fills the cache under it
	qerrs []feedback.OpQError // set by Execute when telemetry is on
}

// Plan parses, binds and optimizes a statement into a compliant located
// plan, and names its output columns.
func (lc *Lifecycle) Plan(sql string) (*optimizer.Result, []string, error) {
	res, err := lc.Opt.OptimizeSQL(sql)
	if err != nil {
		return nil, nil, err
	}
	cols := make([]string, len(res.Plan.Cols))
	for i, c := range res.Plan.Cols {
		cols[i] = c.Name
	}
	return res, cols, nil
}

// Probe snapshots the query's cache key and validity epochs — it must
// run before the execution it describes — and looks the result up. On a
// hit the stored audit records are replayed into the audit log, so a
// cache-served query leaves the same compliance trail as the execution
// that filled the entry. A query that is never probed (EXPLAIN ANALYZE)
// bypasses the cache altogether.
func (lc *Lifecycle) Probe(q *Query) (*rescache.Result, bool) {
	if lc.Cache == nil {
		return nil, false
	}
	// No execution option changes rows, RunStats or audit log (the
	// conformance suite pins this for exchange and kernel mode), so every
	// execution of a plan shares one entry: the options fingerprint is "".
	q.fill = rescache.Prepare(q.Root, "", lc.View)
	r, ok := lc.Cache.Get(q.fill.Key, lc.View)
	if ok {
		lc.replay(r.Audit)
	}
	return r, ok
}

// replay appends audit records captured elsewhere — by the execution
// that filled a cache entry, or by the leader of a coalesced execution —
// to the shared audit log.
func (lc *Lifecycle) replay(recs []obs.AuditRecord) {
	if sink := lc.Obs.AuditSink(); sink != nil {
		for _, rec := range recs {
			sink.Record(rec)
		}
	}
}

// Execute runs the query's plan and returns its rows, statistics and
// audit records. A probed query captures its audit records privately
// (replayed into the shared log on success) and fills the cache. A
// per-operator profile is installed when the caller brings one (EXPLAIN
// ANALYZE) or the feedback loop or slow-query log needs actuals — after
// the cache gate, so cache-served queries never pay for profiling.
func (lc *Lifecycle) Execute(ctx context.Context, q *Query, prof *obs.PlanProfile) (*rescache.Result, error) {
	runObs := lc.Obs
	var capture *obs.AuditLog
	if q.fill != nil && lc.Obs.AuditSink() != nil {
		capture = obs.NewAuditLog()
		runObs = runObs.WithAudit(capture)
	}
	telemetry := lc.Feedback != nil || lc.SlowLog != nil
	if prof == nil && telemetry {
		prof = obs.NewPlanProfile()
	}
	if prof != nil {
		runObs = runObs.WithProfile(prof)
	}
	var rows []expr.Row
	var stats *executor.RunStats
	var err error
	if lc.Parallel {
		rows, stats, err = executor.RunParallelOpts(ctx, q.Root, lc.Cluster, runObs, lc.Exec)
	} else {
		rows, stats, err = executor.RunObservedOpts(ctx, q.Root, lc.Cluster, runObs, lc.Exec)
	}
	if err != nil {
		return nil, err
	}
	r := &rescache.Result{Rows: rows, Columns: q.Columns, Stats: *stats, ShipCost: q.EstShipCost}
	if capture != nil {
		r.Audit = capture.Records()
		lc.replay(r.Audit)
	}
	if q.fill != nil {
		lc.Cache.Put(q.fill, rows, q.Columns, *stats, r.Audit, q.EstShipCost)
	}
	if telemetry {
		q.qerrs = feedback.RecordExecution(lc.Feedback, q.Root, prof)
	}
	return r, nil
}

// Note closes a query's account: the query counter and store-pool
// gauges, and — for a successful query — its end-to-end latency into the
// feedback store and its slow-query record. hit marks a result that was
// served (from the cache or a coalesced execution) rather than executed.
func (lc *Lifecycle) Note(q *Query, r *rescache.Result, hit bool, err error) {
	if m := lc.Obs.Reg(); m != nil {
		status := "ok"
		if err != nil {
			status = "error"
		}
		m.Counter("cgdqp_queries_total", "status", status).Inc()
		if lc.Cluster.Persistent() {
			st := lc.Cluster.StoreStats()
			m.Gauge("cgdqp_store_pool_hits").Set(float64(st.Hits))
			m.Gauge("cgdqp_store_pool_misses").Set(float64(st.Misses))
			m.Gauge("cgdqp_store_pool_evictions").Set(float64(st.Evictions))
			m.Gauge("cgdqp_store_pool_writebacks").Set(float64(st.Writebacks))
			m.Gauge("cgdqp_store_pool_resident").Set(float64(st.Resident))
		}
	}
	if err != nil {
		return
	}
	lat := time.Since(q.Start)
	lc.Feedback.ObserveQuery(lat.Seconds())
	if lc.SlowLog == nil {
		return
	}
	disp := feedback.CacheOff
	switch {
	case hit:
		disp = feedback.CacheHit
	case q.fill != nil:
		disp = feedback.CacheMiss
	}
	engine := "seq"
	if lc.Parallel {
		engine = "par"
	}
	lc.SlowLog.Maybe(lat, feedback.QueryRecord{
		SQLDigest:  feedback.SQLDigest(q.SQL),
		PlanDigest: feedback.ShortDigest(q.Root.Digest()),
		RowsOut:    r.Stats.RowsOut,
		ShipBytes:  r.Stats.ShippedBytes,
		ShipCostMS: r.Stats.ShipCost,
		Retries:    r.Stats.Retries,
		Cache:      disp,
		Engine:     engine,
		Coalesced:  q.Coalesced,
		QErrors:    q.qerrs,
	})
}
