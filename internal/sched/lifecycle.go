package sched

import (
	"context"
	"errors"
	"time"

	"cgdqp/internal/cluster"
	"cgdqp/internal/executor"
	"cgdqp/internal/obs"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/plan"
	"cgdqp/internal/rescache"
)

// Lifecycle is the system's one query path — plan → probe → execute
// (which fills the result cache) → note, which closes the query's
// account — and the only code that performs those steps. System.Query
// and ExplainAnalyze call the steps back to back; a Server calls the
// same steps and wraps what is the scheduler's own around them:
// admission and the worker pool in front, the optimization singleflight
// around Plan, the execution singleflight around Execute.
type Lifecycle struct {
	Opt     *optimizer.Optimizer
	Cluster *cluster.Cluster
	// Obs bundles the metrics and audit sinks (nil = unobserved).
	Obs *obs.Observer
	// Cache is the result-set cache and View its validity oracles. With a
	// nil Cache every Probe misses and Execute fills nothing.
	Cache *rescache.Cache
	View  rescache.View
	// Exec are the execution options.
	Exec executor.ExecOptions
	// SlowLog receives the account of every query at or above its
	// threshold, one JSON line each (nil = off).
	SlowLog *obs.SlowQueryLog
}

// Query is one statement on its way through the lifecycle.
type Query struct {
	SQL string
	// Start is where end-to-end latency is measured from (admission, for
	// a served query).
	Start time.Time
	// Res is the optimization that made the plan. Followers of a shared
	// optimization share it: it is read-only.
	Res *optimizer.Result
	// Root is the located plan this query executes. It is private to the
	// query: a follower of a shared optimization holds a clone.
	Root    *plan.Node
	Columns []string
	// Coalesced marks an optimization shared with an identical in-flight
	// one.
	Coalesced bool
	// QueueWait is a served query's wait for a worker.
	QueueWait time.Duration

	policyVer uint64         // the policy version Root was last verified under
	fill      *rescache.Fill // set by Probe: Execute fills the cache under it
	execTime  time.Duration  // set by Execute when the slow-query log is on
	qerrs     []obs.OpQError // set by Execute when the slow-query log is on
}

// SetPlan makes an optimization the query's plan, with its output
// columns. A follower of a shared optimization (shared) executes a
// private clone of the plan.
func (q *Query) SetPlan(res *optimizer.Result, cols []string, shared bool) {
	q.Res, q.Root, q.Columns, q.Coalesced, q.policyVer = res, res.Plan, cols, shared, res.PolicyVer
	if shared {
		q.Root = q.Root.Clone()
	}
}

// Plan parses, binds and optimizes a statement into a compliant located
// plan, and names its output columns.
func (lc *Lifecycle) Plan(sql string) (*optimizer.Result, []string, error) {
	res, err := lc.Opt.OptimizeSQL(sql)
	if err != nil {
		return nil, nil, err
	}
	return res, columnNames(res.Plan), nil
}

// columnNames returns a fresh slice of a plan's output column names.
func columnNames(p *plan.Node) []string {
	cols := make([]string, len(p.Cols))
	for i, c := range p.Cols {
		cols[i] = c.Name
	}
	return cols
}

// verify keeps the query's plan compliant under the policy catalog as
// it is now. A plan is verified under the version read before it was
// derived; when the catalog has moved since, the plan is checked
// against Definition 1 again (the check View.Recheck runs for a cached
// result), and one that fails is re-planned once. The version is read
// again after a check, so a plan is only ever marked verified under a
// version that held throughout its check. A re-planned plan that fails
// too fails the query with ErrNoCompliantPlan.
func (lc *Lifecycle) verify(q *Query) error {
	replanned := false
	for {
		v := lc.Opt.Policies.Version()
		if v == q.policyVer {
			return nil
		}
		if len(lc.Opt.Check(q.Root)) == 0 {
			q.policyVer = v
			continue
		}
		if replanned {
			return optimizer.ErrNoCompliantPlan
		}
		res, cols, err := lc.Plan(q.SQL)
		if err != nil {
			return err
		}
		q.SetPlan(res, cols, false)
		replanned = true
	}
}

// Probe verifies the query's plan, snapshots its cache key and validity
// epochs — it must run before the execution it describes — and looks
// the result up. The snapshot's policy epoch is the version the plan
// was verified under: the catalog is read on both sides of it. On a hit
// the stored audit records are replayed into the audit log, so a
// cache-served query leaves the same compliance trail as the execution
// that filled the entry. A query that is never probed (EXPLAIN
// ANALYZE) bypasses the cache altogether.
func (lc *Lifecycle) Probe(q *Query) (*rescache.Result, bool, error) {
	if lc.Cache == nil {
		return nil, false, nil
	}
	for {
		if err := lc.verify(q); err != nil {
			return nil, false, err
		}
		v := q.policyVer
		// No execution option changes rows, RunStats or audit log (the
		// conformance suite pins this for the kernel mode), so every
		// execution of a plan shares one entry: the options fingerprint
		// is "".
		q.fill = rescache.Prepare(q.Root, "", lc.View)
		if lc.Opt.Policies.Version() == v {
			break
		}
	}
	r, ok := lc.Cache.Get(q.fill.Key, lc.View)
	if ok {
		lc.replay(r.Audit)
	}
	return r, ok, nil
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

// Execute verifies the query's plan and runs it, returning its rows,
// statistics and audit records. A probed query captures its audit
// records privately (replayed into the shared log on success) and fills
// the cache — unless verification replaced the plan its snapshot
// describes. A per-operator profile is installed when the caller brings
// one (EXPLAIN ANALYZE) or the slow-query log needs actuals — after the
// cache gate, so cache-served queries never pay for profiling.
func (lc *Lifecycle) Execute(ctx context.Context, q *Query, prof *obs.PlanProfile) (*rescache.Result, error) {
	planned := q.Root
	if err := lc.verify(q); err != nil {
		return nil, err
	}
	if q.Root != planned {
		q.fill = nil // the snapshot describes the replaced plan
	}
	runObs := lc.Obs
	var capture *obs.AuditLog
	if q.fill != nil && lc.Obs.AuditSink() != nil {
		capture = obs.NewAuditLog()
		runObs = runObs.WithAudit(capture)
	}
	var t0 time.Time
	if lc.SlowLog != nil {
		t0 = time.Now()
		if prof == nil {
			prof = obs.NewPlanProfile()
		}
	}
	if prof != nil {
		runObs = runObs.WithProfile(prof)
	}
	rows, stats, err := executor.RunParallelOpts(ctx, q.Root, lc.Cluster, runObs, lc.Exec)
	if lc.SlowLog != nil {
		q.execTime = time.Since(t0)
	}
	if err != nil {
		return nil, err
	}
	r := &rescache.Result{Rows: rows, Columns: q.Columns, Stats: *stats, ShipCost: q.Res.ShipCost}
	if capture != nil {
		r.Audit = capture.Records()
		lc.replay(r.Audit)
	}
	if q.fill != nil {
		lc.Cache.Put(q.fill, rows, q.Columns, *stats, r.Audit, q.Res.ShipCost)
	}
	if lc.SlowLog != nil {
		q.qerrs = prof.QErrors(q.Root)
	}
	return r, nil
}

// Note closes a query's account: the query counter and store-pool
// gauges and, with the slow-query log on, the record it writes. how is
// the outcome of a query that succeeded (obs.OutcomeOK for an
// execution, OutcomeCacheHit or OutcomeExecCoalesced for a result
// served without one); a failed query's comes from err.
func (lc *Lifecycle) Note(q *Query, r *rescache.Result, how string, err error) {
	if m := lc.Obs.Reg(); m != nil {
		status := "ok"
		if err != nil {
			status = "error"
		}
		m.Counter("cgdqp_queries_total", "status", status).Inc()
		st := lc.Cluster.StoreStats()
		m.Gauge("cgdqp_store_pool_hits").Set(float64(st.Hits))
		m.Gauge("cgdqp_store_pool_misses").Set(float64(st.Misses))
		m.Gauge("cgdqp_store_pool_evictions").Set(float64(st.Evictions))
		m.Gauge("cgdqp_store_pool_writebacks").Set(float64(st.Writebacks))
		m.Gauge("cgdqp_store_pool_resident").Set(float64(st.Resident))
		m.Gauge("cgdqp_store_pool_decode_hits").Set(float64(st.DecodeHits))
	}
	if lc.SlowLog != nil {
		lc.SlowLog.Maybe(time.Since(q.Start), lc.account(q, r, how, err))
	}
}

// account assembles a query's record from what the lifecycle's steps
// returned.
func (lc *Lifecycle) account(q *Query, r *rescache.Result, how string, err error) obs.QueryRecord {
	rec := obs.QueryRecord{
		SQLDigest: obs.ShortDigest(q.SQL),
		Cache:     obs.CacheOff,
		Coalesced: q.Coalesced,
		Outcome:   how,
		PlanCache: obs.CacheOff,
		Phases:    obs.Phases{ExecuteMS: obs.Millis(q.execTime), QueueWaitMS: obs.Millis(q.QueueWait)},
		QErrors:   q.qerrs,
	}
	switch {
	case err == nil && how != obs.OutcomeOK:
		rec.Cache = obs.CacheHit
	case q.fill != nil:
		rec.Cache = obs.CacheMiss
	}
	if err != nil {
		rec.Outcome, rec.Error = failure(err), err.Error()
	}
	if lc.Opt.PlanCacheEnabled() {
		rec.PlanCache = obs.CacheMiss
	}
	if r != nil {
		rec.RowsOut, rec.ShipBytes = r.Stats.RowsOut, r.Stats.ShippedBytes
		rec.ShipCostMS, rec.Retries = r.Stats.ShipCost, r.Stats.Retries
	}
	if q.Res == nil {
		return rec
	}
	st := &q.Res.Stats
	if st.PlanCacheHit {
		rec.PlanCache = obs.CacheHit
	}
	rec.PlanDigest = obs.ShortDigest(q.Root.Digest())
	rec.ExploreReused, rec.PolicyVersion = st.ExploreHit, q.Res.PolicyVer
	rec.EvalCalls, rec.EvalHits, rec.Eta, rec.Truncated = st.ACalls, st.AHits, st.Eta, st.Truncated
	rec.Phases.ParseMS, rec.Phases.NormalizeMS = obs.Millis(st.ParseTime), obs.Millis(st.NormalizeTime)
	rec.Phases.ExploreMS, rec.Phases.ImplementMS = obs.Millis(st.ExploreTime), obs.Millis(st.ImplementTime)
	rec.Phases.SiteSelectMS = obs.Millis(st.SiteTime)
	return rec
}

// failure names the outcome of a query that failed with err.
func failure(err error) string {
	switch {
	case isCancellation(err):
		return obs.OutcomeCancelled
	case errors.Is(err, optimizer.ErrNoCompliantPlan):
		return obs.OutcomeRefused
	default:
		return obs.OutcomeError
	}
}
