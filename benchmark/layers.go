package main

// layers.go is the only file of the benchmark that imports
// cgdqp/internal/...: every call into a layer below the public facade —
// workload generators, the unrolled per-layer replay of a query, and the
// layer probes of the traced run — goes through here, so an engine or
// cache refactor patches this one file. Everything is measured from
// outside: by timing calls into public functions and reading the values
// those functions already return.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"cgdqp"
	"cgdqp/internal/executor"
	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/obs"
	"cgdqp/internal/plan"
	"cgdqp/internal/policy"
	"cgdqp/internal/rescache"
	"cgdqp/internal/sqlparse"
	"cgdqp/internal/tpch"
	"cgdqp/internal/workload"
)

// planRef lets the other files hold plans without naming the type.
type planRef = *plan.Node

// adhocShapeSeed fixes the *shapes* of the ad-hoc queries for every
// --seed. Shapes drawn per seed make one round cost 100–500 ms
// depending on the draw (measured), which no regression bound
// survives; --seed therefore drives order, literals, Zipf draws and
// appended rows, and the shapes stay put.
const adhocShapeSeed = 20210621

// --- workload inputs -----------------------------------------------------

func goldenNames() []string { return tpch.QueryNames() }

func goldenSQL(name string) string { return strings.TrimSpace(tpch.Queries[name]) }

func adhocSQL(n int) []string { return workload.NewQueryGen(adhocShapeSeed).Generate(n) }

func policySetNames() []string {
	var out []string
	for _, n := range workload.SetNames() {
		out = append(out, string(n))
	}
	return out
}

// policyTexts renders a policy catalog in surface syntax, the form the
// facade's AddPolicy takes.
func policyTexts(pc *policy.Catalog) []string {
	var out []string
	for _, db := range pc.Databases() {
		for _, e := range pc.ForDB(db) {
			out = append(out, e.String())
		}
	}
	return out
}

func policySetTexts(set string) []string { return policyTexts(workload.TPCHSet(workload.SetName(set))) }

func unrestrictedTexts() []string { return policyTexts(workload.UnrestrictedSet()) }

// policySetFingerprint is the fingerprint the system's catalog must
// have after installing a set plus one extra expression through the
// text round trip.
func policySetFingerprint(set, extra, db string) string {
	pc := workload.TPCHSet(workload.SetName(set))
	pc.Add(policy.MustParse(extra, "extra", db))
	return pc.Fingerprint()
}

// useTPCH points the system at the TPC-H catalog of a scale factor.
func useTPCH(sys *cgdqp.System, sf float64) { sys.Schema = tpch.NewCatalog(sf) }

// installSet replaces the system's policy catalog wholesale; only valid
// before the system's optimizer exists (the oracle systems use it so
// their verdicts do not depend on the text round trip).
func installSet(sys *cgdqp.System, set string) {
	sys.Policies = workload.TPCHSet(workload.SetName(set))
}

func loadTPCH(sys *cgdqp.System) error { return tpch.Generate(sys.Schema, sys.Cluster()) }

// userBytes sums the value widths of every loaded TPC-H row: the "user
// data" that on-disk bytes are compared against.
func userBytes(sys *cgdqp.System) (int64, error) {
	var total int64
	for _, t := range sys.Schema.Tables() {
		rows, err := sys.Cluster().AllRows(t)
		if err != nil {
			return 0, err
		}
		total += rowsWidth(rows)
	}
	return total, nil
}

func rowsWidth(rows []cgdqp.Row) int64 {
	var total int64
	for _, r := range rows {
		for _, v := range r {
			total += int64(v.Width())
		}
	}
	return total
}

// --- unrolled replay of one query ----------------------------------------

// opGroups names the operator groups executor self time is reported by.
var opGroups = []string{"scan", "filter_project", "join", "agg", "sort", "ship"}

func opGroup(k plan.Kind) string {
	switch k {
	case plan.TableScan, plan.IndexScan:
		return "scan"
	case plan.FilterExec, plan.ProjectExec:
		return "filter_project"
	case plan.HashJoin, plan.NLJoin, plan.MergeJoin, plan.IndexLookupJoin:
		return "join"
	case plan.HashAgg:
		return "agg"
	case plan.SortExec, plan.LimitExec:
		return "sort"
	case plan.Ship:
		return "ship"
	}
	return "other"
}

// unrolled is what one replayed query returns to the harness: the
// answer to verify plus the per-layer numbers the calls handed back.
type unrolled struct {
	rows     []cgdqp.Row
	rowsOut  int
	shipped  int64
	shipCost float64
	retries  int64
	cacheHit bool

	planHit    bool
	located    planRef
	annotated  planRef
	parseUS    float64
	optimizeUS float64
	optAllocs  float64
	// Phase times and counts of a plan-cache miss, as Optimize returns them.
	normalizeUS, exploreUS, implementUS, siteUS float64
	groups, exprs                               int
	eta, evalCalls, evalHits                    int64

	probeUS       float64 // result-cache probe (0 with the cache off)
	executed      bool
	runUS         float64
	runAllocs     float64
	runAllocBytes float64
	selfUS        map[string]float64 // operator group -> self time
	rowsScanned   int64
	shipBatches   int64
	checkUS       float64
	violations    int
}

func mallocs() (n, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// replayQuery runs one query as the sequence of layer calls that
// Server.Do makes internally — ParseAndBind, Optimize, result-cache
// probe, RunParallelOpts, compliance Check — recording one span per
// call under the op's root span, and child spans from the phase times
// and operator times the calls return. The error of an illegal query is
// the optimizer's, unchanged.
func replayQuery(sys *cgdqp.System, sql string, tr *tracer, op int) (*unrolled, error) {
	u := &unrolled{}
	root := tr.open(op, 0, "op", "harness")
	defer tr.close(root)

	t0 := time.Now()
	logical, err := sqlparse.ParseAndBind(sql, sys.Schema)
	t1 := time.Now()
	tr.add(op, root, "sqlparse.parse_bind", "sqlparse", t0, t1)
	u.parseUS = us(t1.Sub(t0))
	if err != nil {
		return u, err
	}

	opt := sys.Optimizer()
	m0, _ := mallocs()
	t0 = time.Now()
	res, err := opt.Optimize(logical)
	t1 = time.Now()
	m1, _ := mallocs()
	osp := tr.add(op, root, "optimizer.optimize", "optimizer", t0, t1)
	u.optimizeUS = us(t1.Sub(t0))
	u.optAllocs = float64(m1 - m0)
	if err != nil {
		return u, err
	}
	st := res.Stats
	u.planHit = st.PlanCacheHit
	u.located, u.annotated = res.Plan, res.Annotated
	if !st.PlanCacheHit {
		// The phases run back to back, so laying the returned durations
		// end to end from the call's start reproduces them.
		at := t0
		for _, ph := range []struct {
			name, layer string
			d           time.Duration
		}{
			{"optimizer.normalize", "optimizer", st.NormalizeTime},
			{"memo.explore", "memo", st.ExploreTime},
			{"memo.implement", "memo", st.ImplementTime},
			{"optimizer.site_select", "optimizer", st.SiteTime},
		} {
			tr.add(op, osp, ph.name, ph.layer, at, at.Add(ph.d))
			at = at.Add(ph.d)
		}
		u.normalizeUS, u.exploreUS = us(st.NormalizeTime), us(st.ExploreTime)
		u.implementUS, u.siteUS = us(st.ImplementTime), us(st.SiteTime)
		u.groups, u.exprs = st.Groups, st.Exprs
		u.eta, u.evalCalls, u.evalHits = st.Eta, st.ACalls, st.AHits
	}

	var fill *rescache.Fill
	rc := sys.ResultCache()
	if rc != nil {
		view := cacheView(sys)
		t0 = time.Now()
		fill = rescache.Prepare(res.Plan, "", view)
		r, ok := rc.Get(fill.Key, view)
		t1 = time.Now()
		tr.add(op, root, "rescache.probe", "rescache", t0, t1)
		u.probeUS = us(t1.Sub(t0))
		if ok {
			u.cacheHit = true
			u.rows, u.shipped, u.shipCost, u.retries = r.Rows, r.Stats.ShippedBytes, r.Stats.ShipCost, r.Stats.Retries
			u.rowsOut = len(r.Rows)
			return u, nil
		}
	}

	prof := obs.NewPlanProfile()
	m0, b0 := mallocs()
	t0 = time.Now()
	rows, stats, err := executor.RunParallelOpts(context.Background(), res.Plan, sys.Cluster(), &obs.Observer{Profile: prof}, executor.ExecOptions{})
	t1 = time.Now()
	m1, b1 := mallocs()
	rsp := tr.add(op, root, "executor.run", "executor", t0, t1)
	if err != nil {
		return u, err
	}
	u.executed = true
	u.runUS = us(t1.Sub(t0))
	u.runAllocs, u.runAllocBytes = float64(m1-m0), float64(b1-b0)
	u.rows, u.shipped, u.shipCost, u.retries = rows, stats.ShippedBytes, stats.ShipCost, stats.Retries
	u.rowsOut = len(rows)
	u.selfUS = map[string]float64{}
	res.Plan.Walk(func(n *plan.Node) bool {
		s := prof.Peek(n)
		if s == nil {
			return true
		}
		self := s.Time()
		for _, c := range n.Children {
			self -= prof.Peek(c).Time()
		}
		if self < 0 {
			// A SHIP's producer runs in its own fragment goroutine and can
			// outlast the consumer's wait for it.
			self = 0
		}
		g := opGroup(n.Kind)
		u.selfUS[g] += us(self)
		// Fragments overlap, so operator spans are attribution inside the
		// run span, not a partition of it.
		tr.addConcurrent(op, rsp, "executor."+g, "executor", t0, self)
		switch g {
		case "scan":
			u.rowsScanned += s.Rows.Load()
		case "ship":
			u.shipBatches += s.Batches.Load()
		}
		return true
	})

	if rc != nil {
		t0 = time.Now()
		cols := make([]string, len(res.Plan.Cols))
		for i, c := range res.Plan.Cols {
			cols[i] = c.Name
		}
		rc.Put(fill, rows, cols, *stats, nil, res.ShipCost)
		tr.add(op, root, "rescache.put", "rescache", t0, time.Now())
	}

	t0 = time.Now()
	vs := opt.Check(res.Plan)
	t1 = time.Now()
	tr.add(op, root, "optimizer.check", "optimizer", t0, t1)
	u.checkUS = us(t1.Sub(t0))
	u.violations = len(vs)
	return u, nil
}

// cacheView is the validity oracle the facade hands the result cache.
func cacheView(sys *cgdqp.System) rescache.View {
	opt := sys.Optimizer()
	return rescache.View{
		DataEpoch:   sys.Cluster().DataEpoch,
		PolicyEpoch: sys.PolicyEpoch,
		Recheck:     func(p *plan.Node) bool { return len(opt.Check(p)) == 0 },
	}
}

// --- layer probes (traced run only) --------------------------------------

// uncachedServer is a server whose result cache can hold nothing, so
// that Server.Do executes every query like the direct path it is
// compared with (the facade offers no way to serve without the system's
// cache).
func uncachedServer(sys *cgdqp.System) *cgdqp.Server {
	opts := cgdqp.ServeOptions{MaxConcurrent: serveConcurrency}
	if sys.ResultCache() != nil {
		opts.ResultCache = rescache.New(1)
		opts.CacheView = cacheView(sys)
	}
	return sys.Serve(opts)
}

// runPlan executes a located plan directly, as the scheduler would.
func runPlan(sys *cgdqp.System, p planRef, noKernels bool) ([]cgdqp.Row, float64, time.Duration, error) {
	t0 := time.Now()
	rows, stats, err := executor.RunParallelOpts(context.Background(), p, sys.Cluster(), nil, executor.ExecOptions{NoKernels: noKernels})
	d := time.Since(t0)
	if err != nil {
		return nil, 0, d, err
	}
	return rows, stats.ShipCost, d, nil
}

// directQuery is the unscheduled path Server.Do is compared against.
func directQuery(sys *cgdqp.System, sql string) (time.Duration, error) {
	t0 := time.Now()
	res, err := sys.Optimizer().OptimizeSQL(sql)
	if err != nil {
		return 0, err
	}
	_, _, err = executor.RunParallelOpts(context.Background(), res.Plan, sys.Cluster(), nil, executor.ExecOptions{})
	return time.Since(t0), err
}

// planCacheHitUS times the optimizer's cached path for SQL text it has
// planned before (the path every warm Server.Do takes).
func planCacheHitUS(sys *cgdqp.System, sqls []string) []float64 {
	var out []float64
	opt := sys.Optimizer()
	for _, q := range sqls {
		t0 := time.Now()
		res, err := opt.OptimizeSQL(q)
		d := time.Since(t0)
		if err == nil && res.Stats.PlanCacheHit {
			out = append(out, us(d))
		}
	}
	return out
}

// probeResultCacheHit fills a private result cache with one executed
// plan and times validated hits on it (key derivation plus lookup): the
// rescache layer's own cost on workloads that run with the cache off.
func probeResultCacheHit(sys *cgdqp.System, p planRef, reps int) ([]float64, error) {
	rows, stats, err := executor.RunParallelOpts(context.Background(), p, sys.Cluster(), nil, executor.ExecOptions{})
	if err != nil {
		return nil, err
	}
	cache, view := rescache.New(64<<20), cacheView(sys)
	cache.Put(rescache.Prepare(p, "", view), rows, nil, *stats, nil, 0)
	var out []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		_, ok := cache.Get(rescache.Prepare(p, "", view).Key, view)
		out = append(out, us(time.Since(t0)))
		if !ok {
			return nil, fmt.Errorf("result cache probe: entry not found")
		}
	}
	return out, nil
}

// probeKernels re-runs the plans with the compiled expression kernels
// off and on and returns interpreter time ÷ kernel time.
func probeKernels(sys *cgdqp.System, plans []planRef, deadline time.Time) (float64, error) {
	var on, off time.Duration
	for i, p := range plans {
		if i > 0 && time.Now().After(deadline) {
			break
		}
		_, _, dOn, err := runPlan(sys, p, false)
		if err != nil {
			return 0, err
		}
		_, _, dOff, err := runPlan(sys, p, true)
		if err != nil {
			return 0, err
		}
		on += dOn
		off += dOff
	}
	return ratio(off.Seconds(), on.Seconds()), nil
}

// wireProbe is the wire-format cost over the rows that cross the SHIP
// edges of the given plans.
type wireProbe struct {
	rows, bytes      int64
	encodeNS, decode float64
}

func probeWire(sys *cgdqp.System, plans []planRef, deadline time.Time) (wireProbe, error) {
	var w wireProbe
	for _, p := range plans {
		var ships []*plan.Node
		p.Walk(func(n *plan.Node) bool {
			if n.Kind == plan.Ship && len(n.Children) == 1 {
				ships = append(ships, n)
			}
			return true
		})
		for _, s := range ships {
			if w.rows > 0 && time.Now().After(deadline) {
				return w, nil
			}
			rows, _, _, err := runPlan(sys, s.Children[0], false)
			if err != nil {
				return w, fmt.Errorf("wire probe: %w", err)
			}
			for lo := 0; lo < len(rows); lo += executor.BatchSize {
				hi := lo + executor.BatchSize
				if hi > len(rows) {
					hi = len(rows)
				}
				t0 := time.Now()
				frame := network.EncodeBatch(rows[lo:hi], network.WireOptions{})
				t1 := time.Now()
				var dst expr.Batch
				if err := network.DecodeBatchCols(frame, &dst); err != nil {
					return w, fmt.Errorf("wire probe: %w", err)
				}
				t2 := time.Now()
				if dst.Len() != hi-lo {
					return w, fmt.Errorf("wire probe: decoded %d rows of %d", dst.Len(), hi-lo)
				}
				w.rows += int64(hi - lo)
				w.bytes += int64(len(frame))
				w.encodeNS += float64(t1.Sub(t0).Nanoseconds())
				w.decode += float64(t2.Sub(t1).Nanoseconds())
			}
		}
	}
	return w, nil
}

// probeWireExposure runs each plan with the simulated WAN sleeping at
// `scale` and not at all: the extra wall time, and that time as a share
// of the fully serial transfer time ShipCost×scale (1 = no overlap).
func probeWireExposure(sys *cgdqp.System, plans []planRef, scale float64, deadline time.Time) (extraMS, serialMS float64, n int, err error) {
	cl := sys.Cluster()
	prev := cl.WireDelay()
	defer cl.SetWireDelay(prev)
	for i, p := range plans {
		if i > 0 && time.Now().After(deadline) {
			break
		}
		cl.SetWireDelay(0)
		_, cost, dOff, e := runPlan(sys, p, false)
		if e != nil {
			return 0, 0, 0, e
		}
		if cost == 0 {
			continue // ships nothing: on − off would be noise
		}
		cl.SetWireDelay(scale)
		_, _, dOn, e := runPlan(sys, p, false)
		if e != nil {
			return 0, 0, 0, e
		}
		extraMS += (dOn - dOff).Seconds() * 1e3
		serialMS += cost * scale
		n++
	}
	return extraMS, serialMS, n, nil
}

// probePolicyEval replays the policy evaluator 𝒜 over every subtree of
// the annotated plans with a fresh (cold) evaluator and returns the
// time per call that reached it.
func probePolicyEval(sys *cgdqp.System, annotated []planRef) float64 {
	ev := policy.NewEvaluator(sys.Policies, sys.Schema.Locations())
	var st policy.EvalStats
	t0 := time.Now()
	for _, p := range annotated {
		p.Walk(func(n *plan.Node) bool {
			ev.EvaluateSubtreeWith(n, &st)
			return true
		})
	}
	return ratio(us(time.Since(t0)), float64(st.Calls))
}

// storeProbe times the storage access paths under the executor.
type storeProbe struct {
	scanMS        []float64 // successive full drains of the table
	lookupUS      []float64
	rangeUS       []float64
	indexed, disk bool
}

func probeStore(sys *cgdqp.System, scanTable, idxTable, col string, keys []int64, span int64, drains int) (storeProbe, error) {
	var sp storeProbe
	t, ok := sys.Schema.Table(scanTable)
	if !ok {
		return sp, fmt.Errorf("store probe: no table %q", scanTable)
	}
	cl := sys.Cluster()
	for i := 0; i < drains; i++ {
		t0 := time.Now()
		it, disk, err := cl.FragmentBatches(t, 0)
		if err != nil {
			return sp, err
		}
		if !disk {
			return sp, nil
		}
		sp.disk = true
		var b expr.Batch
		for {
			more, err := it.NextBatch(&b)
			if err != nil {
				return sp, err
			}
			if !more {
				break
			}
		}
		sp.scanMS = append(sp.scanMS, time.Since(t0).Seconds()*1e3)
	}
	if t, ok = sys.Schema.Table(idxTable); !ok {
		return sp, fmt.Errorf("store probe: no table %q", idxTable)
	}
	for _, k := range keys {
		t0 := time.Now()
		_, ok, err := cl.IndexLookupRows(t, 0, col, expr.NewInt(k))
		if err != nil {
			return sp, err
		}
		if !ok {
			return sp, nil
		}
		sp.indexed = true
		sp.lookupUS = append(sp.lookupUS, us(time.Since(t0)))
		lo, hi := expr.NewInt(k), expr.NewInt(k+span)
		t0 = time.Now()
		if _, _, err := cl.IndexRangeRows(t, 0, col, &lo, &hi, true, true); err != nil {
			return sp, err
		}
		sp.rangeUS = append(sp.rangeUS, us(time.Since(t0)))
	}
	return sp, nil
}
