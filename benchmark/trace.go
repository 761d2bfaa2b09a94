package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; Parent
// is the span that caused it (0 = none). A Concurrent span overlaps its
// siblings (operators of parallel fragments): it attributes time inside
// its parent but is not subtracted from it.
type span struct {
	ID         int     `json:"id"`
	Parent     int     `json:"parent"`
	Op         int     `json:"op"`
	Name       string  `json:"name"`
	Layer      string  `json:"layer"`
	StartUS    float64 `json:"start_us"`
	DurUS      float64 `json:"dur_us"`
	Concurrent bool    `json:"concurrent,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the timed run calls the same code.
type tracer struct {
	epoch time.Time
	spans []span
	opens map[int]time.Time
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), opens: map[int]time.Time{}} }

func (t *tracer) record(op, parent int, name, layer string, start time.Time, d time.Duration, concurrent bool) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer,
		StartUS: us(start.Sub(t.epoch)), DurUS: us(d), Concurrent: concurrent})
	return id
}

// add records a finished span and returns its id.
func (t *tracer) add(op, parent int, name, layer string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	return t.record(op, parent, name, layer, start, end.Sub(start), false)
}

func (t *tracer) addConcurrent(op, parent int, name, layer string, start time.Time, d time.Duration) {
	if t != nil {
		t.record(op, parent, name, layer, start, d, true)
	}
}

// open starts a span whose end is not known yet; close ends it.
func (t *tracer) open(op, parent int, name, layer string) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	id := t.record(op, parent, name, layer, now, 0, false)
	t.opens[id] = now
	return id
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].DurUS = us(time.Since(t.opens[id]))
	delete(t.opens, id)
}

// selfByLayer sums, per layer, each span's duration minus the part its
// sequential children cover. Concurrent spans are attribution only.
func (t *tracer) selfByLayer(keep func(op int) bool) map[string]float64 {
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if !s.Concurrent && s.Parent != 0 {
			child[s.Parent] += s.DurUS
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		if s.Concurrent || !keep(s.Op) {
			continue
		}
		if self := s.DurUS - child[s.ID]; self > 0 {
			out[s.Layer] += self
		}
	}
	return out
}

// perLayerNames lists every per-layer metric, in the order of
// BENCHMARK.json. Every traced run emits all of them; one that does not
// apply to a workload (no result cache, no index) reads 0.
var perLayerNames = []struct{ name, unit, better string }{
	{"sqlparse.parse_bind_us", "us", "lower"},
	{"optimizer.optimize_ms", "ms", "lower"},
	{"optimizer.normalize_us", "us", "lower"},
	{"optimizer.site_select_us", "us", "lower"},
	{"optimizer.plan_cache_hit_us", "us", "lower"},
	{"optimizer.plan_cache_hit_ratio", "ratio", "higher"},
	{"optimizer.allocs_per_optimize", "count", "lower"},
	{"optimizer.check_us", "us", "lower"},
	{"optimizer.violations", "count", "lower"},
	{"memo.explore_ms", "ms", "lower"},
	{"memo.implement_ms", "ms", "lower"},
	{"memo.groups", "count", "lower"},
	{"memo.exprs", "count", "lower"},
	{"policy.eta", "count", "lower"},
	{"policy.eval_calls", "count", "lower"},
	{"policy.eval_cache_hit_ratio", "ratio", "higher"},
	{"policy.evaluate_us_per_call", "us", "lower"},
	{"policy.switch_us", "us", "lower"},
	{"executor.run_ms", "ms", "lower"},
	{"executor.scan_self_ms", "ms", "lower"},
	{"executor.filter_project_self_ms", "ms", "lower"},
	{"executor.join_self_ms", "ms", "lower"},
	{"executor.agg_self_ms", "ms", "lower"},
	{"executor.sort_self_ms", "ms", "lower"},
	{"executor.ship_self_ms", "ms", "lower"},
	{"executor.rows_scanned_per_result_row", "ratio", "lower"},
	{"executor.allocs_per_run", "count", "lower"},
	{"executor.alloc_mb_per_run", "MB", "lower"},
	{"expr.kernel_speedup", "ratio", "higher"},
	{"network.encode_ns_per_row", "ns", "lower"},
	{"network.decode_ns_per_row", "ns", "lower"},
	{"network.wire_bytes_per_row", "B", "lower"},
	{"network.ship_batches_per_query", "count", "lower"},
	{"network.retries", "count", "lower"},
	{"cluster.wire_sleep_ms_per_query", "ms", "lower"},
	{"cluster.wire_exposed_ratio", "ratio", "lower"},
	{"store.pool_hit_ratio", "ratio", "higher"},
	{"store.page_reads_per_query", "count", "lower"},
	{"store.evictions_per_query", "count", "lower"},
	{"store.writebacks_per_append", "count", "lower"},
	{"store.scan_ms_cold", "ms", "lower"},
	{"store.scan_ms_warm", "ms", "lower"},
	{"store.index_lookup_us", "us", "lower"},
	{"store.index_range_us", "us", "lower"},
	{"store.append_us_per_row", "us", "lower"},
	{"store.disk_bytes_per_user_byte", "ratio", "lower"},
	{"store.wal_bytes_per_user_byte", "ratio", "lower"},
	{"store.recover_ms", "ms", "lower"},
	{"sched.queue_wait_p50_ms", "ms", "lower"},
	{"sched.queue_wait_p95_ms", "ms", "lower"},
	{"sched.serve_overhead_us", "us", "lower"},
	{"sched.coalesced_ratio", "ratio", "higher"},
	{"sched.executed_ratio", "ratio", "lower"},
	{"sched.rejected", "count", "lower"},
	{"rescache.hit_ratio", "ratio", "higher"},
	{"rescache.hit_us", "us", "lower"},
	{"rescache.evictions", "count", "lower"},
	{"rescache.invalidated_data", "count", "lower"},
	{"rescache.rechecked", "count", "higher"},
	{"rescache.bytes", "B", "lower"},
	{"obs.trace_overhead_pct", "%", "lower"},
	{"runtime.peak_rss_mb", "MB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_total_ms", "ms", "lower"},
	{"share.sqlparse_pct", "%", "lower"},
	{"share.optimizer_pct", "%", "lower"},
	{"share.memo_pct", "%", "lower"},
	{"share.policy_pct", "%", "lower"},
	{"share.rescache_pct", "%", "lower"},
	{"share.executor_pct", "%", "lower"},
	{"share.store_pct", "%", "lower"},
}

// shareLayers are the layers whose self time the share.* metrics split.
var shareLayers = []string{"sqlparse", "optimizer", "memo", "policy", "rescache", "executor", "store"}

// Shares of the traced run's budget: the timed phase the counters come
// from, the traced replay, and the layer probes.
const (
	timedShare  = 0.35
	tracedShare = 0.35
)

// tracedRun produces the per-layer metrics in three phases over one
// system: a timed phase like --trace 0 (counters and ratios are read
// from public snapshots around it), a replay of the same seeded
// sequence from its start with every op unrolled into its layer calls
// (times), and probes of single layers over the plans the replay saw.
func (h *harness) tracedRun(budget time.Duration, rounds int, setupS float64) (perLayer, endToEnd map[string]metric, attempted, failed int, err error) {
	m := map[string]float64{}
	deadline := time.Now().Add(budget)

	// Phase 1: timed.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := h.runCycles(time.Duration(timedShare*float64(budget)), rounds); err != nil {
		return nil, nil, 0, 0, err
	}
	runtime.ReadMemStats(&ms1)
	m["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["runtime.gc_pause_total_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	h.counterMetrics(m)
	endToEnd, attempted, failed = h.endToEnd(setupS)
	timedLatency, failures := classLatencies(h.samples), h.failures

	// Phase 2: the same sequence from its start, one span per layer call.
	h.restart()
	h.tr = newTracer()
	if err := h.runCycles(time.Duration(tracedShare*float64(budget)), rounds); err != nil {
		return nil, nil, 0, 0, err
	}
	tr := h.tr
	h.tr = nil
	_, a, f := h.endToEnd(setupS)
	attempted, failed = attempted+a, failed+f
	h.failures = append(failures, h.failures...)
	h.spans = tr.spans
	plans, annotated := h.replayMetrics(m, tr, timedLatency)

	// Phase 3: single-layer probes, bounded by what is left of the budget.
	if err := h.probes(m, plans, annotated, deadline); err != nil {
		return nil, nil, 0, 0, err
	}

	perLayer = map[string]metric{}
	for _, d := range perLayerNames {
		perLayer[d.name] = metric{m[d.name], d.unit}
	}
	return perLayer, endToEnd, attempted, failed, nil
}

// counterMetrics reads the counts and ratios of the timed phase: the
// deltas runSegment accumulated over timed segments, the server's and
// the result cache's lifetime counters, and what the responses carried.
func (h *harness) counterMetrics(m map[string]float64) {
	rc, sc := h.sys.ResultCacheStats(), h.srv.Counters()
	var queries, appends float64
	var queueMS, switchUS, appendUS []float64
	for _, s := range h.samples {
		switch {
		case s.class == "policy_switch":
			switchUS = append(switchUS, s.latencyMS*1e3)
		case s.class == "append":
			appends++
			appendUS = append(appendUS, s.latencyMS*1e3)
		case s.query && s.timed:
			queries++
			queueMS = append(queueMS, s.queueMS)
			m["network.retries"] += float64(s.retries)
		}
	}
	m["optimizer.plan_cache_hit_ratio"] = ratio(float64(h.planHits), float64(h.planHits+h.planMisses))
	m["policy.switch_us"] = median(switchUS)
	m["store.pool_hit_ratio"] = ratio(float64(h.poolHits), float64(h.poolHits+h.poolMisses))
	m["store.page_reads_per_query"] = ratio(float64(h.poolMisses), queries)
	m["store.evictions_per_query"] = ratio(float64(h.evictions), queries)
	m["store.writebacks_per_append"] = ratio(float64(h.writebacks), appends)
	m["store.append_us_per_row"] = ratio(sum(appendUS), appends*float64(h.spec.appendRows))
	m["store.wal_bytes_per_user_byte"] = ratio(float64(h.walBytes), float64(h.appendedBytes))
	m["sched.queue_wait_p50_ms"] = median(queueMS)
	m["sched.queue_wait_p95_ms"] = quantile(queueMS, 0.95)
	m["sched.coalesced_ratio"] = ratio(float64(sc.Coalesced+sc.ExecCoalesced), float64(sc.Completed))
	m["sched.executed_ratio"] = ratio(float64(sc.Executed), float64(sc.Completed))
	m["sched.rejected"] = float64(sc.RejectedQueueFull + sc.RejectedClosed)
	m["rescache.hit_ratio"] = ratio(float64(rc.Hits), float64(rc.Hits+rc.Misses))
	m["rescache.evictions"] = float64(rc.Evictions)
	m["rescache.invalidated_data"] = float64(rc.InvalidatedData)
	m["rescache.rechecked"] = float64(rc.Rechecked)
	m["rescache.bytes"] = float64(rc.Bytes)
}

// replayMetrics turns what the replayed ops returned into the per-layer
// times (means per call), the layer shares of self time and the tracing
// overhead against the timed phase's class latencies. It returns the
// distinct executed plans for the probes, the ones that shipped most
// first (the wire probes need rows on a SHIP edge).
func (h *harness) replayMetrics(m map[string]float64, tr *tracer, timedLatency map[string][]float64) (plans, annotated []planRef) {
	var parse, optMiss, norm, site, optHit, optAllocs, check, explore, implement []float64
	var run, runAllocs, runMB, cacheHit []float64
	var groups, exprs, eta, calls, hits, misses, executed, scanned, resultRows, batches float64
	self := map[string]float64{}
	timedOp := map[int]bool{}
	type probePlan struct {
		located, annotated planRef
		shipped            int64
	}
	var cands []probePlan
	seen := map[string]bool{}
	for i, s := range h.samples {
		timedOp[i+1] = s.timed
		u := s.u
		if u == nil {
			continue
		}
		parse = append(parse, u.parseUS)
		if u.cacheHit {
			cacheHit = append(cacheHit, u.probeUS)
		}
		if u.planHit {
			optHit = append(optHit, u.optimizeUS)
		} else if u.optimizeUS > 0 {
			optMiss = append(optMiss, u.optimizeUS/1e3)
			optAllocs = append(optAllocs, u.optAllocs)
		}
		if !u.planHit && u.located != nil {
			misses++
			norm = append(norm, u.normalizeUS)
			site = append(site, u.siteUS)
			explore = append(explore, u.exploreUS/1e3)
			implement = append(implement, u.implementUS/1e3)
			groups += float64(u.groups)
			exprs += float64(u.exprs)
			eta += float64(u.eta)
			calls += float64(u.evalCalls)
			hits += float64(u.evalHits)
		}
		if u.executed {
			executed++
			run = append(run, u.runUS/1e3)
			runAllocs = append(runAllocs, u.runAllocs)
			runMB = append(runMB, u.runAllocBytes/(1<<20))
			for g, v := range u.selfUS {
				self[g] += v / 1e3
			}
			scanned += float64(u.rowsScanned)
			resultRows += math.Max(1, float64(u.rowsOut))
			batches += float64(u.shipBatches)
			check = append(check, u.checkUS)
			m["optimizer.violations"] += float64(u.violations)
			if d := u.located.Digest(); !seen[d] {
				seen[d] = true
				cands = append(cands, probePlan{u.located, u.annotated, u.shipped})
			}
		}
	}
	m["sqlparse.parse_bind_us"] = mean(parse)
	m["optimizer.optimize_ms"] = mean(optMiss)
	m["optimizer.normalize_us"] = mean(norm)
	m["optimizer.site_select_us"] = mean(site)
	m["optimizer.plan_cache_hit_us"] = mean(optHit)
	m["optimizer.allocs_per_optimize"] = mean(optAllocs)
	m["optimizer.check_us"] = mean(check)
	m["memo.explore_ms"] = mean(explore)
	m["memo.implement_ms"] = mean(implement)
	m["memo.groups"] = ratio(groups, misses)
	m["memo.exprs"] = ratio(exprs, misses)
	m["policy.eta"] = ratio(eta, misses)
	m["policy.eval_calls"] = ratio(calls, misses)
	m["policy.eval_cache_hit_ratio"] = ratio(hits, calls)
	m["rescache.hit_us"] = mean(cacheHit)
	m["executor.run_ms"] = mean(run)
	for _, g := range opGroups {
		m["executor."+g+"_self_ms"] = ratio(self[g], executed)
	}
	m["executor.rows_scanned_per_result_row"] = ratio(scanned, resultRows)
	m["executor.allocs_per_run"] = mean(runAllocs)
	m["executor.alloc_mb_per_run"] = mean(runMB)
	m["network.ship_batches_per_query"] = ratio(batches, executed)

	var overhead []float64
	for c, lat := range classLatencies(h.samples) {
		if base := median(timedLatency[c]); base > 0 {
			overhead = append(overhead, median(lat)/base)
		}
	}
	if g := geomean(overhead); g > 0 {
		m["obs.trace_overhead_pct"] = (g - 1) * 100
	}
	byLayer := tr.selfByLayer(func(op int) bool { return timedOp[op] })
	total := 0.0
	for _, v := range byLayer {
		total += v
	}
	for _, l := range shareLayers {
		m["share."+l+"_pct"] = 100 * ratio(byLayer[l], total)
	}

	sort.SliceStable(cands, func(i, j int) bool { return cands[i].shipped > cands[j].shipped })
	if len(cands) > maxProbePlans {
		cands = cands[:maxProbePlans]
	}
	for _, c := range cands {
		plans = append(plans, c.located)
		annotated = append(annotated, c.annotated)
	}
	return plans, annotated
}

// maxProbePlans caps the distinct executed plans the probes re-run.
const maxProbePlans = 24
