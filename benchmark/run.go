package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cgdqp"
)

// setupRepeats is how many times a run sets the system up from nothing;
// setup_s is the median, and the last system is the one measured.
const setupRepeats = 3

// serveConcurrency is MaxConcurrent of every server: the client count
// never exceeds it, so nothing is ever refused for a full queue.
const serveConcurrency = 2

// sample is one executed op of the seeded sequence.
type sample struct {
	class     string
	query     bool
	timed     bool
	latencyMS float64
	fault     string // "" = verified
	shipped   int64
	shipCost  float64
	retries   int64
	cacheHit  bool
	coalesced bool
	queueMS   float64
	u         *unrolled // traced run only
}

// opResult carries an executed op from the (possibly concurrent) issue
// loop to the single-threaded verification after the segment.
type opResult struct {
	sample
	rows []cgdqp.Row
	want *reference
	err  error
	set  string
}

// harness owns one system under test and drives one workload over it.
type harness struct {
	spec *spec
	seed uint64
	rng  *rand.Rand
	work string // scratch directory for data dirs

	golden, adhoc, store, events []*query
	warmup                       []*query // answered once, untimed, by every set-up
	evRecent                     *query
	mixedPop                     []*query
	setTexts                     map[string][]string
	setPrints                    map[string]string
	oracle                       *oracle

	sys *cgdqp.System
	srv *cgdqp.Server
	dir string
	set string
	ev  *eventsGen

	tr       *tracer // non-nil: ops are replayed layer by layer
	spans    []span  // what the traced replay recorded
	opSeq    int
	samples  []sample
	oplog    []string
	failures []string

	// Accumulated over timed segments only.
	wall                                        time.Duration
	mallocs, bytes                              uint64
	planHits, planMisses                        int64
	poolHits, poolMisses, evictions, writebacks int64
	walBytes                                    int64 // WAL growth across append ops
	appendedBytes                               int64
}

func newHarness(sp *spec, seed uint64, work string) (*harness, error) {
	h := &harness{spec: sp, seed: seed, work: work, setTexts: map[string][]string{}, setPrints: map[string]string{}}
	// populate draws the seeded literals; the op sequence has a stream
	// of its own so that it can be rewound.
	h.rng = rand.New(rand.NewSource(int64(seed)))
	if err := sp.populate(h); err != nil {
		return nil, err
	}
	h.restart()
	for _, set := range policySetNames() {
		h.setTexts[set] = append(policySetTexts(set), eventsPolicy)
		h.setPrints[set] = policySetFingerprint(set, eventsPolicy, "db-4")
	}
	return h, nil
}

// static lists the queries whose reference the oracle computes.
func (h *harness) static() []*query {
	var out []*query
	out = append(out, h.golden...)
	out = append(out, h.adhoc...)
	out = append(out, h.store...)
	return out
}

// classLatencies groups the latencies of the timed, verified ops by
// latency class.
func classLatencies(samples []sample) map[string][]float64 {
	byClass := map[string][]float64{}
	for _, s := range samples {
		if s.timed && s.fault == "" {
			byClass[s.class] = append(byClass[s.class], s.latencyMS)
		}
	}
	return byClass
}

// classSummary renders count, median and p95 latency per class.
func (h *harness) classSummary() []string {
	byClass := classLatencies(h.samples)
	var names []string
	for c := range byClass {
		names = append(names, c)
	}
	sort.Strings(names)
	var out []string
	for _, c := range names {
		out = append(out, fmt.Sprintf("class %-16s n %5d  median %10.3f ms  p95 %10.3f ms", c, len(byClass[c]), median(byClass[c]), quantile(byClass[c], 0.95)))
	}
	return out
}

// restart rewinds the seeded op sequence and forgets what was measured
// (the traced run replays the timed run's sequence from its start).
func (h *harness) restart() {
	h.rng = rand.New(rand.NewSource(int64(h.seed ^ 0x9e3779b97f4a7c15)))
	h.opSeq = 0
	h.samples, h.oplog, h.failures = nil, nil, nil
	h.wall, h.mallocs, h.bytes = 0, 0, 0
	h.planHits, h.planMisses = 0, 0
	h.poolHits, h.poolMisses, h.evictions, h.writebacks = 0, 0, 0, 0
	h.walBytes, h.appendedBytes = 0, 0
}

// --- set-up --------------------------------------------------------------

// setup builds the system under test from nothing: catalog, persistent
// store, generated data, first policy set, server, and one untimed pass
// over the workload's warm-up queries so lazy initialisation is paid here.
func (h *harness) setup() (time.Duration, error) {
	t0 := time.Now()
	dir, err := os.MkdirTemp(h.work, h.spec.name+"-")
	if err != nil {
		return 0, err
	}
	h.dir = dir
	sys, err := h.openSystem(dir)
	if err != nil {
		return 0, err
	}
	h.sys = sys
	if err := loadTPCH(sys); err != nil {
		return 0, err
	}
	h.ev = newEventsGen(h.seed)
	if err := sys.Load("events", h.ev.next(h.spec.events)); err != nil {
		return 0, err
	}
	if err := h.switchSet(h.spec.firstSet); err != nil {
		return 0, err
	}
	sys.Cluster().SetWireDelay(h.spec.wireDelay)
	h.srv = sys.Serve(cgdqp.ServeOptions{MaxConcurrent: serveConcurrency})
	for _, q := range h.warmup {
		if _, err := h.srv.Do(context.Background(), q.sql); err != nil {
			return 0, fmt.Errorf("warm-up %s: %w", q.name, err)
		}
	}
	return time.Since(t0), nil
}

// openSystem opens the workload's system configuration over a data
// directory (fresh, or one to recover).
func (h *harness) openSystem(dir string) (*cgdqp.System, error) {
	sys := cgdqp.NewSystemWith(cgdqp.Options{
		DataDir:          dir,
		Fsync:            false, // flush policy: no fsync, on every commit alike
		BufferPoolBytes:  h.spec.poolBytes,
		ResultCacheBytes: h.spec.resCacheBytes,
		Parallel:         true,
	})
	useTPCH(sys, h.spec.sf)
	if err := sys.DefineTable("events", "db-4", "L4", int64(h.spec.events),
		cgdqp.Col("ts", cgdqp.TInt), cgdqp.Col("kind", cgdqp.TString), cgdqp.Col("amount", cgdqp.TFloat)); err != nil {
		return nil, err
	}
	indexes := [][2]string{{"events", "ts"}}
	if h.spec.indexes {
		indexes = append(indexes, [2]string{"orders", "orderkey"}, [2]string{"lineitem", "orderkey"})
	}
	for _, ix := range indexes {
		if err := sys.DefineIndex(ix[0], ix[1]); err != nil {
			return nil, err
		}
	}
	return sys, sys.Open()
}

// teardown stops the server, closes the store and deletes its files.
func (h *harness) teardown() error {
	if h.srv != nil {
		h.srv.Close()
		h.srv = nil
	}
	var err error
	if h.sys != nil {
		err = h.sys.Close()
		h.sys = nil
	}
	if h.dir != "" {
		if rerr := os.RemoveAll(h.dir); err == nil {
			err = rerr
		}
		h.dir = ""
	}
	return err
}

// switchSet replaces the policy catalog through the public
// RemovePolicy/AddPolicy calls; every call bumps the policy epoch, so
// all cached plans and evaluator entries go stale.
func (h *harness) switchSet(set string) error {
	for _, id := range h.sys.PolicyIDs() {
		h.sys.RemovePolicy(id)
	}
	for _, src := range h.setTexts[set] {
		if err := h.sys.AddPolicy(src); err != nil {
			return fmt.Errorf("policy %q: %w", src, err)
		}
	}
	h.set = set
	return nil
}

// --- executing the sequence ----------------------------------------------

// runCycles executes whole cycles until the budget is spent (the cycle
// count nearest to it), or stops short after maxRounds rounds if that is
// not 0.
func (h *harness) runCycles(budget time.Duration, maxRounds int) error {
	start := time.Now()
	rounds := 0
	for c := 0; ; c++ {
		for _, r := range h.spec.cycle(h, c) {
			for _, seg := range r {
				if err := h.runSegment(seg); err != nil {
					return err
				}
			}
			if rounds++; rounds == maxRounds {
				return nil
			}
		}
		elapsed := time.Since(start)
		perCycle := elapsed / time.Duration(c+1)
		if elapsed+perCycle/2 >= budget {
			return nil
		}
	}
}

func (h *harness) runSegment(seg segment) error {
	results := make([]opResult, len(seg.ops))
	base := h.opSeq
	h.opSeq += len(seg.ops)
	for _, o := range seg.ops {
		h.oplog = append(h.oplog, o.String())
	}
	var m0, m1 runtime.MemStats
	pc0, st0 := h.sys.PlanCacheStats(), h.sys.Cluster().StoreStats()
	if seg.timed {
		runtime.ReadMemStats(&m0)
	}
	t0 := time.Now()
	if seg.clients <= 1 || h.tr != nil {
		for i, o := range seg.ops {
			results[i] = h.exec(o, base+i+1)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < seg.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(seg.ops) {
						return
					}
					results[i] = h.exec(seg.ops[i], base+i+1)
				}
			}()
		}
		wg.Wait()
	}
	wall := time.Since(t0)
	if seg.timed {
		runtime.ReadMemStats(&m1)
		h.wall += wall
		h.mallocs += m1.Mallocs - m0.Mallocs
		h.bytes += m1.TotalAlloc - m0.TotalAlloc
		pc1, st1 := h.sys.PlanCacheStats(), h.sys.Cluster().StoreStats()
		h.planHits += pc1.Hits - pc0.Hits
		h.planMisses += pc1.Misses - pc0.Misses
		h.poolHits += st1.Hits - st0.Hits
		h.poolMisses += st1.Misses - st0.Misses
		h.evictions += st1.Evictions - st0.Evictions
		h.writebacks += st1.Writebacks - st0.Writebacks
	}
	for i := range results {
		r := &results[i]
		r.timed = seg.timed
		h.verify(seg.ops[i], r)
		if !seg.timed && r.fault != "" {
			return fmt.Errorf("untimed %s: %s", seg.ops[i], r.fault)
		}
		if r.fault != "" {
			h.failures = append(h.failures, fmt.Sprintf("%s under %s: %s", seg.ops[i], r.set, r.fault))
		}
		h.samples = append(h.samples, r.sample)
	}
	return nil
}

// exec issues one op and times it. Inputs (appended rows, the SQL of an
// events query) are generated before the clock starts.
func (h *harness) exec(o op, id int) opResult {
	r := opResult{set: h.set}
	r.class = o.class
	switch o.kind {
	case opSwitch:
		root := h.tr.open(id, 0, "op", "harness")
		t0 := time.Now()
		r.err = h.switchSet(o.set)
		t1 := time.Now()
		h.tr.add(id, root, "policy.switch", "policy", t0, t1)
		h.tr.close(root)
		r.latencyMS = t1.Sub(t0).Seconds() * 1e3
	case opAppend:
		rows := h.ev.next(h.spec.appendRows)
		wal0 := walSize(h.dir)
		root := h.tr.open(id, 0, "op", "harness")
		t0 := time.Now()
		r.err = h.sys.Load("events", rows)
		t1 := time.Now()
		h.tr.add(id, root, "store.append", "store", t0, t1)
		h.tr.close(root)
		r.latencyMS = t1.Sub(t0).Seconds() * 1e3
		if d := walSize(h.dir) - wal0; d > 0 {
			h.walBytes += d
		}
		h.appendedBytes += rowsWidth(rows)
	case opQuery:
		r.query = true
		sql := o.q.sql
		if o.q.dyn != nil {
			var want []cgdqp.Row
			sql, want = o.q.dyn(h.ev)
			r.want = newReference(want)
		} else {
			r.want = h.oracle.refs[sql]
		}
		if h.tr != nil {
			t0 := time.Now()
			u, err := replayQuery(h.sys, sql, h.tr, id)
			r.latencyMS = time.Since(t0).Seconds() * 1e3
			r.err, r.u = err, u
			r.rows, r.shipped, r.shipCost, r.retries, r.cacheHit = u.rows, u.shipped, u.shipCost, u.retries, u.cacheHit
			r.class = h.outcomeClass(o, u.cacheHit)
			break
		}
		t0 := time.Now()
		resp, err := h.srv.Do(context.Background(), sql)
		r.latencyMS = time.Since(t0).Seconds() * 1e3
		r.err = err
		if err == nil {
			r.rows = resp.Rows
			r.shipped, r.shipCost, r.retries = resp.Stats.ShippedBytes, resp.Stats.ShipCost, resp.Stats.Retries
			r.cacheHit, r.coalesced = resp.CacheHit, resp.Coalesced
			r.queueMS = resp.QueueWait.Seconds() * 1e3
			r.class = h.outcomeClass(o, resp.CacheHit)
		}
	}
	return r
}

// outcomeClass splits the latency classes of a result-cached workload
// by what the cache did: a hit costs the same whatever the query, a miss
// costs what the query costs.
func (h *harness) outcomeClass(o op, hit bool) string {
	switch {
	case h.spec.resCacheBytes == 0:
		return o.class
	case hit:
		return "cache_hit"
	}
	return o.class + "_miss"
}

// verify decides whether an op's outcome is the expected one; anything
// else — an error, a refusal of a legal query, an answer to an illegal
// one, wrong rows — counts as a failure.
func (h *harness) verify(o op, r *opResult) {
	fail := func(format string, args ...any) { r.fault = fmt.Sprintf(format, args...) }
	switch o.kind {
	case opSwitch:
		if r.err != nil {
			fail("%v", r.err)
		} else if h.set == o.set && h.sys.Policies.Fingerprint() != h.setPrints[o.set] {
			fail("policy catalog after switching to %s does not match the hand-built set", o.set)
		}
	case opAppend:
		if r.err != nil {
			fail("%v", r.err)
		}
	case opQuery:
		legal := o.q.legal(r.set)
		switch {
		case r.err != nil && isRefusal(r.err) && !legal:
			// The Fig. 2 "legal?" gate refused what it must refuse.
		case r.err != nil:
			fail("%v", r.err)
		case !legal:
			fail("answered a query that set %s must refuse", r.set)
		case r.want == nil:
			fail("no reference for %s", o.q.name)
		default:
			if err := sameRows(r.rows, r.want); err != nil {
				fail("wrong answer under %s: %v", r.set, err)
			}
			if r.u != nil && r.u.violations > 0 {
				fail("executed plan has %d compliance violations", r.u.violations)
			}
		}
	}
	r.rows, r.want = nil, nil
	if r.u != nil {
		r.u.rows = nil // the sample keeps u; the answer has been checked
	}
}

// walSize sums the WAL files under a data directory.
func walSize(dir string) int64 {
	var total int64
	matches, _ := filepath.Glob(filepath.Join(dir, "*", "wal.log"))
	for _, m := range matches {
		if fi, err := os.Stat(m); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// --- end-to-end metrics --------------------------------------------------

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the user-visible metrics from the timed samples.
func (h *harness) endToEnd(setupS float64) (metrics map[string]metric, attempted, failed int) {
	var shipped, cost float64
	queries := 0
	for _, s := range h.samples {
		if !s.timed {
			continue
		}
		attempted++
		if s.fault != "" {
			failed++
		} else if s.query {
			queries++
			shipped += float64(s.shipped)
			cost += s.shipCost
		}
	}
	var medians, all []float64
	for _, lats := range classLatencies(h.samples) {
		medians = append(medians, median(lats))
		all = append(all, lats...)
	}
	ops := float64(attempted)
	metrics = map[string]metric{
		"setup_s":                 {setupS, "s"},
		"latency_geomean_ms":      {geomean(medians), "ms"},
		"latency_p95_ms":          {quantile(all, 0.95), "ms"},
		"queries_per_s":           {ratio(float64(attempted-failed), h.wall.Seconds()), "1/s"},
		"shipped_bytes_per_query": {ratio(shipped, float64(queries)), "B"},
		"ship_cost_per_query":     {ratio(cost, float64(queries)), "cost"},
		"allocs_per_query":        {ratio(float64(h.mallocs), ops), "count"},
		"alloc_mb_per_query":      {ratio(float64(h.bytes)/(1<<20), ops), "MB"},
	}
	return metrics, attempted, failed
}
