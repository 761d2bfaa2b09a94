// Command cgdqp is an interactive compliant geo-distributed SQL shell
// over the TPC-H deployment of the paper's evaluation: eight tables
// spread over five locations (Table 2) with a selectable policy set.
//
//	cgdqp -set CR -sf 0.001                      # interactive shell
//	cgdqp -set CR+A -q "SELECT ..."              # one-shot query
//	cgdqp -set T -explain -q "SELECT ..."        # plan only
//
// Inside the shell:
//
//	> SELECT c.name, SUM(o.totalprice) AS t FROM customer c, orders o
//	  WHERE c.custkey = o.custkey GROUP BY c.name LIMIT 5;
//	> \explain SELECT ...;
//	> \dot SELECT ...;  -- print the compliant plan as Graphviz
//	> \policies         -- list active policy expressions
//	> \analyze          -- recompute statistics from loaded data
//	> \quit
//
// Serving mode replays a mixed TPC-H workload through the concurrent
// query scheduler (admission control, weighted-fair per-site slots,
// shared-work batching) and reports throughput and latency:
//
//	cgdqp -serve -clients 16 -duration 10s            # closed loop
//	cgdqp -serve -qps 50 -workload Q3,Q5 -queue-depth 32
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cgdqp/internal/cluster"
	"cgdqp/internal/executor"
	"cgdqp/internal/expr"
	"cgdqp/internal/feedback"
	"cgdqp/internal/network"
	"cgdqp/internal/obs"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/plan"
	"cgdqp/internal/policy"
	"cgdqp/internal/rescache"
	"cgdqp/internal/sched"
	"cgdqp/internal/schema"
	"cgdqp/internal/tpch"
	"cgdqp/internal/workload"
)

// preloaded reports whether a persistent cluster reopened a data
// directory that already holds every fragment of every catalog table —
// in that case the TPC-H load is skipped (reloading would append
// duplicate rows).
func preloaded(cat *schema.Catalog, cl *cluster.Cluster) bool {
	if !cl.Persistent() {
		return false
	}
	for _, t := range cat.Tables() {
		n := len(t.Fragments)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			if !cl.FragmentLoaded(t, i) {
				return false
			}
		}
	}
	return true
}

// writeOut renders one observability artefact to path ("-" = stdout,
// "" = skip) at process exit.
func writeOut(path, what string, render func(io.Writer) error) {
	if path == "" {
		return
	}
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
			return
		}
		defer f.Close()
		w = f
	}
	if err := render(w); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
	}
}

func main() {
	setName := flag.String("set", "CR", "policy set: T, C, CR, CR+A, open (unrestricted)")
	sf := flag.Float64("sf", 0.001, "TPC-H scale factor for loaded data")
	query := flag.String("q", "", "run one query and exit")
	explainOnly := flag.Bool("explain", false, "print the plan without executing")
	resultLoc := flag.String("at", "", "pin the result location (L1..L5)")
	parallel := flag.Bool("parallel", false, "run each SHIP's producing fragment on its own goroutine")
	chaosSeed := flag.Int64("chaos-seed", 0, "inject deterministic WAN faults under this seed (0 = off); the same seed replays the same failures")
	chaosDrop := flag.Float64("chaos-drop", 0.05, "per-batch drop probability under -chaos-seed")
	chaosError := flag.Float64("chaos-error", 0.05, "per-send transient-error probability under -chaos-seed")
	chaosDelay := flag.Float64("chaos-delay", 0.10, "per-send delay probability under -chaos-seed")
	planCache := flag.Int("plan-cache", optimizer.DefaultPlanCacheSize, "optimized-plan LRU cache size (0 = off); repeated queries skip optimization")
	resultCache := flag.Int64("result-cache", 64<<20, "result-set cache budget in bytes (0 = off); repeated queries are served from cached results while their tables and policies are unchanged")
	explainAnalyze := flag.Bool("explain-analyze", false, "execute and print the plan annotated with per-operator actual rows/batches/time")
	metricsOut := flag.String("metrics-out", "", "write Prometheus-text metrics to this file at exit (- for stdout)")
	traceOut := flag.String("trace-out", "", "write query-lifecycle spans as JSON to this file at exit (- for stdout)")
	auditOut := flag.String("audit-out", "", "write the compliance audit log of cross-site shipments to this file at exit (- for stdout)")
	serve := flag.Bool("serve", false, "replay a TPC-H workload through the concurrent query scheduler and report throughput/latency")
	workloadMix := flag.String("workload", "mixed", "serving mode query mix: comma-separated TPC-H names (Q3,Q5,...) or 'mixed' for all")
	qps := flag.Float64("qps", 0, "serving mode target submission rate across all clients (0 = closed loop)")
	clients := flag.Int("clients", 8, "serving mode concurrent client goroutines")
	duration := flag.Duration("duration", 10*time.Second, "serving mode run length")
	maxConcurrent := flag.Int("max-concurrent", sched.DefaultMaxConcurrent, "serving mode: queries executing simultaneously")
	queueDepth := flag.Int("queue-depth", sched.DefaultQueueDepth, "serving mode: admission queue bound (overload beyond it is rejected)")
	siteSlots := flag.Int("site-slots", 0, "serving mode: per-site fragment-pipeline slots (0 = 2x max-concurrent)")
	queryTimeout := flag.Duration("query-timeout", 0, "serving mode: per-query deadline from admission (0 = none)")
	feedbackOn := flag.Bool("feedback", false, "record per-operator actuals from every execution and let the optimizer cost with observed cardinalities (continuous wire calibration included)")
	slowLogPath := flag.String("slow-query-log", "", "append one JSON line per slow query to this file (- for stdout)")
	slowThreshold := flag.Duration("slow-query-threshold", 100*time.Millisecond, "latency floor for -slow-query-log (0 logs every query)")
	sloTarget := flag.Duration("slo-target", 0, "serving mode: adaptively tune max-concurrent/queue-depth against this e2e p99 target (0 = static limits)")
	obsAddr := flag.String("obs-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :9090)")
	dataDir := flag.String("data-dir", "", "persist per-site table data under this directory with the paged storage engine (empty = in-memory); reopening a populated directory recovers from the WAL and skips the TPC-H load")
	bufferPool := flag.Int64("buffer-pool", 0, "persistent-store buffer pool budget in bytes (0 = 64 MiB default); also feeds the optimizer's index access-path costing")
	flag.Parse()

	var obsv *obs.Observer
	if *metricsOut != "" || *traceOut != "" || *auditOut != "" || *explainAnalyze || *obsAddr != "" {
		obsv = &obs.Observer{}
		if *traceOut != "" {
			obsv.Tracer = obs.NewTracer()
		}
		if *metricsOut != "" || *obsAddr != "" {
			obsv.Metrics = obs.NewRegistry()
		}
		if *auditOut != "" {
			obsv.Audit = obs.NewAuditLog()
		}
	}
	if *obsAddr != "" {
		hs, err := obs.ServeHTTP(*obsAddr, obsv.Metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "obs-addr: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "observability listener on http://%s (/metrics, /debug/vars, /debug/pprof)\n", hs.Addr())
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = hs.Shutdown(ctx)
		}()
	}
	defer func() {
		writeOut(*metricsOut, "metrics", func(w io.Writer) error { return obsv.Metrics.WritePrometheus(w) })
		writeOut(*traceOut, "trace", func(w io.Writer) error { return obsv.Tracer.WriteJSON(w) })
		writeOut(*auditOut, "audit", func(w io.Writer) error { return obsv.Audit.WriteText(w) })
	}()

	var pc *policy.Catalog
	switch strings.ToUpper(*setName) {
	case "T":
		pc = workload.TPCHSet(workload.SetT)
	case "C":
		pc = workload.TPCHSet(workload.SetC)
	case "CR":
		pc = workload.TPCHSet(workload.SetCR)
	case "CR+A", "CRA":
		pc = workload.TPCHSet(workload.SetCRA)
	case "OPEN":
		pc = workload.UnrestrictedSet()
	default:
		fmt.Fprintf(os.Stderr, "unknown policy set %q\n", *setName)
		os.Exit(2)
	}

	cat := tpch.NewCatalog(*sf)
	net := network.FiveRegionWAN(cat.Locations())
	var cl *cluster.Cluster
	if *dataDir != "" {
		var err error
		cl, err = cluster.NewWithStore(cat, net, &cluster.StoreConfig{
			DataDir:         *dataDir,
			BufferPoolBytes: *bufferPool,
			Fsync:           true,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "data-dir: %v\n", err)
			os.Exit(1)
		}
		defer cl.Close()
	} else {
		cl = cluster.New(cat, net)
	}
	if preloaded(cat, cl) {
		fmt.Fprintf(os.Stderr, "reopened persistent TPC-H data in %s (load skipped)\n", *dataDir)
	} else {
		fmt.Fprintf(os.Stderr, "loading TPC-H data at SF %g over L1..L5 ...\n", *sf)
		if err := tpch.Generate(cat, cl); err != nil {
			fmt.Fprintf(os.Stderr, "load: %v\n", err)
			os.Exit(1)
		}
	}
	if *chaosSeed != 0 {
		faults := network.NewFaultPlan(*chaosSeed).SetDefault(network.EdgeFaults{
			DropProb:      *chaosDrop,
			TransientProb: *chaosError,
			DelayProb:     *chaosDelay,
			DelayMS:       50,
		})
		cl.SetFaults(faults)
		fmt.Fprintf(os.Stderr, "chaos: injecting WAN faults (seed %d, drop %.0f%%, error %.0f%%, delay %.0f%%; retry %d attempts)\n",
			*chaosSeed, *chaosDrop*100, *chaosError*100, *chaosDelay*100, cl.Retry().Attempts())
	}
	cl.SetObserver(obsv)
	opt := optimizer.New(cat, pc, net, optimizer.Options{
		Compliant:      true,
		ResultLocation: *resultLoc,
		PlanCacheSize:  *planCache,
		PoolBytes:      *bufferPool,
	})
	opt.SetObserver(obsv)

	var fb *feedback.Store
	if *feedbackOn {
		fb = feedback.NewStore(feedback.Options{})
		if obsv != nil {
			fb.SetMetrics(obsv.Metrics)
		}
		opt.SetFeedback(fb)
		cl.SetCalibrator(fb.Calibrator())
		fb.ArmCalibration(net, 0)
	}
	var slowLog *feedback.SlowQueryLog
	if *slowLogPath != "" {
		w := io.Writer(os.Stdout)
		if *slowLogPath != "-" {
			f, err := os.OpenFile(*slowLogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintf(os.Stderr, "slow-query-log: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		slowLog = feedback.NewSlowQueryLog(w, *slowThreshold)
	}

	// Result-set cache: repeated queries are served from whole cached
	// results while every consumed table's data epoch is unchanged (the
	// CLI policy set is fixed, so the policy epoch never moves; Recheck
	// still guards against stale provenance defensively).
	var rcache *rescache.Cache
	var rcView rescache.View
	if *resultCache > 0 {
		rcache = rescache.New(*resultCache)
		if obsv != nil {
			rcache.SetMetrics(obsv.Metrics)
		}
		rcView = rescache.View{
			DataEpoch:   cl.DataEpoch,
			PolicyEpoch: func() uint64 { return 0 },
			Recheck:     func(p *plan.Node) bool { return len(opt.Check(p)) == 0 },
		}
	}

	runOne := func(sql string) {
		res, err := opt.OptimizeSQL(sql)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return
		}
		if !*explainAnalyze {
			fmt.Println(res.Plan.Format(true))
		}
		if *explainOnly {
			cacheNote := ""
			if res.Stats.PlanCacheHit {
				cacheNote = " [plan cache hit]"
			} else if pcs := opt.PlanCacheStats(); pcs.Hits+pcs.Misses > 0 {
				cacheNote = fmt.Sprintf(" [plan cache %d/%d hits]", pcs.Hits, pcs.Hits+pcs.Misses)
			}
			fmt.Printf("-- optimization: %v, estimated ship cost: %.2f ms; η=%d, 𝒜 calls=%d (cache hits %d)%s\n",
				res.Stats.TotalTime, res.ShipCost,
				res.Stats.Eta, res.Stats.ACalls, res.Stats.AHits, cacheNote)
			return
		}
		printResult := func(rows []expr.Row, stats executor.RunStats, cached bool) {
			for i, r := range rows {
				if i >= 25 {
					fmt.Printf("... (%d rows total)\n", len(rows))
					break
				}
				parts := make([]string, len(r))
				for j, v := range r {
					parts[j] = v.String()
				}
				fmt.Println(strings.Join(parts, " | "))
			}
			retryNote := ""
			if stats.Retries > 0 {
				retryNote = fmt.Sprintf("; %d send attempt(s) retried", stats.Retries)
			}
			cacheNote := ""
			if cached {
				cacheNote = " [result cache hit]"
			}
			fmt.Printf("-- %d rows; shipped %d bytes across borders (%.2f ms simulated)%s%s\n",
				stats.RowsOut, stats.ShippedBytes, stats.ShipCost, retryNote, cacheNote)
		}
		var fill *rescache.Fill
		if rcache != nil && !*explainAnalyze {
			hitStart := time.Now()
			fill = rescache.Prepare(res.Plan, "", rcView)
			if r, ok := rcache.Get(fill.Key, rcView); ok {
				if sink := obsv.AuditSink(); sink != nil {
					for _, rec := range r.Audit {
						sink.Record(rec)
					}
				}
				if fb != nil || slowLog != nil {
					// Hits replay the filling run's statistics; there is no
					// execution, so no per-operator q-errors.
					lat := time.Since(hitStart)
					fb.ObserveQuery(lat.Seconds())
					engine := "seq"
					if *parallel {
						engine = "par"
					}
					slowLog.Maybe(lat, feedback.QueryRecord{
						SQLDigest:  feedback.SQLDigest(sql),
						PlanDigest: feedback.ShortDigest(res.Plan.Digest()),
						RowsOut:    r.Stats.RowsOut,
						ShipBytes:  r.Stats.ShippedBytes,
						ShipCostMS: r.Stats.ShipCost,
						Retries:    r.Stats.Retries,
						Cache:      feedback.CacheHit,
						Engine:     engine,
					})
				}
				printResult(r.Rows, r.Stats, true)
				return
			}
		}
		qo := obsv
		if *explainAnalyze || fb != nil || slowLog != nil {
			qo = qo.WithProfile(obs.NewPlanProfile())
		}
		var capture *obs.AuditLog
		if fill != nil && obsv.AuditSink() != nil {
			capture = obs.NewAuditLog()
			qo = qo.WithAudit(capture)
		}
		var rows []expr.Row
		var stats *executor.RunStats
		execStart := time.Now()
		if *parallel {
			rows, stats, err = executor.RunParallelOpts(context.Background(), res.Plan, cl, qo, executor.ExecOptions{})
		} else {
			rows, stats, err = executor.RunObservedOpts(context.Background(), res.Plan, cl, qo, executor.ExecOptions{})
		}
		execLat := time.Since(execStart)
		if *explainAnalyze {
			fmt.Println(qo.Prof().Format(res.Plan))
		}
		if err == nil && (fb != nil || slowLog != nil) {
			qerrs := feedback.RecordExecution(fb, res.Plan, qo.Prof())
			fb.ObserveQuery(execLat.Seconds())
			engine := "seq"
			if *parallel {
				engine = "par"
			}
			disp := feedback.CacheOff
			if fill != nil {
				disp = feedback.CacheMiss
			}
			slowLog.Maybe(execLat, feedback.QueryRecord{
				SQLDigest:  feedback.SQLDigest(sql),
				PlanDigest: feedback.ShortDigest(res.Plan.Digest()),
				RowsOut:    stats.RowsOut,
				ShipBytes:  stats.ShippedBytes,
				ShipCostMS: stats.ShipCost,
				Retries:    stats.Retries,
				Cache:      disp,
				Engine:     engine,
				QErrors:    qerrs,
			})
		}
		if err != nil {
			var shipErr *network.ShipError
			if errors.As(err, &shipErr) {
				fmt.Fprintf(os.Stderr, "shipping failure: %v\n", shipErr)
			} else {
				fmt.Fprintf(os.Stderr, "execution error: %v\n", err)
			}
			return
		}
		if fill != nil {
			var recs []obs.AuditRecord
			if capture != nil {
				recs = capture.Records()
				sink := obsv.AuditSink()
				for _, rec := range recs {
					sink.Record(rec)
				}
			}
			cols := make([]string, len(res.Plan.Cols))
			for i, c := range res.Plan.Cols {
				cols[i] = c.Name
			}
			rcache.Put(fill, rows, cols, *stats, recs, res.ShipCost)
		}
		printResult(rows, *stats, false)
	}

	if *serve {
		runServe(opt, cl, obsv, serveConfig{
			mix:      *workloadMix,
			qps:      *qps,
			clients:  *clients,
			duration: *duration,
			opts: sched.Options{
				MaxConcurrent: *maxConcurrent, QueueDepth: *queueDepth,
				SiteSlots: *siteSlots, QueryTimeout: *queryTimeout,
				ResultCache: rcache, CacheView: rcView,
				SLOTarget: *sloTarget, Feedback: fb, SlowLog: slowLog,
			},
		})
		return
	}

	if *query != "" {
		runOne(*query)
		return
	}

	fmt.Println("compliant geo-distributed SQL shell — \\policies, \\explain <sql>, \\quit")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() { fmt.Print("> ") }
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == `\quit` || trimmed == `\q`:
			return
		case trimmed == `\policies`:
			for _, db := range pc.Databases() {
				for _, e := range pc.ForDB(db) {
					fmt.Printf("  [%s] %s\n", e.ID, e)
				}
			}
			prompt()
			continue
		case strings.HasPrefix(trimmed, `\explain `):
			was := *explainOnly
			*explainOnly = true
			runOne(strings.TrimSuffix(strings.TrimPrefix(trimmed, `\explain `), ";"))
			*explainOnly = was
			prompt()
			continue
		case strings.HasPrefix(trimmed, `\dot `):
			sql := strings.TrimSuffix(strings.TrimPrefix(trimmed, `\dot `), ";")
			if res, err := opt.OptimizeSQL(sql); err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
			} else {
				fmt.Println(res.Plan.Dot())
			}
			prompt()
			continue
		case trimmed == `\analyze`:
			if err := cl.AnalyzeAll(cat); err != nil {
				fmt.Fprintf(os.Stderr, "analyze: %v\n", err)
			} else {
				fmt.Println("statistics recomputed from loaded data")
				opt = optimizer.New(cat, pc, net, optimizer.Options{
					Compliant:      true,
					ResultLocation: *resultLoc,
					PlanCacheSize:  *planCache,
					PoolBytes:      *bufferPool,
				})
				opt.SetObserver(obsv)
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.Contains(line, ";") {
			sql := strings.TrimSuffix(strings.TrimSpace(buf.String()), ";")
			buf.Reset()
			if sql != "" {
				runOne(sql)
			}
			prompt()
		}
	}
}

// serveConfig parameterizes the serving-mode workload driver.
type serveConfig struct {
	mix      string
	qps      float64
	clients  int
	duration time.Duration
	opts     sched.Options
}

// runServe replays a mixed TPC-H workload through the concurrent query
// scheduler: `clients` goroutines submit queries round-robin from the
// mix — paced at an aggregate `qps` when set, back-to-back otherwise —
// for `duration`, then the admission counters and the completed-query
// latency distribution are reported.
func runServe(opt *optimizer.Optimizer, cl *cluster.Cluster, obsv *obs.Observer, cfg serveConfig) {
	var names []string
	if strings.EqualFold(cfg.mix, "mixed") || cfg.mix == "" {
		names = tpch.QueryNames()
	} else {
		for _, n := range strings.Split(cfg.mix, ",") {
			n = strings.TrimSpace(strings.ToUpper(n))
			if _, ok := tpch.Queries[n]; !ok {
				fmt.Fprintf(os.Stderr, "unknown workload query %q (have %s)\n", n, strings.Join(tpch.QueryNames(), ", "))
				os.Exit(2)
			}
			names = append(names, n)
		}
	}
	if cfg.clients <= 0 {
		cfg.clients = 1
	}

	srv := sched.NewServer(opt, cl, obsv, cfg.opts)
	pace := ""
	if cfg.qps > 0 {
		pace = fmt.Sprintf(" at %.0f qps", cfg.qps)
	}
	fmt.Fprintf(os.Stderr, "serving mix [%s] with %d clients%s for %v (max-concurrent %d, queue-depth %d)\n",
		strings.Join(names, " "), cfg.clients, pace, cfg.duration,
		cfg.opts.MaxConcurrent, cfg.opts.QueueDepth)

	var (
		mu        sync.Mutex
		lats      []time.Duration
		nextQuery atomic.Int64
		rejected  atomic.Int64
		failed    atomic.Int64
	)
	// Open-loop pacing: one shared ticker feeds submission slots so the
	// aggregate rate holds regardless of client count.
	var slots chan struct{}
	deadline := time.Now().Add(cfg.duration)
	stop := make(chan struct{})
	if cfg.qps > 0 {
		slots = make(chan struct{}, cfg.clients)
		go func() {
			tick := time.NewTicker(time.Duration(float64(time.Second) / cfg.qps))
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					select {
					case slots <- struct{}{}:
					default: // all clients busy: shed the slot
					}
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if slots != nil {
					select {
					case <-slots:
					case <-stop:
						return
					}
				}
				name := names[int(nextQuery.Add(1)-1)%len(names)]
				resp, err := srv.Do(context.Background(), tpch.Queries[name])
				switch {
				case err == nil:
					mu.Lock()
					lats = append(lats, resp.Total)
					mu.Unlock()
				case errors.Is(err, sched.ErrQueueFull):
					rejected.Add(1)
				default:
					failed.Add(1)
					fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
				}
			}
		}()
	}
	start := time.Now()
	wg.Wait()
	close(stop)
	srv.Close()
	elapsed := time.Since(start)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)-1))
		return lats[i]
	}
	c := srv.Counters()
	fmt.Printf("completed %d queries in %v (%.1f q/s); rejected %d (queue full), failed %d, cancelled %d, coalesced %d; executed %d, result-cache hits %d (+%d coalesced executions)\n",
		len(lats), elapsed.Round(time.Millisecond), float64(len(lats))/elapsed.Seconds(),
		rejected.Load(), failed.Load(), c.Cancelled, c.Coalesced,
		c.Executed, c.ResultCacheHits, c.ExecCoalesced)
	fmt.Printf("latency p50 %v  p99 %v  max %v\n",
		pct(0.50).Round(time.Microsecond), pct(0.99).Round(time.Microsecond), pct(1.0).Round(time.Microsecond))
	if cfg.opts.SLOTarget > 0 {
		em, eq := srv.Tuning()
		fmt.Printf("adaptive admission: effective max-concurrent %d, queue-depth %d (SLO target %v)\n",
			em, eq, cfg.opts.SLOTarget)
	}
}
