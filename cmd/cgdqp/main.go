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
// query scheduler (admission control, a worker pool, shared-work
// batching) and reports throughput and latency:
//
//	cgdqp -serve -clients 16 -duration 10s            # closed loop
//	cgdqp -serve -qps 50 -workload Q3,Q5 -queue-depth 32
//
// The command is a client of the public cgdqp facade: every statement
// runs through System.Query / Explain / ExplainAnalyze or a Server from
// System.Serve, exactly as an embedding application's would.
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

	"cgdqp"
	"cgdqp/internal/obs"
	"cgdqp/internal/tpch"
	"cgdqp/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// shell is one CLI session over a loaded TPC-H system.
type shell struct {
	sys            *cgdqp.System
	out, errw      io.Writer
	explainAnalyze bool
}

// writeOut renders one observability artefact to path ("-" = stdout,
// "" = skip) at exit.
func (sh *shell) writeOut(path, what string, render func(io.Writer) error) {
	if path == "" {
		return
	}
	w := sh.out
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(sh.errw, "%s: %v\n", what, err)
			return
		}
		defer f.Close()
		w = f
	}
	if err := render(w); err != nil {
		fmt.Fprintf(sh.errw, "%s: %v\n", what, err)
	}
}

// run is the whole command: it parses args, loads (or reopens) the
// TPC-H deployment and runs the one-shot query, the serving replay or
// the interactive shell, returning the process exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cgdqp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	setName := fs.String("set", "CR", "policy set: T, C, CR, CR+A, open (unrestricted)")
	sf := fs.Float64("sf", 0.001, "TPC-H scale factor for loaded data")
	query := fs.String("q", "", "run one query and exit")
	explainOnly := fs.Bool("explain", false, "print the plan without executing")
	resultLoc := fs.String("at", "", "pin the result location (L1..L5)")
	parallel := fs.Bool("parallel", false, "run each SHIP's producing fragment on its own goroutine")
	chaosSeed := fs.Int64("chaos-seed", 0, "inject deterministic WAN faults under this seed (0 = off); the same seed replays the same failures")
	chaosDrop := fs.Float64("chaos-drop", 0.05, "per-batch drop probability under -chaos-seed")
	chaosError := fs.Float64("chaos-error", 0.05, "per-send transient-error probability under -chaos-seed")
	chaosDelay := fs.Float64("chaos-delay", 0.10, "per-send delay probability under -chaos-seed")
	planCache := fs.Int("plan-cache", cgdqp.DefaultPlanCacheSize, "optimized-plan LRU cache size (0 = off); repeated queries skip optimization")
	resultCache := fs.Int64("result-cache", 64<<20, "result-set cache budget in bytes (0 = off); repeated queries are served from cached results while their tables and policies are unchanged")
	explainAnalyze := fs.Bool("explain-analyze", false, "execute and print the plan annotated with per-operator actual rows/batches/time")
	metricsOut := fs.String("metrics-out", "", "write Prometheus-text metrics to this file at exit (- for stdout)")
	traceOut := fs.String("trace-out", "", "write query-lifecycle spans as JSON to this file at exit (- for stdout)")
	auditOut := fs.String("audit-out", "", "write the compliance audit log of cross-site shipments to this file at exit (- for stdout)")
	serve := fs.Bool("serve", false, "replay a TPC-H workload through the concurrent query scheduler and report throughput/latency")
	workloadMix := fs.String("workload", "mixed", "serving mode query mix: comma-separated TPC-H names (Q3,Q5,...) or 'mixed' for all")
	qps := fs.Float64("qps", 0, "serving mode target submission rate across all clients (0 = closed loop)")
	clients := fs.Int("clients", 8, "serving mode concurrent client goroutines")
	duration := fs.Duration("duration", 10*time.Second, "serving mode run length")
	maxConcurrent := fs.Int("max-concurrent", cgdqp.DefaultMaxConcurrent, "serving mode: queries executing simultaneously")
	queueDepth := fs.Int("queue-depth", cgdqp.DefaultQueueDepth, "serving mode: admission queue bound (overload beyond it is rejected)")
	queryTimeout := fs.Duration("query-timeout", 0, "serving mode: per-query deadline from admission (0 = none)")
	feedbackOn := fs.Bool("feedback", false, "record per-operator actuals from every execution and let the optimizer cost with observed cardinalities (continuous wire calibration included)")
	slowLogPath := fs.String("slow-query-log", "", "append one JSON line per slow query to this file (- for stdout)")
	slowThreshold := fs.Duration("slow-query-threshold", 100*time.Millisecond, "latency floor for -slow-query-log (0 logs every query)")
	obsAddr := fs.String("obs-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :9090)")
	dataDir := fs.String("data-dir", "", "persist per-site table data under this directory with the paged storage engine (empty = in-memory); reopening a populated directory recovers from the WAL and skips the TPC-H load")
	bufferPool := fs.Int64("buffer-pool", 0, "persistent-store buffer pool budget in bytes (0 = 64 MiB default); also feeds the optimizer's index access-path costing")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	opts := cgdqp.Options{
		ResultLocation:     *resultLoc,
		Parallel:           *parallel,
		PlanCacheSize:      *planCache,
		ResultCacheBytes:   *resultCache,
		Trace:              *traceOut != "",
		Metrics:            *metricsOut != "" || *obsAddr != "",
		Audit:              *auditOut != "",
		Feedback:           *feedbackOn,
		SlowQueryThreshold: *slowThreshold,
		DataDir:            *dataDir,
		BufferPoolBytes:    *bufferPool,
		Fsync:              true,
	}
	if *planCache <= 0 {
		opts.PlanCacheSize = -1 // the flag's 0 means off; the option's 0 means default
	}
	if *chaosSeed != 0 {
		opts.Faults = cgdqp.NewFaultPlan(*chaosSeed).SetDefault(cgdqp.EdgeFaults{
			DropProb:      *chaosDrop,
			TransientProb: *chaosError,
			DelayProb:     *chaosDelay,
			DelayMS:       50,
		})
	}
	if *slowLogPath == "-" {
		opts.SlowQueryLog = stdout
	} else if *slowLogPath != "" {
		f, err := os.OpenFile(*slowLogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(stderr, "slow-query-log: %v\n", err)
			return 1
		}
		defer f.Close()
		opts.SlowQueryLog = f
	}

	sys := cgdqp.NewSystemWith(opts)
	sh := &shell{sys: sys, out: stdout, errw: stderr, explainAnalyze: *explainAnalyze}
	if *obsAddr != "" {
		hs, err := obs.ServeHTTP(*obsAddr, sys.Metrics())
		if err != nil {
			fmt.Fprintf(stderr, "obs-addr: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "observability listener on http://%s (/metrics, /debug/vars, /debug/pprof)\n", hs.Addr())
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = hs.Shutdown(ctx)
		}()
	}
	defer func() {
		sh.writeOut(*metricsOut, "metrics", sys.Metrics().WritePrometheus)
		sh.writeOut(*traceOut, "trace", sys.Tracer().WriteJSON)
		sh.writeOut(*auditOut, "audit", sys.AuditLog().WriteText)
	}()

	switch set := strings.ToUpper(*setName); set {
	case "T", "C", "CR", "CR+A":
		sys.Policies = workload.TPCHSet(workload.SetName(set))
	case "CRA":
		sys.Policies = workload.TPCHSet(workload.SetCRA)
	case "OPEN":
		sys.Policies = workload.UnrestrictedSet()
	default:
		fmt.Fprintf(stderr, "unknown policy set %q\n", *setName)
		return 2
	}

	sys.Schema = tpch.NewCatalog(*sf)
	if err := sys.Open(); err != nil {
		fmt.Fprintf(stderr, "data-dir: %v\n", err)
		return 1
	}
	defer func() {
		if err := sys.Close(); err != nil {
			fmt.Fprintf(stderr, "close: %v\n", err)
		}
	}()
	// A reopened data directory that already holds every table skips the
	// load (reloading would append duplicate rows).
	preloaded := true
	for _, t := range sys.Schema.Tables() {
		preloaded = preloaded && sys.Loaded(t.Name)
	}
	if preloaded {
		fmt.Fprintf(stderr, "reopened persistent TPC-H data in %s (load skipped)\n", *dataDir)
	} else {
		fmt.Fprintf(stderr, "loading TPC-H data at SF %g over L1..L5 ...\n", *sf)
		if err := tpch.Generate(sys.Schema, sys.Cluster()); err != nil {
			fmt.Fprintf(stderr, "load: %v\n", err)
			return 1
		}
	}
	if *chaosSeed != 0 {
		fmt.Fprintf(stderr, "chaos: injecting WAN faults (seed %d, drop %.0f%%, error %.0f%%, delay %.0f%%; retry %d attempts)\n",
			*chaosSeed, *chaosDrop*100, *chaosError*100, *chaosDelay*100, sys.Cluster().Retry().Attempts())
	}

	if *serve {
		return sh.runServe(*workloadMix, *qps, *clients, *duration, cgdqp.ServeOptions{
			MaxConcurrent: *maxConcurrent, QueueDepth: *queueDepth, QueryTimeout: *queryTimeout,
		})
	}

	if *query != "" {
		if !sh.runOne(*query, *explainOnly) {
			return 1
		}
		return 0
	}

	fmt.Fprintln(stdout, "compliant geo-distributed SQL shell — \\policies, \\explain <sql>, \\quit")
	scanner := bufio.NewScanner(stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() { fmt.Fprint(stdout, "> ") }
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == `\quit` || trimmed == `\q`:
			return 0
		case trimmed == `\policies`:
			for _, db := range sys.Policies.Databases() {
				for _, e := range sys.Policies.ForDB(db) {
					fmt.Fprintf(stdout, "  [%s] %s\n", e.ID, e)
				}
			}
		case strings.HasPrefix(trimmed, `\explain `):
			sh.runOne(strings.TrimSuffix(strings.TrimPrefix(trimmed, `\explain `), ";"), true)
		case strings.HasPrefix(trimmed, `\dot `):
			sql := strings.TrimSuffix(strings.TrimPrefix(trimmed, `\dot `), ";")
			if p, err := sys.Explain(sql); err != nil {
				fmt.Fprintf(stderr, "error: %v\n", err)
			} else {
				fmt.Fprintln(stdout, p.Dot())
			}
		case trimmed == `\analyze`:
			if err := sys.Analyze(); err != nil {
				fmt.Fprintf(stderr, "analyze: %v\n", err)
			} else {
				fmt.Fprintln(stdout, "statistics recomputed from loaded data")
			}
		default:
			buf.WriteString(line)
			buf.WriteByte('\n')
			if !strings.Contains(line, ";") {
				continue // statement still open: no prompt
			}
			sql := strings.TrimSuffix(strings.TrimSpace(buf.String()), ";")
			buf.Reset()
			if sql != "" {
				sh.runOne(sql, *explainOnly)
			}
		}
		prompt()
	}
	return 0
}

// runOne plans (and, unless explainOnly, executes) one statement and
// prints the plan, the rows and the shipping footer. It reports whether
// the statement succeeded; a failure has been written to stderr.
func (sh *shell) runOne(sql string, explainOnly bool) bool {
	if explainOnly {
		p, err := sh.sys.Explain(sql)
		if err != nil {
			fmt.Fprintf(sh.errw, "error: %v\n", err)
			return false
		}
		if !sh.explainAnalyze {
			fmt.Fprintln(sh.out, p)
		}
		cacheNote := ""
		if p.Stats.PlanCacheHit {
			cacheNote = " [plan cache hit]"
		} else if pcs := sh.sys.PlanCacheStats(); pcs.Hits+pcs.Misses > 0 {
			cacheNote = fmt.Sprintf(" [plan cache %d/%d hits]", pcs.Hits, pcs.Hits+pcs.Misses)
		}
		fmt.Fprintf(sh.out, "-- optimization: %v, estimated ship cost: %.2f ms; η=%d, 𝒜 calls=%d (cache hits %d)%s\n",
			p.Stats.TotalTime, p.EstShipCost,
			p.Stats.Eta, p.Stats.ACalls, p.Stats.AHits, cacheNote)
		return true
	}
	var res *cgdqp.Result
	var analyzed string
	var err error
	if sh.explainAnalyze {
		res, analyzed, err = sh.sys.ExplainAnalyze(sql)
	} else {
		res, err = sh.sys.Query(sql)
	}
	if err != nil {
		var shipErr *cgdqp.ShipError
		if errors.As(err, &shipErr) {
			fmt.Fprintf(sh.errw, "shipping failure: %v\n", shipErr)
		} else {
			fmt.Fprintf(sh.errw, "error: %v\n", err)
		}
		return false
	}
	if sh.explainAnalyze {
		fmt.Fprintln(sh.out, analyzed)
	} else {
		fmt.Fprintln(sh.out, res.Plan)
	}
	for i, r := range res.Rows {
		if i >= 25 {
			fmt.Fprintf(sh.out, "... (%d rows total)\n", len(res.Rows))
			break
		}
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		fmt.Fprintln(sh.out, strings.Join(parts, " | "))
	}
	retryNote := ""
	if res.Retries > 0 {
		retryNote = fmt.Sprintf("; %d send attempt(s) retried", res.Retries)
	}
	cacheNote := ""
	if res.Cached {
		cacheNote = " [result cache hit]"
	}
	fmt.Fprintf(sh.out, "-- %d rows; shipped %d bytes across borders (%.2f ms simulated)%s%s\n",
		len(res.Rows), res.ShippedBytes, res.ShipCost, retryNote, cacheNote)
	return true
}

// runServe replays a mixed TPC-H workload through the concurrent query
// scheduler: `clients` goroutines submit queries round-robin from the
// mix — paced at an aggregate `qps` when set, back-to-back otherwise —
// for `duration`, then the admission counters and the completed-query
// latency distribution are reported.
func (sh *shell) runServe(mix string, qps float64, clients int, duration time.Duration, opts cgdqp.ServeOptions) int {
	var names []string
	if strings.EqualFold(mix, "mixed") || mix == "" {
		names = tpch.QueryNames()
	} else {
		for _, n := range strings.Split(mix, ",") {
			n = strings.TrimSpace(strings.ToUpper(n))
			if _, ok := tpch.Queries[n]; !ok {
				fmt.Fprintf(sh.errw, "unknown workload query %q (have %s)\n", n, strings.Join(tpch.QueryNames(), ", "))
				return 2
			}
			names = append(names, n)
		}
	}
	if clients <= 0 {
		clients = 1
	}

	srv := sh.sys.Serve(opts)
	pace := ""
	if qps > 0 {
		pace = fmt.Sprintf(" at %.0f qps", qps)
	}
	fmt.Fprintf(sh.errw, "serving mix [%s] with %d clients%s for %v (max-concurrent %d, queue-depth %d)\n",
		strings.Join(names, " "), clients, pace, duration,
		opts.MaxConcurrent, opts.QueueDepth)

	var (
		mu        sync.Mutex
		lats      []time.Duration
		nextQuery atomic.Int64
		failed    atomic.Int64
	)
	// Open-loop pacing: one shared ticker feeds submission slots so the
	// aggregate rate holds regardless of client count.
	var slots chan struct{}
	deadline := time.Now().Add(duration)
	stop := make(chan struct{})
	if qps > 0 {
		slots = make(chan struct{}, clients)
		go func() {
			tick := time.NewTicker(time.Duration(float64(time.Second) / qps))
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
	for c := 0; c < clients; c++ {
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
				case errors.Is(err, cgdqp.ErrQueueFull): // counted by the server
				default:
					failed.Add(1)
					fmt.Fprintf(sh.errw, "%s: %v\n", name, err)
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
	fmt.Fprintf(sh.out, "completed %d queries in %v (%.1f q/s); rejected %d (queue full), failed %d, cancelled %d, coalesced %d; executed %d, result-cache hits %d (+%d coalesced executions)\n",
		len(lats), elapsed.Round(time.Millisecond), float64(len(lats))/elapsed.Seconds(),
		c.RejectedQueueFull, failed.Load(), c.Cancelled, c.Coalesced,
		c.Executed, c.ResultCacheHits, c.ExecCoalesced)
	fmt.Fprintf(sh.out, "latency p50 %v  p99 %v  max %v\n",
		pct(0.50).Round(time.Microsecond), pct(0.99).Round(time.Microsecond), pct(1.0).Round(time.Microsecond))
	return 0
}
