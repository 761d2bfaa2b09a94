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
// The command is a client of the public cgdqp facade: every statement
// runs through System.Query / Explain / ExplainAnalyze, exactly as an
// embedding application's would.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
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
// TPC-H deployment and runs the one-shot query or the interactive
// shell, returning the process exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cgdqp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	setName := fs.String("set", "CR", "policy set: T, C, CR, CR+A, open (unrestricted)")
	sf := fs.Float64("sf", 0.001, "TPC-H scale factor for loaded data")
	query := fs.String("q", "", "run one query and exit")
	explainOnly := fs.Bool("explain", false, "print the plan without executing")
	resultLoc := fs.String("at", "", "pin the result location (L1..L5)")
	chaosSeed := fs.Int64("chaos-seed", 0, "inject deterministic WAN faults under this seed (0 = off); the same seed replays the same failures")
	chaosDrop := fs.Float64("chaos-drop", 0.05, "per-batch drop probability under -chaos-seed")
	chaosError := fs.Float64("chaos-error", 0.05, "per-send transient-error probability under -chaos-seed")
	chaosDelay := fs.Float64("chaos-delay", 0.10, "per-send delay probability under -chaos-seed")
	planCache := fs.Int("plan-cache", cgdqp.DefaultPlanCacheSize, "optimized-plan LRU cache size (0 = off); repeated queries skip optimization")
	resultCache := fs.Int64("result-cache", 64<<20, "result-set cache budget in bytes (0 = off); repeated queries are served from cached results while their tables and policies are unchanged")
	explainAnalyze := fs.Bool("explain-analyze", false, "execute and print the plan annotated with per-operator actual rows/batches/time")
	metricsOut := fs.String("metrics-out", "", "write Prometheus-text metrics to this file at exit (- for stdout)")
	auditOut := fs.String("audit-out", "", "write the compliance audit log of cross-site shipments to this file at exit (- for stdout)")
	slowLogPath := fs.String("slow-query-log", "", "append one JSON line per slow query to this file (- for stdout)")
	slowThreshold := fs.Duration("slow-query-threshold", 100*time.Millisecond, "latency floor for -slow-query-log (0 logs every query)")
	obsAddr := fs.String("obs-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :9090)")
	dataDir := fs.String("data-dir", "", "keep per-site table pages in files under this directory (empty = in memory); reopening a populated directory recovers from the WAL and skips the TPC-H load")
	bufferPool := fs.Int64("buffer-pool", 0, "buffer pool budget in bytes shared by every site (0 = 64 MiB default); also feeds the optimizer's index access-path costing")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	opts := cgdqp.Options{
		ResultLocation:     *resultLoc,
		PlanCacheSize:      *planCache,
		ResultCacheBytes:   *resultCache,
		Metrics:            *metricsOut != "" || *obsAddr != "",
		Audit:              *auditOut != "",
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
		fmt.Fprintln(sh.out, p)
		cacheNote := ""
		if p.Stats.PlanCacheHit {
			cacheNote = " [plan cache hit]"
		} else if pcs := sh.sys.PlanCacheStats(); pcs.Hits+pcs.Misses > 0 {
			cacheNote = fmt.Sprintf(" [plan cache %d/%d hits]", pcs.Hits, pcs.Hits+pcs.Misses)
		}
		if p.Stats.ExploreHit {
			cacheNote += " [explore cached]"
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
