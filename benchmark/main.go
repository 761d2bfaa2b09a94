// Command benchmark is the repository's end-to-end, layer-attributed
// benchmark (see README.md in this directory and BENCHMARK.json at the
// repository root). One invocation runs one workload in its own
// process:
//
//	bash benchmark/run.sh --workload cold_plan --seed 1 --seconds 28 --trace 0
//
// prints every metric by name with its unit, verifies every answer, and
// ends with one JSON object on the last line of standard output.
// `--workload all` re-executes itself once per workload and mode and
// writes a summary file; `compare` judges two summaries.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

const defaultSeed = 1

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	rounds   int
	work     string
	update   bool
	out      string
	repeat   int
	varySeed bool
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: cold_plan, warm_exec, store_bound, serve_mixed or all")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed: op order (1-client workloads), lookup literals, appended rows")
	fs.Float64Var(&o.seconds, "seconds", 28, "length of the measured phase")
	fs.IntVar(&o.trace, "trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.IntVar(&o.rounds, "rounds", 0, "smoke run, for tests: set up once and stop after this many rounds (0 = measure for --seconds)")
	fs.StringVar(&o.work, "work", filepath.Join(".bench_build", "data"), "directory for the run's scratch data and its trace")
	fs.BoolVar(&o.update, "update", false, "regenerate testdata/expected.json for the workload (default seed only)")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "summary.json"), "with --workload all: summary file")
	fs.IntVar(&o.repeat, "repeat", 1, "with --workload all: timed runs per workload, for medians and spread")
	fs.BoolVar(&o.varySeed, "vary-seed", false, "with --workload all --repeat: run i uses seed+i")
	_ = fs.Parse(os.Args[1:])
	if o.update && o.seed != defaultSeed {
		fmt.Fprintf(os.Stderr, "benchmark: --update pins seed %d; it cannot be combined with --seed %d\n", defaultSeed, o.seed)
		os.Exit(2)
	}
	if o.workload == "all" {
		os.Exit(runAll(o))
	}
	sp := specByName(o.workload)
	if sp == nil || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark --workload <cold_plan|warm_exec|store_bound|serve_mixed|all> --seed <n> --seconds <s> --trace <0|1>")
		fmt.Fprintln(os.Stderr, "       benchmark compare [-append-history] <base.json> <new.json>")
		os.Exit(2)
	}
	rep, err := runOne(sp, o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// report is what one run produced: the result line, plus what the tests
// look at — the end-to-end metrics (of the timed phase, in a traced run)
// and the op sequence.
type report struct {
	result   *result
	endToEnd map[string]metric
	oplog    []string
}

// runOne runs one workload in one mode and reports to w. Its data files
// live in a private directory under o.work (by default the checkout's
// ignored build directory) and are gone when it returns; the spans of a
// traced run stay behind in o.work/trace-<workload>.json.
func runOne(sp *spec, o options, w io.Writer) (*report, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	h, err := newHarness(sp, o.seed, work)
	if err != nil {
		return nil, err
	}
	repeats := setupRepeats
	if o.rounds > 0 {
		repeats = 1 // a smoke run measures nothing, so one set-up will do
	}

	t0 := time.Now()
	h.oracle, err = newOracle(sp, h.adhoc)
	if err != nil {
		return nil, err
	}
	if sp.choose != nil {
		sp.choose(h)
	}
	if err := h.oracle.addReferences(sp, h.static()); err != nil {
		return nil, err
	}
	oracleS := time.Since(t0).Seconds()
	pinnedErr := ""
	if o.update {
		if err := h.oracle.updatePinned(sp, h.static()); err != nil {
			return nil, err
		}
	} else if err := h.oracle.checkPinned(sp, o.seed == defaultSeed, h.static()); err != nil {
		pinnedErr = err.Error()
	}

	var setups []float64
	for i := 0; i < repeats; i++ {
		if i > 0 {
			if err := h.teardown(); err != nil {
				return nil, err
			}
		}
		d, err := h.setup()
		if err != nil {
			_ = h.teardown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	defer h.teardown()

	budget := time.Duration(o.seconds * float64(time.Second))
	var metrics, endToEnd map[string]metric
	var attempted, failed int
	if o.trace == 0 {
		if err := h.runCycles(budget, o.rounds); err != nil {
			return nil, err
		}
		metrics, attempted, failed = h.endToEnd(median(setups))
		endToEnd = metrics
	} else {
		metrics, endToEnd, attempted, failed, err = h.tracedRun(budget, o.rounds, median(setups))
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(h.spans)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(o.work, "trace-"+sp.name+".json"), raw, 0o644); err != nil {
			return nil, err
		}
	}

	fmt.Fprintf(w, "workload %s  seed %d  trace %d  sf %g  oracle %.2fs  set-ups %.3v s\n", sp.name, o.seed, o.trace, sp.sf, oracleS, setups)
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	for _, line := range h.classSummary() {
		fmt.Fprintln(w, " ", line)
	}
	shown := 0
	for _, s := range h.failures {
		if shown++; shown > 10 {
			break
		}
		fmt.Fprintln(w, "  FAILED", s)
	}
	if pinnedErr != "" {
		fmt.Fprintln(w, "  FAILED", pinnedErr)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  failed_ratio %g\n", attempted, failed, ratio(float64(failed), float64(attempted)))
	res := &result{Correct: failed == 0 && pinnedErr == "", Attempted: attempted, Failed: failed, Metrics: metrics}
	return &report{result: res, endToEnd: endToEnd, oplog: h.oplog}, nil
}
