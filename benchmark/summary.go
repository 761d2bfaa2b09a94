package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef is one metric declared in BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadManifest() (*manifest, error) {
	dir, err := benchDir()
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(dir, "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// series is one end-to-end metric over the timed runs of a workload.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

func newSeries(unit string, values []float64) series {
	s := series{Unit: unit, Values: values, Median: median(values)}
	s.Q1, s.Q3 = quartiles(values)
	s.Min, s.Max = quantile(values, 0), quantile(values, 1)
	return s
}

type workloadSummary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]series `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
}

// summary is what `--workload all` writes and `compare` reads. It makes
// no performance claim: Claim is always null.
type summary struct {
	Date       string                      `json:"date"`
	GoVersion  string                      `json:"go_version"`
	NProc      int                         `json:"nproc"`
	GOMAXPROCS int                         `json:"gomaxprocs"`
	Seed       uint64                      `json:"seed"`
	VarySeed   bool                        `json:"vary_seed"`
	Seconds    float64                     `json:"seconds"`
	Repeat     int                         `json:"repeat"`
	Workloads  map[string]*workloadSummary `json:"workloads"`
	Claim      *string                     `json:"claim"`
}

// child runs one workload in one mode in a process of its own and
// parses the last line of its output.
func child(self string, w io.Writer, sp *spec, o options, seed uint64, trace int) (*result, error) {
	args := []string{"--workload", sp.name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace)}
	if o.rounds > 0 {
		args = append(args, "--rounds", strconv.Itoa(o.rounds))
	}
	if o.update && trace == 0 {
		args = append(args, "--update")
	}
	var out bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s %s: %w", sp.name, strings.Join(args, " "), err)
	}
	// The report is passed on; the result line is parsed, not repeated.
	report, last := cutLast(strings.TrimSpace(out.String()))
	fmt.Fprintln(w, report)
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", sp.name, err)
	}
	return &res, nil
}

// cutLast splits s around its last newline.
func cutLast(s string) (before, last string) {
	i := strings.LastIndexByte(s, '\n')
	if i < 0 {
		return "", s
	}
	return s[:i], s[i+1:]
}

// runAll runs every workload — `repeat` timed runs and one traced run
// each, every run in its own process — and writes the summary.
func runAll(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	sum := &summary{
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       o.seed, VarySeed: o.varySeed, Seconds: o.seconds, Repeat: o.repeat,
		Workloads: map[string]*workloadSummary{},
	}
	ok := true
	for _, sp := range allSpecs() {
		ws := &workloadSummary{Correct: true, EndToEnd: map[string]series{}, PerLayer: map[string]metric{}}
		values, units := map[string][]float64{}, map[string]string{}
		for i := 0; i < o.repeat; i++ {
			seed := o.seed
			if o.varySeed {
				seed += uint64(i)
			}
			res, err := child(self, os.Stdout, sp, o, seed, 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			ws.Correct = ws.Correct && res.Correct
			ws.Attempted += res.Attempted
			ws.Failed += res.Failed
			for n, m := range res.Metrics {
				values[n] = append(values[n], m.Value)
				units[n] = m.Unit
			}
		}
		for n, vs := range values {
			ws.EndToEnd[n] = newSeries(units[n], vs)
		}
		res, err := child(self, os.Stdout, sp, o, o.seed, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		ws.Correct = ws.Correct && res.Correct
		ws.Attempted += res.Attempted
		ws.Failed += res.Failed
		ws.PerLayer = res.Metrics
		sum.Workloads[sp.name] = ws
		ok = ok && ws.Correct
	}
	if err := writeJSON(o.out, sum); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("summary written to %s (nproc %d, GOMAXPROCS %d, %s)\n", o.out, sum.NProc, sum.GOMAXPROCS, sum.GoVersion)
	if !ok {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
