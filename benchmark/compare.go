package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func readSummary(path string) (*summary, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s summary
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// worsening is how much worse `new` is than `base`, as a share of base
// (negative = better).
func worsening(d metricDef, base, new float64) float64 {
	if d.Better == "higher" {
		return ratio(base-new, base)
	}
	return ratio(new-base, base)
}

// allBetter reports whether every run of new reads better than every
// run of base.
func allBetter(d metricDef, base, new series) bool {
	if d.Better == "higher" {
		return new.Min > base.Max
	}
	return new.Max < base.Min
}

// judge applies one metric's bound: a regression when the new median is
// worse than the base median by more than the bound; unresolved when
// either side's own run-to-run spread exceeds the bound (unless every
// new run beats every base run).
func judge(d metricDef, base, new series) (verdict string, worse float64) {
	worse = worsening(d, base.Median, new.Median)
	noisy := ratio(base.Q3-base.Q1, base.Median) > d.Bound || ratio(new.Q3-new.Q1, new.Median) > d.Bound
	switch {
	case noisy && !allBetter(d, base, new):
		return "unresolved", worse
	case worse > d.Bound:
		return "REGRESSION", worse
	}
	return "ok", worse
}

// historyRow is one line of history.jsonl.
type historyRow struct {
	Date      string                        `json:"date"`
	GoVersion string                        `json:"go_version"`
	NProc     int                           `json:"nproc"`
	Seconds   float64                       `json:"seconds"`
	Repeat    int                           `json:"repeat"`
	Medians   map[string]map[string]float64 `json:"medians"`
}

func appendHistory(s *summary) error {
	dir, err := benchDir()
	if err != nil {
		return err
	}
	row := historyRow{Date: s.Date, GoVersion: s.GoVersion, NProc: s.NProc,
		Seconds: s.Seconds, Repeat: s.Repeat, Medians: map[string]map[string]float64{}}
	for w, ws := range s.Workloads {
		row.Medians[w] = map[string]float64{}
		for n, sr := range ws.EndToEnd {
			row.Medians[w][n] = sr.Median
		}
	}
	raw, err := json.Marshal(row)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "history.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// compareMain implements `benchmark compare [-append-history] base new`:
// one row per (workload, end-to-end metric) with both medians and the
// change as a share of the base; exit status 1 on a regression or on
// more failed operations than the base.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	history := fs.Bool("append-history", false, "append the new summary's medians as a dated row to benchmark/history.jsonl")
	_ = fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [-append-history] <base.json> <new.json>")
		return 2
	}
	man, err := loadManifest()
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	base, err := readSummary(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	cur, err := readSummary(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	var names []string
	for w := range base.Workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	bad := false
	fmt.Printf("%-12s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "base median", "new median", "worse by", "bound", "verdict")
	for _, w := range names {
		b, n := base.Workloads[w], cur.Workloads[w]
		if n == nil {
			fmt.Printf("%-12s missing from the new summary\n", w)
			bad = true
			continue
		}
		for _, d := range man.EndToEnd {
			bs, ok1 := b.EndToEnd[d.Name]
			ns, ok2 := n.EndToEnd[d.Name]
			if !ok1 || !ok2 {
				fmt.Printf("%-12s %-26s missing\n", w, d.Name)
				bad = true
				continue
			}
			verdict, worse := judge(d, bs, ns)
			if verdict == "REGRESSION" {
				bad = true
			}
			fmt.Printf("%-12s %-26s %14.6g %14.6g %+8.2f%% %6.0f%%  %s (of base %.6g %s)\n",
				w, d.Name, bs.Median, ns.Median, 100*worse, 100*d.Bound, verdict, bs.Median, d.Unit)
		}
		bf, nf := ratio(float64(b.Failed), float64(b.Attempted)), ratio(float64(n.Failed), float64(n.Attempted))
		verdict := "ok"
		if nf > bf || !n.Correct {
			verdict, bad = "REGRESSION", true
		}
		fmt.Printf("%-12s %-26s %14.6g %14.6g %9s %7s  %s (%d of %d failed, base %d of %d)\n",
			w, "failed_ratio", bf, nf, "", "0%", verdict, n.Failed, n.Attempted, b.Failed, b.Attempted)
	}
	if *history {
		if err := appendHistory(cur); err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			return 2
		}
	}
	if bad {
		return 1
	}
	return 0
}
