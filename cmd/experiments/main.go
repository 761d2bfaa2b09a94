// Command experiments regenerates the tables and figures of the paper's
// evaluation (Section 7). Run it with no arguments to reproduce
// everything, or select panels with -fig:
//
//	experiments -fig 5a          # effectiveness matrix
//	experiments -fig 6g -sf 0.01 # plan quality under set C
//	experiments -fig all
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cgdqp/internal/experiments"
	"cgdqp/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, regenerates the selected
// panels to stdout and returns the process exit code (1 when a panel
// failed, 2 on bad flags).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "panel to regenerate: table1, 5a, 5be, 6a, 6b, 6c, 6d, 6e, 6f, 6g, 6h, 7, 7de, 8, all")
	format := fs.String("format", "text", "output format: text or csv")
	sf := fs.Float64("sf", 0.01, "catalog scale factor for optimization experiments")
	execSF := fs.Float64("exec-sf", 0.002, "scale factor for experiments that execute plans")
	reps := fs.Int("reps", 3, "repetitions per timing measurement")
	queries := fs.Int("adhoc", 100, "ad-hoc queries per expression set for figure 6a")
	seed := fs.Uint64("seed", 42, "workload generator seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	cfg := experiments.Config{SF: *sf, ExecSF: *execSF, Repetitions: *reps, Seed: *seed}
	csv := *format == "csv"
	want := map[string]bool{}
	for _, f := range strings.Split(*fig, ",") {
		want[strings.TrimSpace(strings.ToLower(f))] = true
	}
	all := want["all"]
	failed := false
	panel := func(keys []string, fn func() (string, error)) {
		selected := all
		for _, k := range keys {
			if want[k] {
				selected = true
			}
		}
		if !selected {
			return
		}
		out, err := fn()
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			failed = true
			return
		}
		fmt.Fprintln(stdout, out)
	}

	panel([]string{"table1"}, func() (string, error) {
		return experiments.RenderTable1(), nil
	})
	panel([]string{"5a"}, func() (string, error) {
		cells, err := experiments.Fig5aEffectiveness(cfg)
		if err != nil {
			return "", err
		}
		if csv {
			return experiments.CSVFig5a(cells), nil
		}
		return experiments.RenderFig5a(cells), nil
	})
	panel([]string{"5be", "5b", "5c", "5d", "5e"}, func() (string, error) {
		return experiments.Fig5PlanExcerpts(cfg)
	})
	panel([]string{"6a"}, func() (string, error) {
		rows, err := experiments.Fig6aAdhocEffectiveness(cfg, *queries)
		if err != nil {
			return "", err
		}
		if csv {
			return experiments.CSVFig6a(rows), nil
		}
		return experiments.RenderFig6a(rows), nil
	})
	panel([]string{"6b"}, func() (string, error) {
		rows, err := experiments.Fig6bMinimalOverhead(cfg)
		if err != nil {
			return "", err
		}
		if csv {
			return experiments.CSVOptTimes(rows), nil
		}
		return experiments.RenderOptTimes("Figure 6(b): minimal overhead (ship * from t to *)", rows), nil
	})
	for _, p := range []struct {
		key string
		set workload.SetName
	}{
		{"6c", workload.SetT}, {"6d", workload.SetC},
		{"6e", workload.SetCR}, {"6f", workload.SetCRA},
	} {
		p := p
		panel([]string{p.key}, func() (string, error) {
			rows, err := experiments.Fig6OptTime(cfg, p.set)
			if err != nil {
				return "", err
			}
			if csv {
				return experiments.CSVOptTimes(rows), nil
			}
			return experiments.RenderOptTimes(
				fmt.Sprintf("Figure %s: optimization time under set %s", p.key, p.set), rows), nil
		})
	}
	panel([]string{"6g"}, func() (string, error) {
		rows, err := experiments.Fig6Quality(cfg, workload.SetC)
		if err != nil {
			return "", err
		}
		if csv {
			return experiments.CSVQuality(rows), nil
		}
		return experiments.RenderQuality("Figure 6(g): scaled execution cost under C", rows), nil
	})
	panel([]string{"6h"}, func() (string, error) {
		rows, err := experiments.Fig6Quality(cfg, workload.SetCR)
		if err != nil {
			return "", err
		}
		if csv {
			return experiments.CSVQuality(rows), nil
		}
		return experiments.RenderQuality("Figure 6(h): scaled execution cost under CR", rows), nil
	})
	panel([]string{"7", "7abc"}, func() (string, error) {
		rows, err := experiments.Fig7Expressions(cfg)
		if err != nil {
			return "", err
		}
		if csv {
			return experiments.CSVFig7(rows), nil
		}
		return experiments.RenderFig7(rows), nil
	})
	panel([]string{"7de"}, func() (string, error) {
		rows, err := experiments.Fig7deTableLocations(cfg)
		if err != nil {
			return "", err
		}
		if csv {
			return experiments.CSVFig7de(rows), nil
		}
		return experiments.RenderFig7de(rows), nil
	})
	panel([]string{"8"}, func() (string, error) {
		rows, err := experiments.Fig8Locations(cfg)
		if err != nil {
			return "", err
		}
		if csv {
			return experiments.CSVFig8(rows), nil
		}
		return experiments.RenderFig8(rows), nil
	})
	if failed {
		return 1
	}
	return 0
}
