package main

import (
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"cgdqp"
)

func rowsOf(rows ...[]float64) []cgdqp.Row {
	out := make([]cgdqp.Row, len(rows))
	for i, r := range rows {
		for _, v := range r {
			out[i] = append(out[i], cgdqp.Float(v))
		}
	}
	return out
}

// smokeRounds is how much of its first cycle a workload runs under test:
// one round (cold_plan: under a set that refuses a query; store_bound:
// with its append; serve_mixed: a policy switch and fifty draws), two
// where the first is the untimed warm-up (warm_exec).
var smokeRounds = map[string]int{"cold_plan": 1, "warm_exec": 2, "store_bound": 1, "serve_mixed": 1}

// smokeRun runs the first rounds of one workload, traced (which contains
// a timed phase).
func smokeRun(t *testing.T, name string) *report {
	t.Helper()
	sp := specByName(name)
	if sp == nil {
		t.Fatalf("no workload %q", name)
	}
	rep, err := runOne(sp, options{seed: defaultSeed, seconds: 0.1, trace: 1, rounds: smokeRounds[name], work: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep
}

// firstSmoke keeps each workload's first smoke run, so that the
// determinism test can compare a second run with it.
var firstSmoke sync.Map

func firstSmokeRun(t *testing.T, name string) *report {
	t.Helper()
	if rep, ok := firstSmoke.Load(name); ok {
		return rep.(*report)
	}
	rep := smokeRun(t, name)
	firstSmoke.Store(name, rep)
	return rep
}

// firstCycle renders the first cycle of a workload's op sequence for a
// seed without executing it.
func firstCycle(t *testing.T, name string, seed uint64) string {
	t.Helper()
	h, err := newHarness(specByName(name), seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, r := range h.spec.cycle(h, 0) {
		for _, seg := range r {
			for _, o := range seg.ops {
				ops = append(ops, o.String())
			}
		}
	}
	return strings.Join(ops, ",")
}

// TestWorkloadsEmitDeclaredMetrics runs every workload once and checks
// that every metric BENCHMARK.json declares is emitted, finite and in the
// declared unit, that nothing failed verification and that no executed
// plan violated a policy.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, defs []metricDef, got map[string]metric, nonZero bool) {
		t.Helper()
		if len(got) != len(defs) {
			t.Errorf("%d metrics emitted, BENCHMARK.json declares %d", len(got), len(defs))
		}
		for _, d := range defs {
			m, ok := got[d.Name]
			switch {
			case !ok:
				t.Errorf("metric %s not emitted", d.Name)
			case m.Unit != d.Unit:
				t.Errorf("metric %s in %q, declared %q", d.Name, m.Unit, d.Unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("metric %s = %v", d.Name, m.Value)
			case nonZero && m.Value <= 0:
				t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
			}
		}
	}
	for _, w := range man.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			if sp := specByName(w.Name); sp == nil || sp.why != w.Why {
				t.Errorf("BENCHMARK.json and workloads.go disagree on %s", w.Name)
			}
			rep := firstSmokeRun(t, w.Name)
			if !rep.result.Correct || rep.result.Failed != 0 || rep.result.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", rep.result.Correct, rep.result.Attempted, rep.result.Failed)
			}
			check(t, man.PerLayer, rep.result.Metrics, false)
			check(t, man.EndToEnd, rep.endToEnd, true)
			if v := rep.result.Metrics["optimizer.violations"].Value; v != 0 {
				t.Errorf("optimizer.violations = %v", v)
			}
		})
	}
	if len(man.Workloads) != len(allSpecs()) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(man.Workloads), len(allSpecs()))
	}
}

// TestSeedDeterminism: one seed, one op sequence and the same exact
// counts; another seed, another sequence.
func TestSeedDeterminism(t *testing.T) {
	for _, sp := range allSpecs() {
		if sp.name == "serve_mixed" {
			continue // its population needs the oracle's verdicts
		}
		if firstCycle(t, sp.name, 7) != firstCycle(t, sp.name, 7) {
			t.Errorf("%s: same seed, different op sequence", sp.name)
		}
		if firstCycle(t, sp.name, 7) == firstCycle(t, sp.name, 8) {
			t.Errorf("%s: different seeds, same op sequence", sp.name)
		}
	}
	a, b := firstSmokeRun(t, "cold_plan"), smokeRun(t, "cold_plan")
	if strings.Join(a.oplog, ",") != strings.Join(b.oplog, ",") {
		t.Error("same seed, different executed sequence")
	}
	for _, n := range []string{"shipped_bytes_per_query", "ship_cost_per_query"} {
		if a.endToEnd[n].Value != b.endToEnd[n].Value {
			t.Errorf("%s: %v then %v on the same seed", n, a.endToEnd[n].Value, b.endToEnd[n].Value)
		}
	}
	for _, n := range []string{"memo.exprs", "memo.groups", "policy.eta", "policy.eval_calls"} {
		if a.result.Metrics[n].Value != b.result.Metrics[n].Value {
			t.Errorf("%s: %v then %v on the same seed", n, a.result.Metrics[n].Value, b.result.Metrics[n].Value)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput", Better: "higher", Bound: 0.10}
	steady := func(v float64) series { return newSeries("x", []float64{v * 0.99, v, v, v, v * 1.01}) }
	noisy := func(v float64) series { return newSeries("x", []float64{v * 0.7, v * 0.8, v, v * 1.2, v * 1.3}) }
	for _, c := range []struct {
		name      string
		d         metricDef
		base, new series
		want      string
	}{
		{"within bound", lower, steady(100), steady(105), "ok"},
		{"slower", lower, steady(100), steady(120), "REGRESSION"},
		{"faster", lower, steady(100), steady(50), "ok"},
		{"less throughput", higher, steady(100), steady(80), "REGRESSION"},
		{"more throughput", higher, steady(100), steady(130), "ok"},
		{"spread wider than bound", lower, noisy(100), noisy(120), "unresolved"},
		{"noisy but every run better", lower, noisy(100), noisy(40), "ok"},
	} {
		if got, _ := judge(c.d, c.base, c.new); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(values, n=4), which the acceptance driver uses.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{4, 1, 3})
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v; Python gives 1, 4", q1, q3)
	}
}

func TestRowComparisonToleratesSummationOrder(t *testing.T) {
	// The same multiset, in another order and with the last bits of a
	// float sum moved, matches; a different value does not.
	ref := newReference(rowsOf([]float64{1, 2.5}, []float64{2, 1e6 / 3}))
	if err := sameRows(rowsOf([]float64{2, 1e6/3 + 1e-10}, []float64{1, 2.5}), ref); err != nil {
		t.Errorf("reordered rows with float noise rejected: %v", err)
	}
	if err := sameRows(rowsOf([]float64{2, 1e6/3 + 1}, []float64{1, 2.5}), ref); err == nil {
		t.Error("a wrong value was accepted")
	}
	if err := sameRows(rowsOf([]float64{1, 2.5}), ref); err == nil {
		t.Error("a missing row was accepted")
	}
}
