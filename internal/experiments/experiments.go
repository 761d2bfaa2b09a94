// Package experiments implements the evaluation drivers of Section 7:
// one function per table/figure, each returning structured results that
// cmd/experiments renders and bench_test.go wraps into Go benchmarks.
// Absolute numbers differ from the paper (different hardware, simulated
// WAN); the shapes — who is compliant, relative overheads, scaling
// trends — are what these drivers reproduce.
package experiments

import (
	"fmt"
	"time"

	"cgdqp/internal/network"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/policy"
	"cgdqp/internal/schema"
	"cgdqp/internal/tpch"
	"cgdqp/internal/workload"
)

// Config controls experiment scale.
type Config struct {
	// SF is the catalog scale factor for optimization-only experiments.
	SF float64
	// ExecSF is the scale factor for experiments that execute plans.
	ExecSF float64
	// Repetitions per measurement (the paper averages seven runs).
	Repetitions int
	// Seed drives the workload generators.
	Seed uint64
	// NoPolicyCache disables the policy evaluator's memoization during
	// timing experiments, mirroring the paper's per-operator evaluation
	// (used by the Figure 6(c–f) drivers).
	NoPolicyCache bool
}

func (c Config) reps() int {
	if c.Repetitions < 1 {
		return 1
	}
	return c.Repetitions
}

// newOptimizer builds a fresh (cold-cache) optimizer.
func newOptimizer(cat *schema.Catalog, pc *policy.Catalog, compliant bool) *optimizer.Optimizer {
	net := network.FiveRegionWAN(cat.Locations())
	return optimizer.New(cat, pc, net, optimizer.Options{Compliant: compliant})
}

// newTimingOptimizer honors the no-cache fidelity knob.
func newTimingOptimizer(cfg Config, cat *schema.Catalog, pc *policy.Catalog, compliant bool) *optimizer.Optimizer {
	net := network.FiveRegionWAN(cat.Locations())
	return optimizer.New(cat, pc, net, optimizer.Options{Compliant: compliant, NoPolicyCache: cfg.NoPolicyCache})
}

// timeOptimize measures the average optimization time of a query over
// cfg.Repetitions cold runs; it returns the average duration and the
// stats of the last run.
func timeOptimize(cfg Config, cat *schema.Catalog, pc *policy.Catalog, compliant bool, sql string) (time.Duration, *optimizer.Result, error) {
	var total time.Duration
	var last *optimizer.Result
	for i := 0; i < cfg.reps(); i++ {
		opt := newTimingOptimizer(cfg, cat, pc, compliant)
		res, err := opt.OptimizeSQL(sql)
		if err != nil {
			return 0, nil, err
		}
		total += res.Stats.TotalTime
		last = res
	}
	return total / time.Duration(cfg.reps()), last, nil
}

// ComplianceCell is one entry of the Figure 5(a) matrix.
type ComplianceCell struct {
	Query                string
	Set                  workload.SetName
	TraditionalCompliant bool // C/NC of the traditional optimizer's plan
	CompliantFound       bool // the compliant optimizer produced a plan
	CompliantValid       bool // ... and it passes the Definition 1 checker
}

// Fig5aEffectiveness reproduces Figure 5(a): for each of the six TPC-H
// queries and each expression set, was the traditional cost-based plan
// compliant, and did the compliance-based optimizer find a (valid)
// compliant plan?
func Fig5aEffectiveness(cfg Config) ([]ComplianceCell, error) {
	cat := tpch.NewCatalog(cfg.SF)
	var out []ComplianceCell
	for _, set := range workload.SetNames() {
		pc := workload.TPCHSet(set)
		copt := newOptimizer(cat, pc, true)
		topt := newOptimizer(cat, pc, false)
		for _, qn := range tpch.QueryNames() {
			cell := ComplianceCell{Query: qn, Set: set}
			tres, err := topt.OptimizeSQL(tpch.Queries[qn])
			if err != nil {
				return nil, fmt.Errorf("traditional %s/%s: %w", set, qn, err)
			}
			cell.TraditionalCompliant = len(copt.Check(tres.Plan)) == 0
			cres, err := copt.OptimizeSQL(tpch.Queries[qn])
			if err == nil {
				cell.CompliantFound = true
				cell.CompliantValid = len(copt.Check(cres.Plan)) == 0
			}
			out = append(out, cell)
		}
	}
	return out, nil
}

// Fig5PlanExcerpts reproduces Figures 5(b)–(e): the Q2 plans under CR and
// the Q3 plans under CR+A, traditional vs. compliant.
func Fig5PlanExcerpts(cfg Config) (string, error) {
	cat := tpch.NewCatalog(cfg.SF)
	out := ""
	for _, pick := range []struct {
		query string
		set   workload.SetName
	}{
		{"Q2", workload.SetCR},
		{"Q3", workload.SetCRA},
	} {
		pc := workload.TPCHSet(pick.set)
		topt := newOptimizer(cat, pc, false)
		copt := newOptimizer(cat, pc, true)
		tres, err := topt.OptimizeSQL(tpch.Queries[pick.query])
		if err != nil {
			return "", err
		}
		cres, err := copt.OptimizeSQL(tpch.Queries[pick.query])
		if err != nil {
			return "", err
		}
		violations := copt.Check(tres.Plan)
		out += fmt.Sprintf("=== %s under %s: traditional plan (violations: %d) ===\n%s\n",
			pick.query, pick.set, len(violations), tres.Plan.Format(true))
		for _, v := range violations {
			out += "  violation: " + v.String() + "\n"
		}
		out += fmt.Sprintf("=== %s under %s: compliant plan ===\n%s\n",
			pick.query, pick.set, cres.Plan.Format(true))
	}
	return out, nil
}

// AdhocResult is one bar of Figure 6(a).
type AdhocResult struct {
	Set                  workload.SetName
	SetSize              int
	Queries              int
	TraditionalCompliant int // queries whose traditional plan was compliant
	CompliantOK          int // queries the compliant optimizer handled
}

// Fig6aAdhocEffectiveness reproduces Figure 6(a): the fraction of ad-hoc
// queries for which each optimizer produced a compliant QEP. The paper
// uses 400 queries split evenly over the four sets (T has 8 expressions,
// the others 50).
func Fig6aAdhocEffectiveness(cfg Config, queriesPerSet int) ([]AdhocResult, error) {
	cat := tpch.NewCatalog(cfg.SF)
	gen := workload.NewQueryGen(cfg.Seed)
	var out []AdhocResult
	for _, set := range workload.SetNames() {
		size := 50
		pc := workload.NewPolicyGen(cfg.Seed+uint64(len(out)), cat.Locations()).Generate(set, size)
		res := AdhocResult{Set: set, SetSize: pc.Len(), Queries: queriesPerSet}
		copt := newOptimizer(cat, pc, true)
		topt := newOptimizer(cat, pc, false)
		for _, q := range gen.Generate(queriesPerSet) {
			tres, err := topt.OptimizeSQL(q)
			if err != nil {
				return nil, fmt.Errorf("traditional ad-hoc: %w\n%s", err, q)
			}
			if len(copt.Check(tres.Plan)) == 0 {
				res.TraditionalCompliant++
			}
			cres, err := copt.OptimizeSQL(q)
			if err == nil && len(copt.Check(cres.Plan)) == 0 {
				res.CompliantOK++
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// OptTimeRow is one bar pair of Figures 6(b)–(f).
type OptTimeRow struct {
	Query       string
	Traditional time.Duration
	Compliant   time.Duration
	Eta         int64
	Groups      int
	Exprs       int
}

// Fig6bMinimalOverhead reproduces Figure 6(b): optimization time with
// unrestricted `ship * from t to *` policies — the framework's fixed
// overhead over traditional optimization.
func Fig6bMinimalOverhead(cfg Config) ([]OptTimeRow, error) {
	return optTimes(cfg, workload.UnrestrictedSet())
}

// Fig6OptTime reproduces Figures 6(c)–(f): optimization time under the
// T / C / CR / CR+A sets. The policy-evaluation cache is disabled to
// mirror the paper's per-operator evaluation (the source of its C > CR
// cost ordering).
func Fig6OptTime(cfg Config, set workload.SetName) ([]OptTimeRow, error) {
	noCache := cfg
	noCache.NoPolicyCache = true
	return optTimes(noCache, workload.TPCHSet(set))
}

func optTimes(cfg Config, pc *policy.Catalog) ([]OptTimeRow, error) {
	cat := tpch.NewCatalog(cfg.SF)
	var out []OptTimeRow
	for _, qn := range tpch.QueryNames() {
		sql := tpch.Queries[qn]
		tDur, _, err := timeOptimize(cfg, cat, pc, false, sql)
		if err != nil {
			return nil, fmt.Errorf("traditional %s: %w", qn, err)
		}
		cDur, cRes, err := timeOptimize(cfg, cat, pc, true, sql)
		if err != nil {
			return nil, fmt.Errorf("compliant %s: %w", qn, err)
		}
		out = append(out, OptTimeRow{
			Query:       qn,
			Traditional: tDur,
			Compliant:   cDur,
			Eta:         cRes.Stats.Eta,
			Groups:      cRes.Stats.Groups,
			Exprs:       cRes.Stats.Exprs,
		})
	}
	return out, nil
}
