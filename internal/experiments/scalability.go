package experiments

import (
	"fmt"
	"time"

	"cgdqp/internal/tpch"
	"cgdqp/internal/workload"
)

// ScaleRow is one bar of Figures 7(a)–(c): optimization time against the
// number of policy expressions, annotated with η (how often an
// expression was actually considered).
type ScaleRow struct {
	Query     string
	NumExprs  int
	Compliant time.Duration
	Eta       int64
}

// Fig7Expressions reproduces Figures 7(a)–(c): Q2, Q3 and Q10 optimized
// under CR+A sets of 12, 25, 50 and 100 expressions.
func Fig7Expressions(cfg Config) ([]ScaleRow, error) {
	cat := tpch.NewCatalog(cfg.SF)
	var out []ScaleRow
	for _, qn := range []string{"Q2", "Q3", "Q10"} {
		for _, n := range []int{12, 25, 50, 100} {
			pc := workload.NewPolicyGen(cfg.Seed, cat.Locations()).Generate(workload.SetCRA, n)
			dur, res, err := timeOptimize(cfg, cat, pc, true, tpch.Queries[qn])
			if err != nil {
				return nil, fmt.Errorf("%s with %d expressions: %w", qn, n, err)
			}
			out = append(out, ScaleRow{Query: qn, NumExprs: pc.Len(), Compliant: dur, Eta: res.Stats.Eta})
		}
	}
	return out, nil
}

// FragRow is one bar of Figures 7(d)/(e): optimization time against the
// number of locations the Customer and Orders tables are fragmented
// over, with the size of the memo that search built.
type FragRow struct {
	Query     string
	NumLocs   int
	Compliant time.Duration
	SiteTime  time.Duration
	Groups    int
	Exprs     int
}

// Fig7deTableLocations reproduces Figures 7(d)/(e): Customer and Orders
// are distributed among 1–5 locations (rewritten as unions of fragment
// scans), and Q3/Q10 are optimized under CR+A-style generated policies.
func Fig7deTableLocations(cfg Config) ([]FragRow, error) {
	var out []FragRow
	for _, qn := range []string{"Q3", "Q10"} {
		for nLocs := 1; nLocs <= 5; nLocs++ {
			cat := tpch.NewCatalogFragmented(cfg.SF, nLocs)
			pc := workload.NewPolicyGen(cfg.Seed, cat.Locations()).GenerateFor(cat, workload.SetCRA, 10)
			dur, res, err := timeOptimize(cfg, cat, pc, true, tpch.Queries[qn])
			if err != nil {
				return nil, fmt.Errorf("%s over %d locations: %w", qn, nLocs, err)
			}
			out = append(out, FragRow{Query: qn, NumLocs: nLocs, Compliant: dur, SiteTime: res.Stats.SiteTime,
				Groups: res.Stats.Groups, Exprs: res.Stats.Exprs})
		}
	}
	return out, nil
}

// WideRow is one bar of Figure 8: optimization time against the number
// of `to` locations per policy expression.
type WideRow struct {
	Query       string
	LocsPerExpr int
	Compliant   time.Duration
	SiteTime    time.Duration
}

// Fig8Locations reproduces Figure 8: `ship * from t to l1,...,ln`
// expressions with n from 3 to 20 over a 20-location deployment; Q2 and
// Q3 are the most- and least-join-heavy queries.
func Fig8Locations(cfg Config) ([]WideRow, error) {
	cat := tpch.NewCatalog(cfg.SF)
	// Extend the universe to 20 locations (L6..L20 host no data but are
	// legal shipping destinations).
	var locs []string
	for i := 1; i <= 20; i++ {
		l := fmt.Sprintf("L%d", i)
		cat.AddLocation(l)
		locs = append(locs, l)
	}
	var out []WideRow
	for _, qn := range []string{"Q2", "Q3"} {
		for _, n := range []int{3, 5, 10, 15, 20} {
			pc := workload.WideSet(locs, n)
			dur, res, err := timeOptimize(cfg, cat, pc, true, tpch.Queries[qn])
			if err != nil {
				return nil, fmt.Errorf("%s with %d locations per expression: %w", qn, n, err)
			}
			out = append(out, WideRow{Query: qn, LocsPerExpr: n, Compliant: dur, SiteTime: res.Stats.SiteTime})
		}
	}
	return out, nil
}
