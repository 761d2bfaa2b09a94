package tpch

import (
	"testing"

	"cgdqp/internal/cluster"
	"cgdqp/internal/executor"
	"cgdqp/internal/leakcheck"
	"cgdqp/internal/network"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/policy"
)

// The tests execute plans, and every SHIP starts a producer goroutine.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// execFixture loads a small TPC-H database with unrestricted policies.
func execFixture(t *testing.T, sf float64) (*cluster.Cluster, *optimizer.Optimizer) {
	t.Helper()
	cat := NewCatalog(sf)
	net := network.FiveRegionWAN(cat.Locations())
	cl := cluster.New(cat, net)
	if err := Generate(cat, cl); err != nil {
		t.Fatal(err)
	}
	pc := policy.NewCatalog()
	for _, tab := range cat.Tables() {
		pc.Add(policy.MustParse("ship * from "+tab.Name+" to *", tab.Name, tab.DB()))
	}
	return cl, optimizer.New(cat, pc, net, optimizer.Options{Compliant: true})
}

// TestQ8MarketShareExecution runs the faithful Q8 (CASE market share per
// year) end to end and validates the result's semantics.
func TestQ8MarketShareExecution(t *testing.T) {
	cl, opt := execFixture(t, 0.002)
	res, err := opt.OptimizeSQL(Queries["Q8"])
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := executor.Run(res.Plan, cl)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, res.Plan.Format(true))
	}
	if len(rows) == 0 {
		t.Skip("Q8 predicate too selective at this scale (no ECONOMY ANODIZED STEEL matches)")
	}
	for _, r := range rows {
		year := r[0].Int()
		if year < 1995 || year > 1996 {
			t.Errorf("o_year %d outside the date range", year)
		}
		share := r[1]
		if !share.IsNull() && (share.Float() < 0 || share.Float() > 1) {
			t.Errorf("mkt_share %v outside [0,1]", share)
		}
	}
	// Ordered ascending by year.
	for i := 1; i < len(rows); i++ {
		if rows[i][0].Int() < rows[i-1][0].Int() {
			t.Error("o_year not ascending")
		}
	}
}

// TestQ9ProfitExecution runs the faithful Q9 (profit per nation and
// year) and validates grouping and ordering.
func TestQ9ProfitExecution(t *testing.T) {
	cl, opt := execFixture(t, 0.002)
	res, err := opt.OptimizeSQL(Queries["Q9"])
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := executor.Run(res.Plan, cl)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, res.Plan.Format(true))
	}
	if len(rows) == 0 {
		t.Skip("Q9 predicate too selective at this scale")
	}
	seen := map[string]bool{}
	for i, r := range rows {
		key := r[0].Str() + "|" + r[1].String()
		if seen[key] {
			t.Errorf("duplicate group %s", key)
		}
		seen[key] = true
		year := r[1].Int()
		if year < 1992 || year > 1998 {
			t.Errorf("o_year %d out of range", year)
		}
		// nation ascending; year descending within nation.
		if i > 0 {
			prev := rows[i-1]
			switch {
			case r[0].Str() < prev[0].Str():
				t.Error("nation not ascending")
			case r[0].Str() == prev[0].Str() && r[1].Int() > prev[1].Int():
				t.Error("o_year not descending within nation")
			}
		}
	}
}
