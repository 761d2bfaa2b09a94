package experiments

import (
	"strings"
	"testing"

	"cgdqp/internal/workload"
)

// smallCfg keeps unit tests fast; the benchmarks use Default().
func smallCfg() Config {
	return Config{SF: 0.002, ExecSF: 0.001, Repetitions: 1, Seed: 42}
}

func TestFig5aShapes(t *testing.T) {
	cells, err := Fig5aEffectiveness(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 24 {
		t.Fatalf("24 variants expected, got %d", len(cells))
	}
	nc := 0
	for _, c := range cells {
		// The compliance-based optimizer must succeed on every variant.
		if !c.CompliantFound || !c.CompliantValid {
			t.Errorf("%s/%s: compliant optimizer failed (found=%v valid=%v)", c.Set, c.Query, c.CompliantFound, c.CompliantValid)
		}
		if !c.TraditionalCompliant {
			nc++
		}
	}
	// The traditional optimizer must be non-compliant for some variants
	// (the paper reports 8 of 24).
	if nc < 2 {
		t.Errorf("expected several non-compliant traditional plans, got %d", nc)
	}
	out := RenderFig5a(cells)
	if !strings.Contains(out, "NC") {
		t.Error("rendering must show NC cells")
	}
}

func TestFig5PlanExcerpts(t *testing.T) {
	out, err := Fig5PlanExcerpts(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Q2 under CR", "Q3 under CR+A", "compliant plan", "traditional plan"} {
		if !strings.Contains(out, want) {
			t.Errorf("excerpts missing %q", want)
		}
	}
}

func TestFig6aShapes(t *testing.T) {
	rows, err := Fig6aAdhocEffectiveness(smallCfg(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("4 sets expected, got %d", len(rows))
	}
	for _, r := range rows {
		// The compliance-based optimizer handles every query.
		if r.CompliantOK != r.Queries {
			t.Errorf("set %s: compliant handled %d/%d", r.Set, r.CompliantOK, r.Queries)
		}
		// The traditional one misses some.
		if r.TraditionalCompliant == r.Queries {
			t.Errorf("set %s: traditional compliant on all queries (expected misses)", r.Set)
		}
	}
	_ = RenderFig6a(rows)
}

func TestFig6bAndOptTime(t *testing.T) {
	rows, err := Fig6bMinimalOverhead(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("6 queries expected, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Compliant <= 0 || r.Traditional <= 0 {
			t.Errorf("%s: non-positive times %v %v", r.Query, r.Compliant, r.Traditional)
		}
		// The compliant optimizer's overhead is trait derivation: on
		// every query it considers policy expressions (η) for the
		// expressions of its memo. Counts, not times, so noise cannot
		// decide the check.
		if r.Eta <= 0 || r.Exprs <= 0 {
			t.Errorf("%s: compliant optimization considered %d policy expressions over %d memo expressions", r.Query, r.Eta, r.Exprs)
		}
	}
	cr, err := Fig6OptTime(smallCfg(), workload.SetCR)
	if err != nil {
		t.Fatal(err)
	}
	if len(cr) != 6 {
		t.Errorf("CR rows: %d", len(cr))
	}
	_ = RenderOptTimes("Fig 6(e)", cr)
}

func TestFig6QualityShapes(t *testing.T) {
	for _, set := range []workload.SetName{workload.SetC, workload.SetCR} {
		rows, err := Fig6Quality(smallCfg(), set)
		if err != nil {
			t.Fatalf("%s: %v", set, err)
		}
		if len(rows) != 6 {
			t.Fatalf("%s: %d rows", set, len(rows))
		}
		for _, r := range rows {
			// Whenever the traditional plan is compliant and identical,
			// the costs must agree (the paper's "=" bars).
			if r.SamePlan && r.CompliantCost != r.TraditionalCost {
				t.Errorf("%s/%s: same plan, different cost %v vs %v", set, r.Query, r.CompliantCost, r.TraditionalCost)
			}
			if !r.RowsAgree {
				t.Errorf("%s/%s: result cardinality mismatch", set, r.Query)
			}
		}
		_ = RenderQuality("quality", rows)
	}
}

func TestFig7Shapes(t *testing.T) {
	rows, err := Fig7Expressions(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 3 queries × 4 sizes
		t.Fatalf("rows: %d", len(rows))
	}
	// η grows with the number of expressions for each query.
	byQuery := map[string][]ScaleRow{}
	for _, r := range rows {
		byQuery[r.Query] = append(byQuery[r.Query], r)
	}
	for q, rs := range byQuery {
		for i := 1; i < len(rs); i++ {
			if rs[i].Eta < rs[i-1].Eta {
				t.Errorf("%s: η decreased from %d to %d as expressions grew", q, rs[i-1].Eta, rs[i].Eta)
			}
		}
		if rs[len(rs)-1].Eta <= rs[0].Eta {
			t.Errorf("%s: η did not grow (%d → %d)", q, rs[0].Eta, rs[len(rs)-1].Eta)
		}
	}
	_ = RenderFig7(rows)
}

func TestFig7deShapes(t *testing.T) {
	rows, err := Fig7deTableLocations(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 { // 2 queries × 5 location counts
		t.Fatalf("rows: %d", len(rows))
	}
	// The search space, and with it optimization time, grows with
	// fragmentation: every added location adds memo groups and
	// expressions.
	byQuery := map[string][]FragRow{}
	for _, r := range rows {
		byQuery[r.Query] = append(byQuery[r.Query], r)
	}
	for q, rs := range byQuery {
		for i := 1; i < len(rs); i++ {
			if rs[i].Groups <= rs[i-1].Groups || rs[i].Exprs <= rs[i-1].Exprs {
				t.Errorf("%s: memo did not grow from %d to %d locations (groups %d → %d, exprs %d → %d)",
					q, rs[i-1].NumLocs, rs[i].NumLocs, rs[i-1].Groups, rs[i].Groups, rs[i-1].Exprs, rs[i].Exprs)
			}
		}
	}
	_ = RenderFig7de(rows)
}

func TestFig8Shapes(t *testing.T) {
	rows, err := Fig8Locations(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 { // 2 queries × 5 widths
		t.Fatalf("rows: %d", len(rows))
	}
	_ = RenderFig8(rows)
}

func TestTable1(t *testing.T) {
	rows := Table1Evaluation()
	if len(rows) != 2 {
		t.Fatal("two queries")
	}
	if rows[0].Result != "{l3}" {
		t.Errorf("𝒜(q1) = %s, want {l3}", rows[0].Result)
	}
	if rows[1].Result != "{l1, l2}" {
		t.Errorf("𝒜(q2) = %s, want {l1, l2}", rows[1].Result)
	}
	out := RenderTable1()
	if !strings.Contains(out, "{l3}") || !strings.Contains(out, "{l1, l2}") {
		t.Errorf("render:\n%s", out)
	}
}
