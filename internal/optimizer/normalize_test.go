package optimizer

import (
	"fmt"
	"strings"
	"testing"

	"cgdqp/internal/expr"
	"cgdqp/internal/plan"
	"cgdqp/internal/schema"
	"cgdqp/internal/sqlparse"
)

func normCatalog() *schema.Catalog {
	cat := schema.NewCatalog()
	cat.MustAddTable(schema.NewTable("r", "db-1", "L1", 100,
		schema.Column{Name: "a", Type: expr.TInt},
		schema.Column{Name: "b", Type: expr.TInt},
		schema.Column{Name: "junk", Type: expr.TString},
	))
	cat.MustAddTable(schema.NewTable("s", "db-2", "L2", 100,
		schema.Column{Name: "a", Type: expr.TInt},
		schema.Column{Name: "c", Type: expr.TInt},
		schema.Column{Name: "junk2", Type: expr.TString},
	))
	cat.MustAddTable(schema.NewTable("u", "db-2", "L2", 100,
		schema.Column{Name: "a", Type: expr.TFloat},
	))
	cat.MustAddTable(&schema.Table{
		Name:    "fr",
		Columns: []schema.Column{{Name: "x", Type: expr.TInt}},
		Fragments: []schema.Fragment{
			{DB: "db-1", Location: "L1", RowCount: 50},
			{DB: "db-2", Location: "L2", RowCount: 50},
		},
	})
	return cat
}

func normalizeSQL(t *testing.T, sql string) *plan.Node {
	t.Helper()
	logical, err := sqlparse.ParseAndBind(sql, normCatalog())
	if err != nil {
		t.Fatal(err)
	}
	return Normalize(logical)
}

func TestNormalizeFilterPushdown(t *testing.T) {
	n := normalizeSQL(t, `SELECT r.b FROM r, s WHERE r.a = s.a AND r.b > 5 AND s.c = 3`)
	// The join condition lands on the join; the single-table conjuncts
	// sink to their scans.
	var join *plan.Node
	n.Walk(func(x *plan.Node) bool {
		if x.Kind == plan.Join {
			join = x
		}
		return true
	})
	if join == nil || join.Pred == nil || !strings.Contains(join.Pred.String(), "r.a = s.a") {
		t.Fatalf("join pred: %v", join)
	}
	filters := 0
	n.Walk(func(x *plan.Node) bool {
		if x.Kind == plan.Filter {
			filters++
			if !strings.Contains(x.Pred.String(), "r.b > 5") && !strings.Contains(x.Pred.String(), "s.c = 3") {
				t.Errorf("unexpected filter: %v", x.Pred)
			}
			if x.Children[0].Kind != plan.Scan {
				t.Errorf("filter not on scan: %v", x.Children[0].Kind)
			}
		}
		return true
	})
	if filters != 2 {
		t.Errorf("filters: %d", filters)
	}
}

func TestNormalizeColumnPruning(t *testing.T) {
	n := normalizeSQL(t, `SELECT r.b FROM r, s WHERE r.a = s.a`)
	// junk / junk2 must be pruned from the leaves.
	n.Walk(func(x *plan.Node) bool {
		if x.Kind == plan.Project && x.Children[0].Kind == plan.Scan {
			for _, c := range x.Cols {
				if strings.Contains(c.Name, "junk") {
					t.Errorf("unpruned column %s", c.Key())
				}
			}
		}
		return true
	})
	// Pruning keeps join keys.
	found := false
	n.Walk(func(x *plan.Node) bool {
		if x.Kind == plan.Project {
			for _, c := range x.Cols {
				if c.Key() == "s.a" {
					found = true
				}
			}
		}
		return true
	})
	if !found {
		t.Error("join key pruned away")
	}
}

func TestNormalizeFragmentExpansion(t *testing.T) {
	n := normalizeSQL(t, `SELECT fr.x FROM fr WHERE fr.x > 1`)
	unions, scans := 0, 0
	n.Walk(func(x *plan.Node) bool {
		switch x.Kind {
		case plan.Union:
			unions++
		case plan.Scan:
			scans++
			if x.FragIdx < 0 {
				t.Error("fragment scan without index")
			}
		}
		return true
	})
	if unions != 1 || scans != 2 {
		t.Errorf("unions=%d scans=%d", unions, scans)
	}
	// The filter is pushed into both branches.
	filters := 0
	n.Walk(func(x *plan.Node) bool {
		if x.Kind == plan.Filter {
			filters++
		}
		return true
	})
	if filters != 2 {
		t.Errorf("per-branch filters: %d", filters)
	}
}

func TestNormalizeKeepsLimitSemantics(t *testing.T) {
	// A filter above LIMIT (from a derived table) must not push below it.
	n := normalizeSQL(t, `SELECT x.b FROM (SELECT r.b FROM r ORDER BY r.b LIMIT 5) x WHERE x.b > 2`)
	// Walk down: the Filter must appear above the Limit.
	var sawFilter bool
	ok := true
	n.Walk(func(x *plan.Node) bool {
		if x.Kind == plan.Filter {
			sawFilter = true
		}
		if x.Kind == plan.Limit && !sawFilter {
			ok = false
		}
		return true
	})
	if !ok || !sawFilter {
		t.Errorf("filter pushed below LIMIT:\n%s", n)
	}
}

// scanFilters maps each scan alias of a normalized plan to the
// conjuncts of the filters directly above it, in order.
func scanFilters(n *plan.Node) map[string][]string {
	out := map[string][]string{}
	n.Walk(func(x *plan.Node) bool {
		if x.Kind == plan.Filter && x.Children[0].Kind == plan.Scan {
			for _, c := range expr.Conjuncts(x.Pred) {
				out[x.Children[0].Alias] = append(out[x.Children[0].Alias], c.String())
			}
		}
		return true
	})
	return out
}

func TestNormalizeTransfersAcrossEquiJoins(t *testing.T) {
	for _, c := range []struct {
		sql  string
		want map[string][]string
	}{
		// Equality to a constant, either operand order.
		{`SELECT r.b FROM r, s WHERE r.a = s.a AND r.a = 5`,
			map[string][]string{"r": {"r.a = 5"}, "s": {"s.a = 5"}}},
		{`SELECT r.b FROM r, s WHERE r.a = s.a AND 5 > s.a`,
			map[string][]string{"r": {"5 > r.a"}, "s": {"5 > s.a"}}},
		{`SELECT r.b FROM r, s WHERE r.a = s.a AND s.a IN (1, 2)`,
			map[string][]string{"r": {"r.a IN (1, 2)"}, "s": {"s.a IN (1, 2)"}}},
		{`SELECT r.b FROM r, s WHERE s.a = r.a AND r.a BETWEEN 1 AND 9 AND r.b > 2`,
			map[string][]string{"r": {"r.a BETWEEN 1 AND 9", "r.b > 2"}, "s": {"s.a BETWEEN 1 AND 9"}}},
		// Transitive over two joins, and into every fragment of a union;
		// each copy is added once, never again at the lower join.
		{`SELECT r.b FROM r, s, fr WHERE r.a = s.a AND s.a = fr.x AND r.a < 7`,
			map[string][]string{"r": {"r.a < 7"}, "s": {"s.a < 7"}, "fr": {"fr.x < 7", "fr.x < 7"}}},
		// Not transferred: <>, NOT IN, a non-key column, an equality
		// between columns of different types.
		{`SELECT r.b FROM r, s WHERE r.a = s.a AND r.a <> 3 AND r.a NOT IN (4) AND r.b < 2`,
			map[string][]string{"r": {"r.a <> 3", "r.a NOT IN (4)", "r.b < 2"}}},
		{`SELECT r.b FROM r, u WHERE r.a = u.a AND r.a < 5`,
			map[string][]string{"r": {"r.a < 5"}}},
	} {
		got := scanFilters(normalizeSQL(t, c.sql))
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s:\n got %v\nwant %v", c.sql, got, c.want)
		}
	}
}

// TestNormalizeTransferStopsAtLimitAndAggregate: a conjunct transferred
// onto a derived table's column passes its projection but stays above
// its LIMIT or aggregate, as a stated conjunct on that column would.
func TestNormalizeTransferStopsAtLimitAndAggregate(t *testing.T) {
	for _, c := range []struct{ sql, blocker string }{
		{`SELECT r.b FROM r, (SELECT s.a FROM s ORDER BY s.a LIMIT 5) x WHERE r.a = x.a AND r.a < 3`, "Limit"},
		{`SELECT r.b FROM r, (SELECT s.a, SUM(s.c) AS t FROM s GROUP BY s.a) x WHERE r.a = x.a AND r.a < 3`, "Aggregate"},
	} {
		n := normalizeSQL(t, c.sql)
		if got := scanFilters(n); fmt.Sprint(got) != fmt.Sprint(map[string][]string{"r": {"r.a < 3"}}) {
			t.Errorf("%s: scan filters %v", c.sql, got)
		}
		var above bool
		n.Walk(func(x *plan.Node) bool {
			if x.Kind == plan.Filter && x.Children[0].Kind.String() == c.blocker {
				above = x.Pred.String() == "s.a < 3"
			}
			return true
		})
		if !above {
			t.Errorf("%s: s.a < 3 is not a filter right above the %s:\n%s", c.sql, c.blocker, n)
		}
	}
}

// TestTransferAllocatesNothingWithoutCandidates: a join pool where no
// transferable conjunct's column is equated costs no allocation.
func TestTransferAllocatesNothingWithoutCandidates(t *testing.T) {
	n := normalizeSQL(t, `SELECT r.b FROM r, s WHERE r.a = s.a`)
	var join *plan.Node
	n.Walk(func(x *plan.Node) bool {
		if x.Kind == plan.Join {
			join = x
		}
		return join == nil
	})
	eq := expr.NewCmp(expr.EQ, expr.NewCol("r", "a"), expr.NewCol("s", "a"))
	lt := expr.NewCmp(expr.LT, expr.NewCol("r", "a"), expr.NewConst(expr.NewInt(5)))
	ne := expr.NewCmp(expr.NE, expr.NewCol("r", "a"), expr.NewConst(expr.NewInt(5)))
	other := expr.NewCmp(expr.LT, expr.NewCol("r", "b"), expr.NewConst(expr.NewInt(5)))
	for _, pool := range [][]expr.Expr{{eq, ne}, {lt}, {eq, eq}, {eq, other}} {
		if a := testing.AllocsPerRun(100, func() { transfer(join, pool) }); a != 0 {
			t.Errorf("transfer(%v) allocates %v times", pool, a)
		}
	}
	if got := transfer(join, []expr.Expr{eq, lt}); len(got) != 3 || got[2].String() != "s.a < 5" {
		t.Errorf("transfer = %v", got)
	}
}
