package sqlparse

import (
	"errors"
	"strings"
	"testing"

	"cgdqp/internal/expr"
	"cgdqp/internal/plan"
	"cgdqp/internal/schema"
)

func testCatalog() *schema.Catalog {
	cat := schema.NewCatalog()
	cat.MustAddTable(schema.NewTable("Customer", "db-1", "N", 1000,
		schema.Column{Name: "custkey", Type: expr.TInt},
		schema.Column{Name: "name", Type: expr.TString},
		schema.Column{Name: "acctbal", Type: expr.TFloat},
		schema.Column{Name: "mktseg", Type: expr.TString},
	))
	cat.MustAddTable(schema.NewTable("Orders", "db-2", "E", 10000,
		schema.Column{Name: "custkey", Type: expr.TInt},
		schema.Column{Name: "ordkey", Type: expr.TInt},
		schema.Column{Name: "totprice", Type: expr.TFloat},
	))
	cat.MustAddTable(schema.NewTable("Supply", "db-3", "A", 40000,
		schema.Column{Name: "ordkey", Type: expr.TInt},
		schema.Column{Name: "quantity", Type: expr.TInt},
		schema.Column{Name: "extprice", Type: expr.TFloat},
	))
	return cat
}

func mustBind(t *testing.T, sql string) *plan.Node {
	t.Helper()
	node, err := ParseAndBind(sql, testCatalog())
	if err != nil {
		t.Fatalf("bind %q: %v", sql, err)
	}
	return node
}

func TestBindSimpleSelect(t *testing.T) {
	n := mustBind(t, "SELECT C.name FROM Customer AS C WHERE C.acctbal > 100")
	if n.Kind != plan.Project {
		t.Fatalf("root kind: %v", n.Kind)
	}
	if len(n.Cols) != 1 || n.Cols[0].Key() != "C.name" {
		t.Errorf("cols: %v", n.Cols)
	}
	f := n.Children[0]
	if f.Kind != plan.Filter || !strings.Contains(f.Pred.String(), "C.acctbal > 100") {
		t.Errorf("filter: %v", f)
	}
	if f.Children[0].Kind != plan.Scan {
		t.Error("scan under filter")
	}
}

func TestBindSelectStar(t *testing.T) {
	n := mustBind(t, "SELECT * FROM Customer")
	// SELECT * over one table needs no projection.
	if n.Kind != plan.Scan {
		t.Fatalf("root: %v", n.Kind)
	}
	if len(n.Cols) != 4 {
		t.Errorf("cols: %d", len(n.Cols))
	}
	// Qualified star.
	n = mustBind(t, "SELECT O.* FROM Customer C, Orders O")
	if n.Kind != plan.Project || len(n.Cols) != 3 || n.Cols[0].Key() != "O.custkey" {
		t.Errorf("qualified star: %v", n.Cols)
	}
}

func TestBindUnqualifiedResolution(t *testing.T) {
	// name appears only in Customer: resolvable; the binder qualifies it.
	n := mustBind(t, "SELECT name FROM Customer C, Orders O WHERE acctbal > 0")
	if n.Cols[0].Key() != "C.name" {
		t.Errorf("resolved: %v", n.Cols[0].Key())
	}
	// custkey is ambiguous across C and O.
	if _, err := ParseAndBind("SELECT custkey FROM Customer C, Orders O", testCatalog()); err == nil {
		t.Error("ambiguous column must fail")
	}
	if _, err := ParseAndBind("SELECT ghost FROM Customer", testCatalog()); err == nil {
		t.Error("unknown column must fail")
	}
	if _, err := ParseAndBind("SELECT name FROM Ghost", testCatalog()); err == nil {
		t.Error("unknown table must fail")
	}
	if _, err := ParseAndBind("SELECT name FROM Customer C, Orders C", testCatalog()); err == nil {
		t.Error("duplicate alias must fail")
	}
}

func TestBindJoinTree(t *testing.T) {
	n := mustBind(t, `SELECT C.name FROM Customer C, Orders O, Supply S
		WHERE C.custkey = O.custkey AND O.ordkey = S.ordkey`)
	// Project -> Filter -> Join(Join(C,O),S)
	f := n.Children[0]
	j := f.Children[0]
	if j.Kind != plan.Join || j.Children[0].Kind != plan.Join {
		t.Fatalf("left-deep join tree:\n%s", n)
	}
	if len(j.Cols) != 10 {
		t.Errorf("join cols: %d", len(j.Cols))
	}
}

func TestBindAggregate(t *testing.T) {
	n := mustBind(t, `SELECT C.name, SUM(O.totprice) AS total, SUM(S.quantity) AS qty
		FROM Customer C, Orders O, Supply S
		WHERE C.custkey = O.custkey AND O.ordkey = S.ordkey
		GROUP BY C.name`)
	// Pure aggregation: root is the Aggregate itself.
	if n.Kind != plan.Aggregate {
		t.Fatalf("root:\n%s", n)
	}
	if len(n.GroupBy) != 1 || n.GroupBy[0].Key() != "C.name" {
		t.Errorf("group by: %v", n.GroupBy)
	}
	if len(n.Aggs) != 2 || n.Aggs[0].Name != "total" || n.Aggs[1].Name != "qty" {
		t.Errorf("aggs: %v", n.Aggs)
	}
	if n.Cols[0].Key() != "C.name" || n.Cols[1].Key() != "total" {
		t.Errorf("schema: %v", n.Cols)
	}
}

func TestBindAggregateExpressions(t *testing.T) {
	// Aggregate inside arithmetic requires a post-projection.
	n := mustBind(t, `SELECT SUM(O.totprice) / COUNT(*) AS avg_price FROM Orders O`)
	if n.Kind != plan.Project {
		t.Fatalf("root: %v\n%s", n.Kind, n)
	}
	agg := n.Children[0]
	if agg.Kind != plan.Aggregate || len(agg.Aggs) != 2 {
		t.Fatalf("agg: %v", agg)
	}
	if len(agg.GroupBy) != 0 {
		t.Error("global aggregation has no group by")
	}
	if n.Cols[0].Key() != "avg_price" {
		t.Errorf("output: %v", n.Cols)
	}
	// Duplicate aggregates are shared.
	n2 := mustBind(t, `SELECT SUM(O.totprice) AS a, SUM(O.totprice) * 2 AS b FROM Orders O`)
	agg2 := n2.Children[0]
	if len(agg2.Aggs) != 1 {
		t.Errorf("aggregate dedup: %v", agg2.Aggs)
	}
}

func TestBindAggregateValidation(t *testing.T) {
	cat := testCatalog()
	// Non-grouped column in select list.
	if _, err := ParseAndBind("SELECT C.name, SUM(C.acctbal) FROM Customer C GROUP BY C.mktseg", cat); err == nil {
		t.Error("non-grouped column must fail")
	}
	// Expression over non-grouped column.
	if _, err := ParseAndBind("SELECT C.acctbal + SUM(C.custkey) FROM Customer C GROUP BY C.mktseg", cat); err == nil {
		t.Error("expression over non-grouped column must fail")
	}
	// Plain expression with no aggregate alongside GROUP BY context is fine
	// when it is a group column.
	if _, err := ParseAndBind("SELECT C.mktseg FROM Customer C GROUP BY C.mktseg", cat); err != nil {
		t.Errorf("group column select: %v", err)
	}
}

func TestBindDerivedTable(t *testing.T) {
	n := mustBind(t, `SELECT X.total FROM (SELECT O.custkey, SUM(O.totprice) AS total FROM Orders O GROUP BY O.custkey) AS X WHERE X.total > 1000`)
	if n.Kind != plan.Project || n.Cols[0].Key() != "X.total" {
		t.Fatalf("root: %v\n%s", n.Cols, n)
	}
	// Filter over the renamed subquery.
	f := n.Children[0]
	if f.Kind != plan.Filter || !strings.Contains(f.Pred.String(), "X.total > 1000") {
		t.Errorf("filter: %v", f.Pred)
	}
	// Rename project present with alias X.
	ren := f.Children[0]
	if ren.Kind != plan.Project || ren.Cols[0].Key() != "X.custkey" {
		t.Errorf("rename: %v", ren.Cols)
	}
	if ren.Children[0].Kind != plan.Aggregate {
		t.Errorf("subquery agg:\n%s", n)
	}
}

func TestBindDerivedTableJoin(t *testing.T) {
	n := mustBind(t, `SELECT C.name, X.total
		FROM Customer C, (SELECT O.custkey AS ck, SUM(O.totprice) AS total FROM Orders O GROUP BY O.custkey) X
		WHERE C.custkey = X.ck`)
	if len(n.Cols) != 2 || n.Cols[1].Key() != "X.total" {
		t.Fatalf("cols: %v", n.Cols)
	}
}

func TestBindOrderByLimit(t *testing.T) {
	n := mustBind(t, "SELECT C.name FROM Customer C ORDER BY C.name DESC LIMIT 5")
	if n.Kind != plan.Limit || n.LimitN != 5 {
		t.Fatalf("limit root: %v", n.Kind)
	}
	s := n.Children[0]
	if s.Kind != plan.Sort || !s.SortKeys[0].Desc {
		t.Errorf("sort: %+v", s.SortKeys)
	}
	// Order by output alias.
	n = mustBind(t, "SELECT SUM(O.totprice) AS total FROM Orders O ORDER BY total")
	if n.Kind != plan.Sort {
		t.Fatalf("root: %v", n.Kind)
	}
}

func TestBindNoFrom(t *testing.T) {
	if _, err := ParseAndBind("SELECT 1 FROM", testCatalog()); err == nil {
		t.Error("missing FROM must fail")
	}
}

// TestBindRefusesIncomparablePredicates: a WHERE, JOIN ON or HAVING
// predicate comparing values Value.Compare cannot order — an IN item
// included — fails at bind with expr.ErrIncomparable, whatever the data
// would have been, while numeric cross-type comparisons bind.
func TestBindRefusesIncomparablePredicates(t *testing.T) {
	for _, sql := range []string{
		"SELECT C.name FROM Customer C WHERE C.custkey > 'abc'",
		"SELECT C.name FROM Customer C WHERE C.custkey > 5 AND C.custkey > 'abc'",
		"SELECT C.name FROM Customer C WHERE C.custkey IN (1, 'x')",
		"SELECT C.name FROM Customer C WHERE C.name BETWEEN 1 AND 2",
		"SELECT C.name FROM Customer C JOIN Orders O ON C.custkey = O.custkey AND C.name = O.ordkey",
		"SELECT C.mktseg, COUNT(*) AS n FROM Customer C GROUP BY C.mktseg HAVING COUNT(*) > 'many'",
		"SELECT X.k FROM (SELECT C.name AS k FROM Customer C) X WHERE X.k < 3",
	} {
		if _, err := ParseAndBind(sql, testCatalog()); !errors.Is(err, expr.ErrIncomparable) {
			t.Errorf("%s: %v, want ErrIncomparable", sql, err)
		}
	}
	mustBind(t, "SELECT C.name FROM Customer C WHERE C.acctbal > 5 AND C.custkey IN (1, 2.5) AND C.mktseg IN ('a', NULL)")
	mustBind(t, "SELECT C.mktseg, SUM(C.acctbal) AS s FROM Customer C GROUP BY C.mktseg HAVING SUM(C.acctbal) > 10")
}
