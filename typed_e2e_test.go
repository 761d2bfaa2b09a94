package cgdqp

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"cgdqp/internal/refeval"
)

// typedSystem declares T(id INT, v VARCHAR) with a B+ tree on id, the
// shape of the index-vs-scan probe below.
func typedSystem(t *testing.T) *System {
	t.Helper()
	sys := NewSystem()
	sys.MustDefineTable("T", "db-e", "Europe", 100, Col("id", TInt), Col("v", TString))
	sys.MustDefineIndex("T", "id")
	sys.MustAddPolicy("ship * from T to *")
	return sys
}

// TestLoadRefusesIllTypedRows: a batch holding a DOUBLE in an INT
// column is refused whole with ErrColumnType, which names the table,
// the column, the row and both types; the table, its data epoch and its
// index are left as they were. The hole it closes: with row 77 stored
// as a DOUBLE, the index path (`T.id = 77`, an IndexScan) and the scan
// path (`T.id + 0 = 77`) answered the same question differently.
func TestLoadRefusesIllTypedRows(t *testing.T) {
	sys := typedSystem(t)
	rows := make([]Row, 100)
	for i := range rows {
		rows[i] = Row{Int(int64(i)), String("row")}
	}
	rows[40] = Row{Null(), String("untyped NULL")}
	sys.MustLoad("T", rows[:50])
	epoch := sys.Cluster().DataEpoch("T")

	bad := append([]Row(nil), rows[50:]...)
	bad[27] = Row{Float(77), String("row")}
	err := sys.Load("T", bad)
	if !errors.Is(err, ErrColumnType) {
		t.Fatalf("Load of a DOUBLE in an INT column: %v, want ErrColumnType", err)
	}
	for _, part := range []string{"T", "column id", "row 27", "DOUBLE", "INTEGER"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q does not name %q", err, part)
		}
	}
	if got := sys.Cluster().DataEpoch("T"); got != epoch {
		t.Errorf("a refused load moved the data epoch %d -> %d", epoch, got)
	}
	count := func(sql string) int {
		t.Helper()
		res, err := sys.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return len(res.Rows)
	}
	if n := count("SELECT T.v FROM T"); n != 50 {
		t.Fatalf("table holds %d rows after a refused batch, want 50", n)
	}
	if n := count("SELECT T.v FROM T WHERE T.id IS NULL"); n != 1 {
		t.Fatalf("%d NULL ids, want the one loaded as an untyped NULL", n)
	}

	sys.MustLoad("T", rows[50:])
	plan, err := sys.Explain("SELECT T.v FROM T WHERE T.id = 77")
	if err != nil || !strings.Contains(plan.String(), "IndexScan") {
		t.Fatalf("point query is not an IndexScan (%v):\n%v", err, plan)
	}
	for _, sql := range []string{"SELECT T.v FROM T WHERE T.id = 77", "SELECT T.v FROM T WHERE T.id + 0 = 77"} {
		if n := count(sql); n != 1 {
			t.Errorf("%s: %d rows, want 1", sql, n)
		}
	}
}

// TestIncomparablePredicatesFailAtBind: a predicate comparing an INT
// column with a VARCHAR — alone, behind a conjunct that would have
// emptied the input first, or as an IN item — is refused with
// ErrIncomparable by Explain, Legal and Query alike, before any data is
// read; AddPolicy refuses the same IN list.
func TestIncomparablePredicatesFailAtBind(t *testing.T) {
	sys := typedSystem(t)
	sys.MustLoad("T", []Row{{Int(1), String("a")}, {Int(2), String("b")}})
	for _, sql := range []string{
		"SELECT T.v FROM T WHERE T.id > 'abc'",
		"SELECT T.v FROM T WHERE T.id > 5 AND T.id > 'abc'",
		"SELECT T.v FROM T WHERE T.id IN (1, 'x')",
	} {
		if _, err := sys.Explain(sql); !errors.Is(err, ErrIncomparable) {
			t.Errorf("Explain %s: %v, want ErrIncomparable", sql, err)
		}
		if ok, err := sys.Legal(sql); ok || !errors.Is(err, ErrIncomparable) {
			t.Errorf("Legal %s: %v, %v, want ErrIncomparable", sql, ok, err)
		}
		if _, err := sys.Query(sql); !errors.Is(err, ErrIncomparable) {
			t.Errorf("Query %s: %v, want ErrIncomparable", sql, err)
		}
	}
	n := len(sys.PolicyIDs())
	if err := sys.AddPolicy("ship v from T to * where id in (1, 'x')"); !errors.Is(err, ErrIncomparable) {
		t.Errorf("AddPolicy with an ill-typed IN list: %v, want ErrIncomparable", err)
	}
	if len(sys.PolicyIDs()) != n {
		t.Error("a refused policy was registered")
	}
}

// TestHashJoinNegativeZeroKey: -0.0 = 0.0 holds, so an equi-join of a
// DOUBLE key -0.0 with 0.0 matches whichever way it runs. The hash join
// used to hash the float's bits and file the two under different
// hashes, answering [] where the nested loop and the reference
// evaluator return the match.
func TestHashJoinNegativeZeroKey(t *testing.T) {
	const n = 5_000
	sys := NewSystem()
	sys.MustDefineTable("A", "db-a", "Europe", n, Col("k", TFloat), Col("v", TInt))
	sys.MustDefineTable("B", "db-b", "Asia", n, Col("k", TFloat), Col("v", TInt))
	sys.MustAddPolicy("ship * from A to *")
	sys.MustAddPolicy("ship * from B to *")
	a, b := make([]Row, n), make([]Row, n)
	for i := range a {
		a[i] = Row{Float(float64(i) + 0.5), Int(int64(i))}
		b[i] = Row{Float(float64(i) + 10_000.25), Int(int64(i))}
	}
	a[n/2][0], b[n/3][0] = Float(math.Copysign(0, -1)), Float(0)
	sys.MustLoad("A", a)
	sys.MustLoad("B", b)
	const q = "SELECT B.v FROM A, B WHERE A.k = B.k"
	p, err := sys.Explain(q)
	if err != nil || !strings.Contains(p.String(), "HashJoin") {
		t.Fatalf("not planned as a hash join (%v):\n%v", err, p)
	}
	res, err := sys.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refeval.Query(q, sys.Schema, sys.Cluster())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 1 || !slices.EqualFunc(res.Rows, want, func(x, y Row) bool { return slices.Equal(x, y) }) {
		t.Errorf("rows %v, reference %v, want the one match [[%d]]", res.Rows, want, n/3)
	}
}
