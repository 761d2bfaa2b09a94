package cgdqp

import (
	"errors"
	"strings"
	"testing"
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
