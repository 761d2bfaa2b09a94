package cgdqp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"cgdqp/internal/executor"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/policy"
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

// eachEvaluator runs f on a fresh system once with the vector kernels
// and once with the interpreter (Options.NoVectorKernels).
func eachEvaluator(t *testing.T, opts Options, f func(t *testing.T, sys *System)) {
	for _, interp := range []bool{false, true} {
		t.Run(fmt.Sprintf("NoVectorKernels=%v", interp), func(t *testing.T) {
			opts.NoVectorKernels = interp
			f(t, NewSystemWith(opts))
		})
	}
}

// queryReads requires sql to return want, printed, as the reference
// evaluator does.
func queryReads(t *testing.T, sys *System, sql, want string) {
	t.Helper()
	res, err := sys.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	ref, err := refeval.Query(sql, sys.Schema, sys.Cluster())
	if err != nil {
		t.Fatalf("%s: reference: %v", sql, err)
	}
	if got := fmt.Sprint(res.Rows); got != want || fmt.Sprint(ref) != want {
		t.Errorf("%s: %s, reference %v, want %s", sql, got, ref, want)
	}
}

// TestLoadRefusesNaN: a DOUBLE is never NaN, so Load refuses one with
// ErrColumnType. It closes a leak: a NaN compared equal to every
// number, so under a grant scoped by `k > 0.5` the query `k = 1`
// shipped the NaN row to L1, an order Implies does not reason over.
func TestLoadRefusesNaN(t *testing.T) {
	eachEvaluator(t, Options{ResultLocation: "L1"}, func(t *testing.T, sys *System) {
		sys.MustDefineTable("A", "db-a", "L2", 3, Col("k", TFloat), Col("v", TInt))
		sys.MustDefineTable("B", "db-b", "L1", 1, Col("w", TInt))
		sys.MustAddPolicy("ship k, v from A to L1 where k > 0.5")
		rows := []Row{{Float(0), Int(2)}, {Float(1), Int(3)}, {Float(math.NaN()), Int(4)}}
		if err := sys.Load("A", rows); !errors.Is(err, ErrColumnType) || !strings.Contains(err.Error(), "NaN") {
			t.Errorf("Load of a NaN: %v, want ErrColumnType", err)
		}
		queryReads(t, sys, "SELECT A.k, A.v FROM A WHERE A.k = 1", "[]")
		sys.MustLoad("A", rows[:2])
		queryReads(t, sys, "SELECT A.k, A.v FROM A WHERE A.k = 1", "[[1 3]]")
	})
}

// TestNaNArithmeticIsNull: float arithmetic that comes to NaN (+Inf −
// +Inf) is a DOUBLE NULL, as x / 0 is, so it matches nothing and sums
// to NULL; before, the NaN compared equal to 7 and SUM returned NaN.
func TestNaNArithmeticIsNull(t *testing.T) {
	eachEvaluator(t, Options{}, func(t *testing.T, sys *System) {
		sys.MustDefineTable("A", "db-a", "L2", 2, Col("k", TFloat), Col("v", TInt))
		sys.MustAddPolicy("ship * from A to *")
		sys.MustLoad("A", []Row{{Float(math.Inf(1)), Int(1)}, {Float(2), Int(2)}})
		queryReads(t, sys, "SELECT A.v FROM A WHERE A.k - A.k = 7", "[]")
		queryReads(t, sys, "SELECT SUM(A.k - A.k) AS s FROM A WHERE A.v = 1", "[[NULL]]")
		queryReads(t, sys, "SELECT AVG(A.k) AS s FROM A WHERE A.k > 1 AND A.k - A.k IS NULL", "[[+Inf]]")
	})
}

// TestNegativeZeroGroupsWithZero: Load stores a DOUBLE −0 as 0, so it
// groups with 0 (−0 = 0 holds); before, GROUP BY kept three groups.
func TestNegativeZeroGroupsWithZero(t *testing.T) {
	eachEvaluator(t, Options{}, func(t *testing.T, sys *System) {
		sys.MustDefineTable("A", "db-a", "L2", 3, Col("k", TFloat), Col("v", TInt))
		sys.MustAddPolicy("ship * from A to *")
		sys.MustLoad("A", []Row{{Float(math.Copysign(0, -1)), Int(1)}, {Float(0), Int(2)}, {Float(1), Int(3)}})
		queryReads(t, sys, "SELECT A.k, COUNT(*) AS n FROM A GROUP BY A.k ORDER BY A.k", "[[0 2] [1 1]]")
	})
}

// TestInfiniteSumFailsOnEveryPlan: a SUM over +Inf and −Inf has no
// DOUBLE, so the query fails whether AggPushdown pre-sums A per join
// key or not, and the reference fails too. Were it NULL, the final SUM
// of the pushed plan would skip key 1's NULL partial and read 5 where
// the plan without the rule reads NULL.
func TestInfiniteSumFailsOnEveryPlan(t *testing.T) {
	eachEvaluator(t, Options{ResultLocation: "L1"}, func(t *testing.T, sys *System) {
		sys.MustDefineTable("A", "db-a", "L2", 3, Col("k", TInt), Col("x", TFloat))
		sys.MustDefineTable("B", "db-b", "L1", 2, Col("k", TInt), Col("g", TString))
		// A.x leaves L2 only summed per k, so the plan pushes SUM(A.x).
		sys.MustAddPolicy("ship k from A to *")
		sys.MustAddPolicy("ship x as aggregates sum from A to L1 group by k")
		sys.MustAddPolicy("ship * from B to *")
		sys.MustLoad("A", []Row{{Int(1), Float(math.Inf(1))}, {Int(1), Float(math.Inf(-1))}, {Int(2), Float(5)}})
		sys.MustLoad("B", []Row{{Int(1), String("g")}, {Int(2), String("g")}})
		free := policy.NewCatalog()
		free.AddAll(policy.MustParse("ship * from A to *", "a", "db-a"), policy.MustParse("ship * from B to *", "b", "db-b"))
		unpushed := optimizer.New(sys.Schema, free, sys.network(), optimizer.Options{Compliant: true, ResultLocation: "L1", DisableAggPushdown: true})
		const q = "SELECT B.g, SUM(A.x) AS s FROM A, B WHERE A.k = B.k %s GROUP BY B.g"
		for _, c := range []struct{ where, want string }{{"", ""}, {"AND A.k = 2", "[['g' 5]]"}} {
			sql := fmt.Sprintf(q, c.where)
			p, err := sys.Explain(sql)
			if err != nil || !strings.Contains(p.String(), "_p_") {
				t.Fatalf("%s: the plan does not push SUM(A.x) (%v):\n%v", sql, err, p)
			}
			res, err := sys.Query(sql)
			ref, rerr := refeval.Query(sql, sys.Schema, sys.Cluster())
			o, oerr := unpushed.OptimizeSQL(sql)
			if oerr != nil {
				t.Fatalf("%s without AggPushdown: %v", sql, oerr)
			}
			rows, _, uerr := executor.RunParallelOpts(context.Background(), o.Plan, sys.Cluster(), nil, executor.ExecOptions{NoKernels: sys.opts.NoVectorKernels})
			if c.want == "" {
				if err == nil || rerr == nil || uerr == nil {
					t.Errorf("%s: pushed %v, %v; reference %v, %v; unpushed %v, %v; want three errors", sql, res, err, ref, rerr, rows, uerr)
				}
				continue
			}
			if err != nil || rerr != nil || uerr != nil {
				t.Fatalf("%s: %v, reference %v, unpushed %v", sql, err, rerr, uerr)
			}
			if got := fmt.Sprint(res.Rows); got != c.want || fmt.Sprint(ref) != c.want || fmt.Sprint(rows) != c.want {
				t.Errorf("%s: pushed %s, reference %v, unpushed %v; want %s", sql, got, ref, rows, c.want)
			}
		}
	})
}
