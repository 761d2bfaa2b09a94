package cgdqp

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"cgdqp/internal/cluster"
	"cgdqp/internal/executor"
	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/plan"
	"cgdqp/internal/policy"
	"cgdqp/internal/schema"
	"cgdqp/internal/sqlparse"
	"cgdqp/internal/tpch"
	"cgdqp/internal/workload"
)

// Predicate transfer (optimizer.Normalize) copies a single-column
// conjunct across the column equalities of inner joins. These tests pin
// it as predicate strengthening: writing the copies out changes nothing,
// and blocking them changes no answer.

// statedConjuncts returns the conjuncts of every Filter of a bound plan.
func statedConjuncts(n *plan.Node) []expr.Expr {
	var out []expr.Expr
	n.Walk(func(x *plan.Node) bool {
		if x.Kind == plan.Filter {
			out = append(out, expr.Conjuncts(x.Pred)...)
		}
		return true
	})
	return out
}

// strengthened returns q with the conjuncts predicate transfer derives
// for it written out at the end of its WHERE clause, in the order the
// normalized plan's filters hold them, and how many there are.
func strengthened(t *testing.T, q string, cat *schema.Catalog) (string, int) {
	t.Helper()
	logical, err := sqlparse.ParseAndBind(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	stated := statedConjuncts(logical)
	var extra []string
	for _, c := range statedConjuncts(optimizer.Normalize(logical.Clone())) {
		if !slices.ContainsFunc(stated, c.Equal) && !slices.Contains(extra, c.String()) {
			extra = append(extra, c.String())
		}
	}
	if len(extra) == 0 {
		return q, 0
	}
	where, group, _ := strings.Cut(q, " GROUP BY ")
	if group != "" {
		group = " GROUP BY " + group
	}
	return where + " AND " + strings.Join(extra, " AND ") + group, len(extra)
}

// opaque rewrites every `int column op constant`, BETWEEN and IN
// conjunct of the plan's filters to read column + 0: the same predicate,
// which transfer does not recognize, so nothing is copied.
func opaque(n *plan.Node) *plan.Node {
	n.Walk(func(x *plan.Node) bool {
		if x.Kind != plan.Filter {
			return true
		}
		wrap := func(e expr.Expr) (expr.Expr, bool) {
			c, ok := e.(*expr.Col)
			if i := x.Children[0].ColIndex(c); !ok || i < 0 || x.Children[0].Cols[i].Type != expr.TInt {
				return e, false
			}
			return expr.NewArith(expr.Add, c, expr.NewConst(expr.NewInt(0))), true
		}
		var out []expr.Expr
		for _, c := range expr.Conjuncts(x.Pred) {
			switch p := c.(type) {
			case *expr.Cmp:
				if _, isConst := p.R.(*expr.Const); isConst {
					if l, ok := wrap(p.L); ok {
						c = expr.NewCmp(p.Op, l, p.R)
					}
				}
			case *expr.Between:
				if e, ok := wrap(p.E); ok {
					c = expr.NewBetween(e, p.Lo, p.Hi)
				}
			case *expr.In:
				if e, ok := wrap(p.E); ok {
					c = &expr.In{E: e, List: p.List, Negated: p.Negated}
				}
			}
			out = append(out, c)
		}
		x.Pred = expr.AndAll(out...)
		return true
	})
	return n
}

// legalFloor is the number of (generated query, policy set) pairs of
// TestPredicateStrengtheningProperty that had a compliant plan before
// predicate transfer existed. Transfer only strengthens local
// predicates, so the count may grow but never fall below it.
const legalFloor = 270

// TestPredicateStrengtheningProperty checks, for generated queries Q
// under the Table 3 sets and generated policy sets, with Q′ = Q plus
// the conjuncts transfer derives written out:
//
//  1. Q and Q′ normalize to the same plan digest (copies are never
//     added twice);
//  2. Q, Q′ and Q with transfer blocked return the same rows;
//  3. Q and Q′ are legal under exactly the same sets, and no fewer
//     pairs are legal than before transfer (legalFloor).
func TestPredicateStrengtheningProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized end-to-end check")
	}
	cat := tpch.NewCatalog(0.0005)
	net := network.FiveRegionWAN(cat.Locations())
	cl := cluster.New(cat, net)
	if err := tpch.Generate(cat, cl); err != nil {
		t.Fatal(err)
	}
	type set struct {
		name string
		opt  *optimizer.Optimizer
	}
	var sets []set
	for _, n := range workload.SetNames() {
		sets = append(sets, set{"Table 3 " + string(n), optimizer.New(cat, workload.TPCHSet(n), net, optimizer.Options{Compliant: true})})
	}
	for i, n := range []workload.SetName{workload.SetC, workload.SetCR, workload.SetCRA} {
		pc := workload.NewPolicyGen(uint64(2000+i), cat.Locations()).Generate(n, 25)
		sets = append(sets, set{"generated " + string(n), optimizer.New(cat, pc, net, optimizer.Options{Compliant: true})})
	}
	trad := optimizer.New(cat, policy.NewCatalog(), net, optimizer.Options{Compliant: false})
	run := func(logical *plan.Node) []expr.Row {
		t.Helper()
		res, err := trad.Optimize(logical)
		if err != nil {
			t.Fatal(err)
		}
		rows, _, err := executor.Run(res.Plan, cl)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	bind := func(q string) *plan.Node {
		t.Helper()
		n, err := sqlparse.ParseAndBind(q, cat)
		if err != nil {
			t.Fatalf("%v\n%s", err, q)
		}
		return n
	}

	legal, strengthenedQs := 0, 0
	for qi, q := range workload.NewQueryGen(99).Generate(40) {
		qs, copies := strengthened(t, q, cat)
		if copies > 0 {
			strengthenedQs++
		}
		if d, ds := optimizer.Normalize(bind(q)).Digest(), optimizer.Normalize(bind(qs)).Digest(); d != ds {
			t.Fatalf("q%d: Q and Q′ normalize differently\nQ:  %s\nQ′: %s\n%s\n%s", qi, q, qs, d, ds)
		}
		logical := bind(q)
		want := run(opaque(logical.Clone()))
		for name, l := range map[string]*plan.Node{"Q": logical, "Q′": bind(qs)} {
			if diff := rowsDiff(run(l), want); diff != "" {
				t.Fatalf("q%d: %s returns other rows than Q with transfer blocked (%s)\n%s", qi, name, diff, qs)
			}
		}
		for _, s := range sets {
			_, err := s.opt.OptimizeSQL(q)
			_, errS := s.opt.OptimizeSQL(qs)
			for _, e := range []error{err, errS} {
				if e != nil && !errors.Is(e, optimizer.ErrNoCompliantPlan) {
					t.Fatalf("q%d %s: %v", qi, s.name, e)
				}
			}
			if (err == nil) != (errS == nil) {
				t.Fatalf("q%d %s: Q legal %v, Q′ legal %v\nQ′: %s", qi, s.name, err == nil, errS == nil, qs)
			}
			if err == nil {
				legal++
			}
		}
	}
	t.Logf("%d of 40 queries strengthened; %d (query, set) pairs legal, %d more than before transfer",
		strengthenedQs, legal, legal-legalFloor)
	if legal < legalFloor {
		t.Errorf("%d legal (query, set) pairs, below the floor of %d", legal, legalFloor)
	}
	if strengthenedQs == 0 {
		t.Error("no generated query is strengthened: the property checks nothing")
	}
}

// TestTransferWithNullJoinKeys: equality-to-constant, IN and BETWEEN
// conjuncts transfer across a join whose keys hold NULLs on both sides,
// and the answer equals the one with transfer blocked (column + 0).
func TestTransferWithNullJoinKeys(t *testing.T) {
	sys := NewSystem()
	sys.MustDefineTable("a", "db-1", "L1", 6, Col("k", TInt), Col("v", TString))
	sys.MustDefineTable("b", "db-2", "L2", 6, Col("k", TInt), Col("w", TInt))
	sys.MustAddPolicy("ship * from a to *")
	sys.MustAddPolicy("ship * from b to *")
	sys.MustLoad("a", []Row{{Int(1), String("a1")}, {Int(2), String("a2")}, {Null(), String("an")},
		{Int(3), String("a3")}, {Null(), String("an2")}, {Int(2), String("a2b")}})
	sys.MustLoad("b", []Row{{Int(2), Int(20)}, {Null(), Int(0)}, {Int(3), Int(30)}, {Int(1), Int(10)},
		{Null(), Int(-1)}, {Int(9), Int(90)}})
	for _, c := range []struct{ pred, copy, blocked string }{
		{"a.k = 2", "b.k = 2", "a.k + 0 = 2"},
		{"a.k IN (1, 3)", "b.k IN (1, 3)", "a.k + 0 IN (1, 3)"},
		{"a.k BETWEEN 2 AND 3", "b.k BETWEEN 2 AND 3", "a.k + 0 BETWEEN 2 AND 3"},
		{"a.k >= 2", "b.k >= 2", "a.k + 0 >= 2"},
	} {
		const q = "SELECT a.v, b.w FROM a, b WHERE a.k = b.k AND %s"
		p, err := sys.Explain(fmt.Sprintf(q, c.pred))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(p.String(), c.copy) {
			t.Errorf("%s: no %s in the plan:\n%s", c.pred, c.copy, p)
		}
		got, err := sys.Query(fmt.Sprintf(q, c.pred))
		if err != nil {
			t.Fatal(err)
		}
		want, err := sys.Query(fmt.Sprintf(q, c.blocked))
		if err != nil {
			t.Fatal(err)
		}
		if diff := rowsDiff(got.Rows, want.Rows); diff != "" || len(got.Rows) == 0 {
			t.Errorf("%s: %d rows, blocked %d (%s)", c.pred, len(got.Rows), len(want.Rows), diff)
		}
	}
}

// TestTransferAnswersPredicateScopedGrant: b's rows may leave L2 only
// where k < 5. Stated on a.k alone, the range reaches b's local query
// only through transfer, which makes the query answerable at L1; with
// transfer blocked (a.k + 0) it is refused.
func TestTransferAnswersPredicateScopedGrant(t *testing.T) {
	sys := NewSystemWith(Options{ResultLocation: "L1"})
	sys.MustDefineTable("a", "db-1", "L1", 3, Col("k", TInt), Col("v", TString))
	sys.MustDefineTable("b", "db-2", "L2", 3, Col("k", TInt), Col("w", TInt))
	sys.MustAddPolicy("ship * from a to *")
	sys.MustAddPolicy("ship k, w from b to L1 where k < 5")
	sys.MustLoad("a", []Row{{Int(1), String("a1")}, {Int(2), String("a2")}, {Int(7), String("a7")}})
	sys.MustLoad("b", []Row{{Int(1), Int(10)}, {Int(2), Int(20)}, {Int(7), Int(70)}})
	res, err := sys.Query("SELECT a.v, b.w FROM a, b WHERE a.k = b.k AND a.k < 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("%d rows, want 2", len(res.Rows))
	}
	if _, err := sys.Query("SELECT a.v, b.w FROM a, b WHERE a.k = b.k AND a.k + 0 < 3"); !errors.Is(err, ErrNoCompliantPlan) {
		t.Errorf("with transfer blocked: %v, want ErrNoCompliantPlan", err)
	}
}
