package policy

import (
	"sync"
	"testing"

	"cgdqp/internal/expr"
)

// --- Table 1 reproduction (Section 5) ---------------------------------
//
// Expressions over T(A, B, C, D, E, F, G) in database "d":
//
//	e1 ≡ ship A, B, C from T to l2, l3
//	e2 ≡ ship A, B from T to l1, l2, l3, l4
//	e3 ≡ ship A, D from T to l1, l3 where B > 10
//	e4 ≡ ship F, G as aggregates sum, avg from T to l1, l2 group by E, C
//
// Queries:
//
//	q1 ≡ Π_{A,C,D}(σ_{B>15}(T))   → 𝒜 = {l3}
//	q2 ≡ _C G_{sum(F*(1-G))}(T)   → 𝒜 = {l1, l2}

func table1Catalog() *Catalog {
	cat := NewCatalog()
	cat.AddAll(
		MustParse("ship A, B, C from T to l2, l3", "e1", "d"),
		MustParse("ship A, B from T to l1, l2, l3, l4", "e2", "d"),
		MustParse("ship A, D from T to l1, l3 where B > 10", "e3", "d"),
		MustParse("ship F, G as aggregates sum, avg from T to l1, l2 group by E, C", "e4", "d"),
	)
	return cat
}

var table1Locs = []string{"l1", "l2", "l3", "l4"}

func attr(name string) Attr { return Attr{Table: "t", Name: name} }

func rawOut(names ...string) []OutAttr {
	out := make([]OutAttr, len(names))
	for i, n := range names {
		out[i] = OutAttr{Attr: attr(n)}
	}
	return out
}

func tcol(name string) *expr.Col { return expr.NewCol("t", name) }

func TestTable1Query1(t *testing.T) {
	ev := NewEvaluator(table1Catalog(), table1Locs)
	q1 := &Query{
		DB:       "d",
		OutAttrs: append(rawOut("a", "c", "d"), OutAttr{Attr: attr("b")}), // B accessed by the predicate
		Pred:     expr.NewCmp(expr.GT, tcol("b"), expr.NewConst(expr.NewInt(15))),
	}
	got := ev.Evaluate(q1)
	if got.Key() != "l3" {
		t.Errorf("𝒜(q1) = %s, want {l3}", got)
	}
}

func TestTable1Query2(t *testing.T) {
	ev := NewEvaluator(table1Catalog(), table1Locs)
	q2 := &Query{
		DB: "d",
		OutAttrs: []OutAttr{
			{Attr: attr("c")},
			{Attr: attr("f"), Agg: expr.AggSum, HasAgg: true},
			{Attr: attr("g"), Agg: expr.AggSum, HasAgg: true},
		},
		GroupBy:    []Attr{attr("c")},
		Aggregated: true,
	}
	got := ev.Evaluate(q2)
	if got.Key() != "l1,l2" {
		t.Errorf("𝒜(q2) = %s, want {l1, l2}", got)
	}
}

func TestTable1PerAttributeSets(t *testing.T) {
	// Verify the per-attribute L_a evolution indirectly: a query exposing
	// only A gets the union of e1, e2 and e3 destinations.
	ev := NewEvaluator(table1Catalog(), table1Locs)
	q := &Query{DB: "d", OutAttrs: rawOut("a"),
		Pred: expr.NewCmp(expr.GT, tcol("b"), expr.NewConst(expr.NewInt(15)))}
	// L_A from e1 {l2,l3} ∪ e2 {l1..l4} ∪ e3 {l1,l3}; predicate exposes B:
	// L_B from e1 ∪ e2 = {l1..l4}. Intersection = {l1,l2,l3,l4}.
	if got := ev.Evaluate(q); got.Key() != "l1,l2,l3,l4" {
		t.Errorf("𝒜 = %s", got)
	}
}

func TestAggregateQueryBasicExpression(t *testing.T) {
	// Case 2 of Algorithm 1: aggregated use of an attribute is covered by
	// a basic expression (raw is "less aggregated").
	ev := NewEvaluator(table1Catalog(), table1Locs)
	q := &Query{
		DB:         "d",
		OutAttrs:   []OutAttr{{Attr: attr("c"), Agg: expr.AggSum, HasAgg: true}},
		Aggregated: true,
	}
	if got := ev.Evaluate(q); got.Key() != "l2,l3" {
		t.Errorf("sum(C) should inherit e1's destinations, got %s", got)
	}
}

func TestSelectionQueryAggregateExpressionGivesNothing(t *testing.T) {
	// Example 2: Π_acctbal(C) cannot be shipped when only an aggregate
	// expression covers acctbal.
	cat := NewCatalog()
	cat.Add(MustParse("ship acctbal as aggregates sum, avg from Customer to * group by mktseg, region", "p", "db-n"))
	ev := NewEvaluator(cat, []string{"N", "E", "A"})
	q := &Query{DB: "db-n", OutAttrs: []OutAttr{{Attr: Attr{Table: "customer", Name: "acctbal"}}}}
	if got := ev.Evaluate(q); !got.Empty() {
		t.Errorf("raw acctbal must not ship, got %s", got)
	}
}

func TestAggregateExpressionExample2(t *testing.T) {
	cat := NewCatalog()
	cat.Add(MustParse("ship acctbal as aggregates sum, avg from Customer to * group by mktseg, region", "p", "db-n"))
	ev := NewEvaluator(cat, []string{"N", "E", "A"})
	ca := Attr{Table: "customer", Name: "acctbal"}

	// G_sum(acctbal)(C): global aggregate, empty group-by ⊆ G_e.
	q := &Query{DB: "db-n", OutAttrs: []OutAttr{{Attr: ca, Agg: expr.AggSum, HasAgg: true}}, Aggregated: true}
	if got := ev.Evaluate(q); got.Key() != "A,E,N" {
		t.Errorf("global sum: %s", got)
	}
	// region G_avg(acctbal)(C): group by region allowed.
	q2 := &Query{DB: "db-n",
		OutAttrs:   []OutAttr{{Attr: Attr{Table: "customer", Name: "region"}}, {Attr: ca, Agg: expr.AggAvg, HasAgg: true}},
		GroupBy:    []Attr{{Table: "customer", Name: "region"}},
		Aggregated: true,
	}
	if got := ev.Evaluate(q2); got.Key() != "A,E,N" {
		t.Errorf("group by region: %s", got)
	}
	// G_sum(acctbal)(σ_name='abc'(C)): predicate exposes name (uncovered).
	q3 := &Query{DB: "db-n",
		OutAttrs: []OutAttr{
			{Attr: ca, Agg: expr.AggSum, HasAgg: true},
			{Attr: Attr{Table: "customer", Name: "name"}},
		},
		Pred:       expr.NewCmp(expr.EQ, expr.NewCol("customer", "name"), expr.NewConst(expr.NewString("abc"))),
		Aggregated: true,
	}
	if got := ev.Evaluate(q3); !got.Empty() {
		t.Errorf("filter on name must block shipping, got %s", got)
	}
	// MIN is not an allowed function.
	q4 := &Query{DB: "db-n", OutAttrs: []OutAttr{{Attr: ca, Agg: expr.AggMin, HasAgg: true}}, Aggregated: true}
	if got := ev.Evaluate(q4); !got.Empty() {
		t.Errorf("min(acctbal) not allowed, got %s", got)
	}
	// Grouping by an attribute outside G_e fails the G_q ⊆ G_e check.
	q5 := &Query{DB: "db-n",
		OutAttrs:   []OutAttr{{Attr: Attr{Table: "customer", Name: "name"}}, {Attr: ca, Agg: expr.AggSum, HasAgg: true}},
		GroupBy:    []Attr{{Table: "customer", Name: "name"}},
		Aggregated: true,
	}
	if got := ev.Evaluate(q5); !got.Empty() {
		t.Errorf("group by name not allowed, got %s", got)
	}
}

func TestCarCoSection3Examples(t *testing.T) {
	// P_N from Example 1 plus home-location semantics from Section 3.2.
	cat := NewCatalog()
	cat.AddAll(
		MustParse("ship custkey, name from Customer C to Asia, Europe", "n1", "db-n"),
		MustParse("ship mktseg, region from Customer C to Europe where mktseg = 'commercial'", "n2", "db-n"),
	)
	ev := NewEvaluator(cat, []string{"NorthAmerica", "Europe", "Asia"})
	ck := Attr{Table: "customer", Name: "custkey"}
	nm := Attr{Table: "customer", Name: "name"}

	// Π_{c,n}(C) → {N, A, E}.
	q := &Query{DB: "db-n", Home: "NorthAmerica", OutAttrs: []OutAttr{{Attr: ck}, {Attr: nm}}}
	if got := ev.Evaluate(q); got.Key() != "Asia,Europe,NorthAmerica" {
		t.Errorf("Π_{c,n}(C): %s", got)
	}
	// Π_n(σ_{acctbal=100}(C)) → {N} (the predicate exposes acctbal).
	q2 := &Query{DB: "db-n", Home: "NorthAmerica",
		OutAttrs: []OutAttr{{Attr: nm}, {Attr: Attr{Table: "customer", Name: "acctbal"}}},
		Pred:     expr.NewCmp(expr.EQ, expr.NewCol("customer", "acctbal"), expr.NewConst(expr.NewInt(100))),
	}
	if got := ev.Evaluate(q2); got.Key() != "NorthAmerica" {
		t.Errorf("Π_n(σ_a=100(C)): %s", got)
	}
	// Example 1's third query: mktseg predicate routes to Europe only.
	q3 := &Query{DB: "db-n", Home: "NorthAmerica",
		OutAttrs: []OutAttr{
			{Attr: ck}, {Attr: nm}, {Attr: Attr{Table: "customer", Name: "region"}},
			{Attr: Attr{Table: "customer", Name: "mktseg"}},
		},
		Pred: expr.NewAnd(
			expr.NewLike(expr.NewCol("customer", "name"), "A%"),
			expr.NewCmp(expr.EQ, expr.NewCol("customer", "mktseg"), expr.NewConst(expr.NewString("commercial")))),
	}
	if got := ev.Evaluate(q3); got.Key() != "Europe,NorthAmerica" {
		t.Errorf("commercial query: %s", got)
	}
}

func TestEvaluatorCacheAndEta(t *testing.T) {
	ev := NewEvaluator(table1Catalog(), table1Locs)
	q := &Query{DB: "d", OutAttrs: rawOut("a")}
	var st EvalStats
	first := ev.EvaluateWith(q, &st)
	eta := ev.Eta()
	if eta == 0 {
		t.Fatal("η should count considered expressions")
	}
	if st.Eta != eta || st.Calls != 1 {
		t.Errorf("per-caller stats diverge: %+v vs eta=%d", st, eta)
	}
	second := ev.EvaluateWith(q, &st)
	if !first.Equal(second) {
		t.Error("cache changed result")
	}
	if ev.Eta() != eta {
		t.Error("cache hit must not grow η")
	}
	if ev.Hits() != 1 || ev.Calls() != 2 {
		t.Errorf("stats: hits=%d calls=%d", ev.Hits(), ev.Calls())
	}
	if st.Hits != 1 || st.Calls != 2 {
		t.Errorf("per-caller stats: %+v", st)
	}
	ev.ResetStats()
	if ev.Eta() != 0 || ev.Calls() != 0 {
		t.Error("ResetStats")
	}
	// Any catalog change — here a decoy grant for another database —
	// makes every memoized result a miss.
	ev.Policies.Add(MustParse("ship k from decoy to *", "decoy", "other-db"))
	if got := ev.Evaluate(q); !got.Equal(first) {
		t.Errorf("decoy grant changed the result: %s vs %s", got, first)
	}
	if ev.Eta() == 0 || ev.Hits() != 0 {
		t.Errorf("after a catalog change the memo must miss: η=%d hits=%d", ev.Eta(), ev.Hits())
	}
}

func TestEvaluateUnknownDBAndEmptyAttrs(t *testing.T) {
	ev := NewEvaluator(table1Catalog(), table1Locs)
	// No policies for this DB: nothing ships (conservative default).
	q := &Query{DB: "other", OutAttrs: rawOut("a")}
	if got := ev.Evaluate(q); !got.Empty() {
		t.Errorf("unknown DB: %s", got)
	}
	// Bare COUNT(*): only home.
	q2 := &Query{DB: "d", Home: "l1", Aggregated: true}
	if got := ev.Evaluate(q2); got.Key() != "l1" {
		t.Errorf("COUNT(*): %s", got)
	}
}

func TestSyntacticModeIsStricter(t *testing.T) {
	cat := table1Catalog()
	q := &Query{
		DB:       "d",
		OutAttrs: append(rawOut("d"), OutAttr{Attr: attr("b")}),
		Pred:     expr.NewCmp(expr.GT, tcol("b"), expr.NewConst(expr.NewInt(15))),
	}
	full := NewEvaluator(cat, table1Locs)
	if got := full.Evaluate(q); got.Empty() {
		t.Fatalf("full mode should allow D via e3: %s", got)
	}
	strict := NewEvaluator(cat, table1Locs)
	strict.Mode = expr.ImplicationSyntactic
	// B > 15 no longer implies B > 10 syntactically, so e3 is skipped.
	if got := strict.Evaluate(q); !got.Empty() {
		t.Errorf("syntactic mode should reject e3: %s", got)
	}
}

func TestCatalogBasics(t *testing.T) {
	cat := table1Catalog()
	if cat.Len() != 4 {
		t.Errorf("Len = %d", cat.Len())
	}
	if len(cat.ForDB("d")) != 4 || len(cat.ForDB("D")) != 4 {
		t.Error("ForDB case-insensitivity")
	}
	if len(cat.ForDB("x")) != 0 {
		t.Error("unknown DB")
	}
	if dbs := cat.Databases(); len(dbs) != 1 || dbs[0] != "d" {
		t.Errorf("Databases: %v", dbs)
	}
	fp1 := cat.Fingerprint()
	cat.Add(MustParse("ship E from T to l1", "e5", "d"))
	if cat.Fingerprint() == fp1 {
		t.Error("fingerprint must change")
	}
}

func TestExpressionAccessorsAndString(t *testing.T) {
	e := MustParse("ship F, G as aggregates sum, avg from T to l1, l2 group by E, C", "e4", "d")
	ta := func(n string) Attr { return Attr{Table: "t", Name: n} }
	if !e.IsAggregate() || !e.Covers(ta("f")) || e.Covers(ta("e")) {
		t.Error("attr coverage")
	}
	if !e.InGroupBy(ta("e")) || e.InGroupBy(ta("f")) {
		t.Error("group-by coverage")
	}
	if !e.AllowsFn(expr.AggSum) || e.AllowsFn(expr.AggCount) {
		t.Error("fn coverage")
	}
	s := e.String()
	if s != "ship f, g as aggregates sum, avg from d.t to l1, l2 group by e, c" {
		t.Errorf("String: %q", s)
	}
	star := MustParse("ship * from T to *", "s", "d")
	if !star.Covers(ta("anything")) {
		t.Error("star coverage")
	}
	if star.Covers(Attr{Table: "other", Name: "x"}) {
		t.Error("star coverage is table-scoped")
	}
	if got := star.Destinations([]string{"x", "y"}); len(got) != 2 {
		t.Errorf("star destinations: %v", got)
	}
	if got := e.Destinations([]string{"x"}); len(got) != 2 || got[0] != "l1" {
		t.Errorf("explicit destinations: %v", got)
	}
}

func TestFromStmtValidation(t *testing.T) {
	if _, err := Parse("ship a from t to *", "x", ""); err == nil {
		t.Error("missing database must fail")
	}
	if _, err := Parse("ship a from db-1.t to *", "x", "db-2"); err == nil {
		t.Error("conflicting database must fail")
	}
	if e, err := Parse("ship a from db-1.t to *", "x", ""); err != nil || e.DB != "db-1" {
		t.Errorf("db from qualifier: %v %v", e, err)
	}
	if e, err := Parse("ship a from db-1.t to *", "x", "DB-1"); err != nil || e.DB != "db-1" {
		t.Errorf("case-insensitive db match: %v %v", e, err)
	}
}

// TestEvaluatorMemoUnderCatalogChurn: the memo is invalidated by the
// catalog's own version, with no call from whoever changed it, and a
// result can never be stamped newer than the grants it was computed
// from — while other goroutines evaluate (and memoize) concurrently, an
// evaluation that starts after Remove returned never sees the revoked
// grant, and one that starts after Add returned always sees it (run
// under -race).
func TestEvaluatorMemoUnderCatalogChurn(t *testing.T) {
	cat := table1Catalog()
	ev := NewEvaluator(cat, table1Locs)
	// E is shippable raw only through the grant that churns. A Query
	// caches its digest, so every goroutine describes its own.
	newQuery := func() *Query { return &Query{DB: "d", OutAttrs: rawOut("e")} }
	q := newQuery()
	grant := MustParse("ship E from T to l4", "churn", "d")

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			q := newQuery()
			for {
				select {
				case <-stop:
					return
				default:
					ev.Evaluate(q)
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		v := cat.Version()
		cat.Add(grant)
		if got := ev.Evaluate(q); !got.Contains("l4") {
			t.Fatalf("round %d: evaluation after Add misses the grant: %s", i, got)
		}
		if !cat.Remove("churn") {
			t.Fatalf("round %d: Remove found nothing", i)
		}
		if got := ev.Evaluate(q); got.Contains("l4") {
			t.Fatalf("round %d: evaluation after Remove still ships to l4: %s", i, got)
		}
		if got := cat.Version(); got != v+2 {
			t.Fatalf("round %d: version moved by %d, want 2", i, got-v)
		}
	}
	close(stop)
	readers.Wait()
}
