package feedback

import (
	"testing"

	"cgdqp/internal/expr"
	"cgdqp/internal/obs"
	"cgdqp/internal/plan"
	"cgdqp/internal/schema"
)

func scanNode(name, loc string, rows int64) *plan.Node {
	t := schema.NewTable(name, "db-1", loc, rows,
		schema.Column{Name: "k", Type: expr.TInt})
	n := plan.NewScan(t, "", -1)
	n.Kind = plan.TableScan
	n.Card = float64(rows)
	return n
}

func mark(prof *obs.PlanProfile, n *plan.Node, rows, opens int64) {
	st := prof.Stats(n)
	st.Rows.Store(rows)
	st.Opens.Store(opens)
}

func TestRecordExecutionFeedsStore(t *testing.T) {
	s := NewStore(Options{EWMAAlpha: 1})
	scan := scanNode("t", "L1", 100) // estimate 100
	prof := obs.NewPlanProfile()
	mark(prof, scan, 5000, 1) // actual 5000

	qerrs := RecordExecution(s, scan, prof)
	if len(qerrs) != 1 {
		t.Fatalf("qerrs = %d, want 1", len(qerrs))
	}
	if qerrs[0].QError != 50 || qerrs[0].Est != 100 || qerrs[0].Actual != 5000 {
		t.Fatalf("qerror record: %+v", qerrs[0])
	}
	hint, ok := s.CardHint(scan.SubplanDigest())
	if !ok || hint != 5000 {
		t.Fatalf("store hint = (%v, %v), want (5000, true)", hint, ok)
	}
}

func TestRecordExecutionShipTransparent(t *testing.T) {
	s := NewStore(Options{EWMAAlpha: 1})
	scan := scanNode("t", "L1", 10)
	ship := &plan.Node{Kind: plan.Ship, Children: []*plan.Node{scan},
		Cols: scan.Cols, FromLoc: "L1", Loc: "L2"}
	prof := obs.NewPlanProfile()
	mark(prof, scan, 800, 1)
	mark(prof, ship, 800, 1)

	qerrs := RecordExecution(s, ship, prof)
	// Only the scan is recorded; the Ship has no digest of its own.
	if len(qerrs) != 1 || qerrs[0].Op != "Scan" {
		t.Fatalf("qerrs = %+v, want one Scan entry", qerrs)
	}
	if hint, ok := s.CardHint(scan.SubplanDigest()); !ok || hint != 800 {
		t.Fatalf("hint under ship = (%v, %v)", hint, ok)
	}
}

func TestRecordExecutionSkipsUnderLimit(t *testing.T) {
	s := NewStore(Options{EWMAAlpha: 1})
	scan := scanNode("t", "L1", 10)
	limit := &plan.Node{Kind: plan.LimitExec, Children: []*plan.Node{scan},
		Cols: scan.Cols, LimitN: 5}
	limit.Card = 5
	prof := obs.NewPlanProfile()
	// Early termination: the scan produced only 5 of its true rows.
	mark(prof, scan, 5, 1)
	mark(prof, limit, 5, 1)

	qerrs := RecordExecution(s, limit, prof)
	// The limit node itself is recorded; the truncated scan is not.
	if len(qerrs) != 1 || qerrs[0].Op != "Limit" {
		t.Fatalf("qerrs = %+v, want one Limit entry", qerrs)
	}
	if _, ok := s.CardHint(scan.SubplanDigest()); ok {
		t.Fatal("truncated actual under Limit was recorded")
	}
}

func TestRecordExecutionNormalizesReopens(t *testing.T) {
	s := NewStore(Options{EWMAAlpha: 1, ActivateQError: 1.5})
	scan := scanNode("t", "L1", 10)
	prof := obs.NewPlanProfile()
	// NL inner side: opened 4 times, 100 rows per open accumulated.
	mark(prof, scan, 400, 4)

	RecordExecution(s, scan, prof)
	if hint, ok := s.CardHint(scan.SubplanDigest()); !ok || hint != 100 {
		t.Fatalf("per-open actual = (%v, %v), want (100, true)", hint, ok)
	}
}

func TestRecordExecutionJoinCommute(t *testing.T) {
	s := NewStore(Options{EWMAAlpha: 1})
	l := scanNode("a", "L1", 10)
	r := scanNode("b", "L2", 10)
	join := plan.NewJoin(l, r, expr.NewCmp(expr.EQ,
		expr.NewCol("a", "k"), expr.NewCol("b", "k")))
	join.Kind = plan.HashJoin
	join.Card = 10
	prof := obs.NewPlanProfile()
	mark(prof, l, 10, 1)
	mark(prof, r, 10, 1)
	mark(prof, join, 2000, 1)

	RecordExecution(s, join, prof)
	// One key per logical join: the commuted tree reads the hint the
	// executed one filed, and the store tracks the join once.
	commuted := plan.NewJoin(r.Clone(), l.Clone(), join.Pred)
	if _, ok := s.CardHint(commuted.SubplanDigest()); !ok {
		t.Fatal("no hint under commuted child order")
	}
	if got := s.Summary().Tracked; got != 3 {
		t.Fatalf("tracked %d digests, want 3 (two scans, one join)", got)
	}
}

func TestRecordExecutionNeverExecutedAndNil(t *testing.T) {
	s := NewStore(Options{})
	scan := scanNode("t", "L1", 10)
	prof := obs.NewPlanProfile() // no stats: operator never opened
	if qerrs := RecordExecution(s, scan, prof); len(qerrs) != 0 {
		t.Fatalf("never-executed operator reported: %+v", qerrs)
	}
	if RecordExecution(s, scan, nil) != nil {
		t.Fatal("nil profile not ignored")
	}
	if RecordExecution(nil, scan, prof) != nil {
		t.Fatal("nil store with empty profile returned qerrors")
	}
	// Nil store still computes q-errors for slow-log-only mode.
	mark(prof, scan, 500, 1)
	if qerrs := RecordExecution(nil, scan, prof); len(qerrs) != 1 {
		t.Fatalf("slow-log-only mode broken: %+v", qerrs)
	}
}
