package sched

import (
	"bytes"
	"context"
	"testing"

	"cgdqp/internal/expr"
	"cgdqp/internal/feedback"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/plan"
	"cgdqp/internal/schema"
)

// TestWeightedCensus pins the feedback-weighted gang slot accounting.
func TestWeightedCensus(t *testing.T) {
	tab := schema.NewTable("t", "db-1", "L1", 50,
		schema.Column{Name: "k", Type: expr.TInt})
	mk := func(card float64) *plan.Node {
		scan := plan.NewScan(tab, "", -1)
		scan.Kind = plan.TableScan
		scan.Loc = "L1"
		scan.Card = card
		root := &plan.Node{Kind: plan.Ship, Children: []*plan.Node{scan},
			Cols: scan.Cols, FromLoc: "L1", Loc: "L2", Card: card}
		return root
	}

	// Without feedback: one slot per fragment regardless of size.
	small, big := mk(50), mk(5_000_000)
	plain := siteCensus(big, 8, nil)
	if plain["L1"] != 1 || plain["L2"] != 1 {
		t.Fatalf("plain census = %v", plain)
	}

	fb := feedback.NewStore(feedback.Options{})
	wSmall := siteCensus(small, 8, fb)
	if wSmall["L1"] != 1 || wSmall["L2"] != 1 {
		t.Fatalf("small weighted census = %v, want 1 per site", wSmall)
	}
	// 5M rows: capped at 4 slots for the producing fragment.
	wBig := siteCensus(big, 8, fb)
	if wBig["L1"] != 4 {
		t.Fatalf("big weighted census = %v, want 4 at L1", wBig)
	}
	// Per-site clamp still applies with a small site bound.
	if c := siteCensus(big, 2, fb); c["L1"] != 2 {
		t.Fatalf("clamped census = %v, want 2 at L1", c)
	}

	// An activated hint overrides the stale estimate: the plan says 50
	// rows but observed actuals say 5M, so the weight follows the actual.
	liar := mk(50)
	digest := liar.Children[0].SubplanDigest()
	for i := 0; i < 2; i++ {
		fb.ObserveOperator(digest, 50, 5_000_000)
	}
	if _, ok := fb.CardHint(digest); !ok {
		t.Fatal("hint did not activate")
	}
	wLiar := siteCensus(liar, 8, fb)
	if wLiar["L1"] != 4 {
		t.Fatalf("hinted census = %v, want 4 at L1", wLiar)
	}
}

// TestServerFeedbackTelemetry runs a server with a feedback store and a
// zero-threshold slow log: executions must feed operator actuals, e2e
// samples, and emit parseable slow-log lines.
func TestServerFeedbackTelemetry(t *testing.T) {
	defer leakCheck(t)()
	cat, cl := carco(t)
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	fb := feedback.NewStore(feedback.Options{})
	var buf bytes.Buffer // writes serialized under the log's own mutex
	slow := feedback.NewSlowQueryLog(&buf, 0)
	s := NewServer(opt, cl, nil, Options{
		MaxConcurrent: 2, Feedback: fb, SlowLog: slow,
	})
	for i := 0; i < 3; i++ {
		if _, err := s.Do(context.Background(), countQuery); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	sum := fb.Summary()
	if sum.Tracked == 0 {
		t.Fatal("no operator actuals recorded")
	}
	if sum.Queries != 3 {
		t.Fatalf("e2e samples = %d, want 3", sum.Queries)
	}
	if slow.Count() != 3 {
		t.Fatalf("slow-log lines = %d, want 3", slow.Count())
	}
}
