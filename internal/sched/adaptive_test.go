package sched

import (
	"bytes"
	"context"
	"testing"
	"time"

	"cgdqp/internal/expr"
	"cgdqp/internal/feedback"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/plan"
	"cgdqp/internal/schema"
)

// TestAdjustAIMD drives the controller's step function directly with
// synthetic p99s: a breach halves both limits, recovery creeps them
// back to the configured ceilings.
func TestAdjustAIMD(t *testing.T) {
	cat, cl := carco(t)
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	s := NewServer(opt, cl, nil, Options{
		MaxConcurrent: 8, QueueDepth: 64,
		SLOTarget:     time.Second,
		AdaptInterval: time.Hour, // controller idle; we call adjust directly
	})
	defer s.Close()

	em, eq := s.Tuning()
	if em != 8 || eq != 64 {
		t.Fatalf("initial tuning = (%d, %d), want (8, 64)", em, eq)
	}

	// Breach: p99 2s against a 1s SLO. Multiplicative decrease.
	s.adjust(2.0)
	if em, eq = s.Tuning(); em != 4 || eq != 32 {
		t.Fatalf("after breach = (%d, %d), want (4, 32)", em, eq)
	}
	// Repeated breaches floor at 1.
	for i := 0; i < 10; i++ {
		s.adjust(2.0)
	}
	if em, eq = s.Tuning(); em != 1 || eq != 1 {
		t.Fatalf("floor = (%d, %d), want (1, 1)", em, eq)
	}

	// In the dead band (0.8·SLO .. SLO) nothing moves.
	s.adjust(0.9)
	if em, eq = s.Tuning(); em != 1 || eq != 1 {
		t.Fatalf("dead band moved tuning to (%d, %d)", em, eq)
	}

	// Recovery: additive increase back to the configured ceilings, never
	// beyond them.
	for i := 0; i < 100; i++ {
		s.adjust(0.1)
	}
	if em, eq = s.Tuning(); em != 8 || eq != 64 {
		t.Fatalf("after recovery = (%d, %d), want (8, 64)", em, eq)
	}
}

// TestStaticWithoutSLO pins that SLOTarget=0 keeps the effective limits
// exactly the configured ones and starts no controller.
func TestStaticWithoutSLO(t *testing.T) {
	defer leakCheck(t)()
	cat, cl := carco(t)
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	s := NewServer(opt, cl, nil, Options{MaxConcurrent: 2, QueueDepth: 4})
	if em, eq := s.Tuning(); em != 2 || eq != 4 {
		t.Fatalf("tuning = (%d, %d), want configured (2, 4)", em, eq)
	}
	resp, err := s.Do(context.Background(), countQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) == 0 {
		t.Fatal("no rows")
	}
	s.Close()
}

// TestAdaptiveServerServes runs a real adaptive server end to end: with
// a generous SLO queries still complete, the controller goroutine shuts
// down cleanly, and the e2e histogram accumulated samples.
func TestAdaptiveServerServes(t *testing.T) {
	defer leakCheck(t)()
	cat, cl := carco(t)
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	s := NewServer(opt, cl, nil, Options{
		MaxConcurrent: 4, QueueDepth: 16,
		SLOTarget:     time.Minute, // never breached
		AdaptInterval: 5 * time.Millisecond,
	})
	for i := 0; i < 6; i++ {
		if _, err := s.Do(context.Background(), countQuery); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.e2eHist.Snap().Count(); n < 6 {
		t.Fatalf("e2e histogram has %d samples, want >= 6", n)
	}
	if em, eq := s.Tuning(); em < 4 || eq < 16 {
		t.Fatalf("generous SLO shrank tuning to (%d, %d)", em, eq)
	}
	s.Close()
}

// TestAdmissionHonorsEffectiveQueueDepth: when the controller has
// clamped the queue bound below the configured one, Submit rejects at
// the effective depth.
func TestAdmissionHonorsEffectiveQueueDepth(t *testing.T) {
	defer leakCheck(t)()
	cat, cl := carco(t)
	opt := carcoOptimizer(t, cat, cl, optimizer.Options{})
	s := NewServer(opt, cl, nil, Options{
		MaxConcurrent: 1, QueueDepth: 8,
		SLOTarget:     time.Nanosecond, // every sample breaches
		AdaptInterval: time.Hour,
	})
	// Force the clamp as the controller would.
	for i := 0; i < 10; i++ {
		s.adjust(1)
	}
	if _, eq := s.Tuning(); eq != 1 {
		t.Fatalf("effective queue depth = %d, want 1", eq)
	}

	// Pin dispatch shut (as if a task held the only slot) so admitted
	// queries stay queued, then fill the 1-deep queue; the next
	// submission must bounce at the *effective* depth, not the
	// configured 8.
	s.mu.Lock()
	s.active = int(s.effMax.Load())
	s.mu.Unlock()
	tk1, err := s.Submit(context.Background(), Request{SQL: countQuery})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), Request{SQL: countQuery}); err == nil {
		t.Fatal("submission beyond the effective queue depth admitted")
	}
	s.mu.Lock()
	s.active = 0
	s.cond.Broadcast()
	s.mu.Unlock()
	if _, err := tk1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()
}

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
