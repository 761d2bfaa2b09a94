package feedback

import (
	"fmt"
	"sync"
	"testing"
)

func TestQError(t *testing.T) {
	cases := []struct {
		est, act, want float64
	}{
		{100, 100, 1},
		{10, 100, 10},
		{100, 10, 10},
		{0, 0, 1},   // floored at 1 row each
		{0, 50, 50}, // empty estimate does not divide by zero
		{50, 0, 50}, // empty actual likewise
		{0.5, 2, 2}, // sub-row estimates floor to 1
	}
	for _, c := range cases {
		if got := QError(c.est, c.act); got != c.want {
			t.Errorf("QError(%v, %v) = %v, want %v", c.est, c.act, got, c.want)
		}
	}
}

func TestHintActivation(t *testing.T) {
	s := NewStore()
	if _, ok := s.CardHint("d"); ok {
		t.Fatal("hint active before any observation")
	}
	if s.Epoch() != 0 {
		t.Fatalf("epoch moved before activation: %d", s.Epoch())
	}

	// The first observation past the q-error threshold activates.
	s.ObserveOperator("d", 100, 1000)
	hint, ok := s.CardHint("d")
	if !ok || hint != 1000 {
		t.Fatalf("CardHint = (%v, %v), want (1000, true)", hint, ok)
	}
	// A repeat neither re-activates nor moves the epoch.
	s.ObserveOperator("d", 100, 1000)
	if s.Epoch() != 1 {
		t.Fatalf("activation should bump the epoch once, got %d", s.Epoch())
	}
}

func TestAccurateEstimateNeverActivates(t *testing.T) {
	s := NewStore()
	for i := 0; i < 100; i++ {
		s.ObserveOperator("d", 100, 110) // q-error 1.1, below threshold
	}
	if _, ok := s.CardHint("d"); ok {
		t.Fatal("hint activated for an accurate estimate")
	}
	if s.Epoch() != 0 {
		t.Fatalf("epoch moved without activation: %d", s.Epoch())
	}
}

// TestNoOscillationAfterReoptimization pins the anti-flap property:
// after re-optimization the planner's estimate IS the hint, so the
// recorded q-error collapses to ~1 — and the hint must stay active (and
// the epoch still) rather than deactivate and re-activate forever.
func TestNoOscillationAfterReoptimization(t *testing.T) {
	s := NewStore()
	s.ObserveOperator("d", 10, 1000) // activates (q=100)
	if s.Epoch() != 1 {
		t.Fatalf("epoch after activation = %d, want 1", s.Epoch())
	}
	// Post-re-optimization runs: estimate now equals the actual.
	for i := 0; i < 50; i++ {
		s.ObserveOperator("d", 1000, 1000)
	}
	hint, ok := s.CardHint("d")
	if !ok || hint != 1000 {
		t.Fatalf("hint lost after accurate runs: (%v, %v)", hint, ok)
	}
	if s.Epoch() != 1 {
		t.Fatalf("stable hint churned the epoch: %d", s.Epoch())
	}
}

func TestHintDriftBumpsEpoch(t *testing.T) {
	s := NewStore()
	s.ObserveOperator("d", 10, 1000)
	if s.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", s.Epoch())
	}
	// Small movement: the running actual (an EWMA) moves to 1025, below
	// drift, no bump.
	s.ObserveOperator("d", 1000, 1100)
	if s.Epoch() != 1 {
		t.Fatalf("sub-drift movement bumped the epoch: %d", s.Epoch())
	}
	// Big movement: the data changed; re-point and re-price.
	s.ObserveOperator("d", 1000, 5000)
	if s.Epoch() != 2 {
		t.Fatalf("drift did not bump the epoch: %d", s.Epoch())
	}
	if hint, _ := s.CardHint("d"); hint != 0.75*1025+0.25*5000 {
		t.Fatalf("drifted hint = %v, want the running actual 2018.75", hint)
	}
}

// TestEmptyResultHintIsStable: an operator that returns no rows against
// a large estimate activates once, as a 1-row hint, and further empty
// executions neither re-activate it nor move the epoch.
func TestEmptyResultHintIsStable(t *testing.T) {
	s := NewStore()
	for i := 0; i < 5; i++ {
		s.ObserveOperator("d", 1000, 0)
	}
	if sum := s.Summary(); sum.Epoch != 1 || sum.ActiveHints != 1 {
		t.Fatalf("after 5 empty executions: epoch %d, active hints %d, want 1 and 1", sum.Epoch, sum.ActiveHints)
	}
	if hint, ok := s.CardHint("d"); !ok || hint != 1 {
		t.Fatalf("hint = (%v, %v), want (1, true)", hint, ok)
	}
}

func TestBoundedStoreDropsNewDigests(t *testing.T) {
	s := NewStore()
	for i := 0; i < maxSubplans+6; i++ {
		s.ObserveOperator(fmt.Sprintf("d%d", i), 10, 1000)
	}
	sum := s.Summary()
	if sum.Tracked != maxSubplans {
		t.Fatalf("tracked = %d, want %d", sum.Tracked, maxSubplans)
	}
	if sum.Dropped != 6 {
		t.Fatalf("dropped = %d, want 6", sum.Dropped)
	}
	// Existing digests still update at the cap.
	s.ObserveOperator("d0", 10, 1000)
	if s.Summary().Dropped != 6 {
		t.Fatal("update of a tracked digest was dropped")
	}
}

func TestNilStoreIsSafe(t *testing.T) {
	var s *Store
	s.ObserveOperator("d", 1, 2)
	s.BumpEpoch()
	s.SetMetrics(nil)
	if _, ok := s.CardHint("d"); ok {
		t.Fatal("nil store returned a hint")
	}
	if s.Epoch() != 0 {
		t.Fatal("nil store epoch moved")
	}
	if s.Summary() != (Summary{}) {
		t.Fatal("nil store summary not zero")
	}
}

// TestConcurrentStore exercises the store under the race detector:
// writers and hint readers all at once, past the digest bound.
func TestConcurrentStore(t *testing.T) {
	const goroutines, perG = 8, 600
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				d := fmt.Sprintf("d%d", g*perG+i)
				s.ObserveOperator(d, 10, float64(1000+i))
				s.CardHint(d)
				s.Epoch()
				s.Summary()
			}
		}(g)
	}
	wg.Wait()
	if sum := s.Summary(); sum.Tracked != maxSubplans || sum.Dropped != goroutines*perG-maxSubplans {
		t.Fatalf("tracked %d, dropped %d: want the bound %d and the rest dropped", sum.Tracked, sum.Dropped, maxSubplans)
	}
}
