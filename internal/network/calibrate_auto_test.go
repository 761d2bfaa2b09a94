package network

import (
	"sync"
	"testing"
)

func TestAutoApplyEveryN(t *testing.T) {
	m := FiveRegionWAN([]string{"L1", "L2"})
	c := NewCalibrator(m, 3)
	v0 := m.Version()

	// Encoded is always 2x estimated: frame 3 applies the ratio, frame 6
	// finds the scale where it already is and leaves the model alone.
	for i := 0; i < 7; i++ {
		if i == 2 && m.ByteScale() != 1 {
			t.Fatalf("byte scale = %v before the third frame, want 1", m.ByteScale())
		}
		c.ObserveEncoding(100, 200)
	}
	if got := m.ByteScale(); got != 2 {
		t.Fatalf("byte scale = %v, want 2", got)
	}
	if got := m.Version(); got != v0+1 {
		t.Fatalf("cost-model version moved %d times, want 1 (frame 3 only)", got-v0)
	}
}

// TestAutoApplyDriftHysteresis pins "scale changed" and "version moved"
// as one event: a ratio within ~5% of the scale the model prices with
// changes neither, a larger drift — up or down, ratios below 1
// included — changes both.
func TestAutoApplyDriftHysteresis(t *testing.T) {
	m := FiveRegionWAN([]string{"L1", "L2"})
	c := NewCalibrator(m, 1)
	v0 := m.Version()

	c.ObserveEncoding(1000, 1030) // ratio 1.03: inside the band
	if m.ByteScale() != 1 || m.Version() != v0 {
		t.Fatalf("3%% wiggle applied: scale %v, version +%d", m.ByteScale(), m.Version()-v0)
	}
	c.ObserveEncoding(1000, 170) // cumulative ratio 0.6
	if got := m.ByteScale(); got != 0.6 {
		t.Fatalf("byte scale = %v, want 0.6", got)
	}
	if got := m.Version(); got != v0+1 {
		t.Fatalf("version moved %d times, want 1", got-v0)
	}
	c.ObserveEncoding(1000, 610) // cumulative ratio ~0.603
	if m.ByteScale() != 0.6 || m.Version() != v0+1 {
		t.Fatalf("sub-drift movement applied: scale %v, version +%d", m.ByteScale(), m.Version()-v0)
	}
}

// TestCostModelVersion: the version moves exactly when a price changes.
func TestCostModelVersion(t *testing.T) {
	m := NewCostModel(10, 0.001)
	v := m.Version()
	step := func(what string, moved bool) {
		t.Helper()
		want := v
		if moved {
			want++
		}
		if got := m.Version(); got != want {
			t.Fatalf("%s: version %d, want %d", what, got, want)
		}
		v = want
	}
	m.SetEdge("A", "B", 5, 0.002)
	step("new edge", true)
	m.SetEdge("A", "B", 5, 0.002)
	step("same edge again", false)
	m.SetEdge("A", "B", 6, 0.002)
	step("repriced edge", true)
	m.SetByteScale(1)
	step("neutral scale on a fresh model", false)
	m.SetByteScale(1.5)
	step("new scale", true)
	m.SetByteScale(1.5)
	step("same scale again", false)
	m.SetByteScale(0)
	step("reset to neutral", true)
}

// TestAutoApplyConcurrentWithReaders drives every-frame auto-apply from
// many observer goroutines while other goroutines read ship costs and
// the byte scale — the regression test that cost-model getters stay
// race-free under continuous calibration (run with -race).
func TestAutoApplyConcurrentWithReaders(t *testing.T) {
	locs := []string{"L1", "L2", "L3"}
	m := FiveRegionWAN(locs)
	c := NewCalibrator(m, 1)

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				c.ObserveEncoding(100, int64(100+g*50+i%7))
			}
		}(g)
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.EstShipCost("L1", "L2", 4096)
				m.ByteScale()
				m.Version()
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if s := m.ByteScale(); s <= 0 {
		t.Fatalf("byte scale = %v after concurrent applies", s)
	}
}
