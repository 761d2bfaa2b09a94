package obs

import (
	"fmt"
	"sync"
	"testing"
)

func TestQuantileEmptyHistogram(t *testing.T) {
	h := newHistogram(LatencyBuckets)
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty p99 = %v, want 0", got)
	}
	var zero HistogramSnapshot
	if got := zero.Quantile(0.5); got != 0 {
		t.Fatalf("zero-snapshot quantile = %v, want 0", got)
	}
}

func TestQuantileSingleSample(t *testing.T) {
	h := newHistogram(LatencyBuckets)
	h.Observe(0.003) // falls in the (0.0025, 0.005] bucket
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if got <= 0.0025 || got > 0.005 {
			t.Fatalf("q=%v: %v outside the sample's bucket (0.0025, 0.005]", q, got)
		}
	}
}

func TestQuantileP99UnderHundredSamples(t *testing.T) {
	// With fewer than 100 samples the p99 must be the maximum's bucket —
	// coarse, monotone, never below lower observations.
	h := newHistogram(LatencyBuckets)
	for i := 0; i < 50; i++ {
		h.Observe(0.001)
	}
	h.Observe(1.5) // one outlier in (1, 2.5]
	p99 := h.Quantile(0.99)
	if p99 <= 1 || p99 > 2.5 {
		t.Fatalf("p99 = %v, want within the outlier's bucket (1, 2.5]", p99)
	}
	if p50 := h.Quantile(0.5); p50 > 0.0025 {
		t.Fatalf("p50 = %v, want within the bulk's bucket", p50)
	}
}

func TestQuantileOverflowBucket(t *testing.T) {
	h := newHistogram(LatencyBuckets)
	h.Observe(100) // beyond the last finite bound (10s)
	if got := h.Quantile(0.99); got != 10 {
		t.Fatalf("overflow quantile = %v, want last finite bound 10", got)
	}
}

func TestQuantileClampsQ(t *testing.T) {
	h := newHistogram(LatencyBuckets)
	h.Observe(0.001)
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
		t.Fatal("q not clamped to [0,1]")
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(3)
	r.Gauge("g").Set(2.5)
	r.Histogram("h_seconds").Observe(0.001)
	s := r.Snapshot()
	if s.Counters["c_total"] != 3 {
		t.Fatalf("counter = %d", s.Counters["c_total"])
	}
	if s.Gauges["g"] != 2.5 {
		t.Fatalf("gauge = %v", s.Gauges["g"])
	}
	if hs, ok := s.Histograms["h_seconds"]; !ok || hs.Count() != 1 {
		t.Fatalf("histogram snapshot missing or wrong: %+v", hs)
	}
	var nilReg *Registry
	ns := nilReg.Snapshot()
	if len(ns.Counters)+len(ns.Gauges)+len(ns.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

// TestConcurrentSnapshotAndRecord drives Snapshot against live recording
// under the race detector: snapshots must be taken safely while every
// series type is being written.
func TestConcurrentSnapshotAndRecord(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Counter(fmt.Sprintf("c%d_total", g)).Inc()
				r.Gauge("g").Set(float64(i))
				r.Histogram("h_seconds").Observe(float64(i%10) / 1000)
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		s := r.Snapshot()
		if hs, ok := s.Histograms["h_seconds"]; ok {
			hs.Quantile(0.99) // exercise quantiles over live snapshots too
		}
	}
	close(stop)
	wg.Wait()
}
