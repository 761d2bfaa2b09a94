package obs

import "math"

// This file adds quantile estimation over the fixed-bucket histograms:
// a point-in-time bucket snapshot and linear interpolation inside the
// located bucket.

// HistogramSnapshot is a point-in-time copy of a histogram's per-bucket
// counts. The zero value is a valid empty snapshot.
type HistogramSnapshot struct {
	bounds []float64 // shared, read-only
	counts []int64   // one per bound, plus +Inf
	total  int64
}

// Snap copies the histogram's current bucket counts. Nil-safe.
func (h *Histogram) Snap() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{bounds: h.bounds, counts: make([]int64, len(h.buckets))}
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.counts[i] = c
		s.total += c
	}
	return s
}

// Count returns the number of observations in the snapshot.
func (s HistogramSnapshot) Count() int64 { return s.total }

// Quantile estimates the q-quantile (q in [0,1]) from the bucket
// counts, interpolating linearly inside the located bucket. An empty
// snapshot returns 0. Observations in the +Inf overflow bucket resolve
// to the largest finite bound (there is no upper edge to interpolate
// toward). With a single sample, every quantile lands in that sample's
// bucket; with fewer than 1/(1-q) samples the quantile is simply the
// maximum's bucket — coarse but monotone and bias-free for alerting.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.total == 0 || len(s.counts) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.counts {
		if c > 0 && cum+c >= rank {
			if i >= len(s.bounds) {
				// +Inf bucket: report the last finite bound.
				if len(s.bounds) == 0 {
					return 0
				}
				return s.bounds[len(s.bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = s.bounds[i-1]
			}
			upper := s.bounds[i]
			pos := float64(rank-cum) / float64(c)
			return lower + pos*(upper-lower)
		}
		cum += c
	}
	if len(s.bounds) == 0 {
		return 0
	}
	return s.bounds[len(s.bounds)-1]
}

// Quantile estimates the q-quantile over all observations so far.
// Nil-safe (0 on a nil or empty histogram).
func (h *Histogram) Quantile(q float64) float64 { return h.Snap().Quantile(q) }

// RegistrySnapshot is a consistent point-in-time copy of every series'
// value, for programmatic consumers (the text/JSON exports render live
// handles instead).
type RegistrySnapshot struct {
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// Snapshot copies every series' current value. Nil-safe (empty maps).
func (r *Registry) Snapshot() RegistrySnapshot {
	out := RegistrySnapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return out
	}
	cs, gs, hs := r.snapshot()
	for k, c := range cs {
		out.Counters[k] = c.Value()
	}
	for k, g := range gs {
		out.Gauges[k] = g.Value()
	}
	for k, h := range hs {
		out.Histograms[k] = h.Snap()
	}
	return out
}
