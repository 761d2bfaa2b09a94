package network

import (
	"sort"
	"sync"
)

// Calibrator closes the loop between the optimizer's estimated transfer
// sizes and what the wire format actually ships. The optimizer prices a
// candidate plan from schema width estimates (rows × column widths);
// the executor observes the encoded frame size of every shipment. The
// calibrator accumulates both and back-fits:
//
//   - the encoding ratio (wire bytes / estimated bytes), installed into
//     a CostModel as its byte scale so EstShipCost prices estimated
//     bytes as the wire would see them, and
//   - per-edge α/β by least squares over (bytes, observed ms) ship
//     samples, for tooling that wants to refit the WAN matrices.
//
// All methods are safe for concurrent use; the executor feeds samples
// from many shipping goroutines.
type Calibrator struct {
	mu        sync.Mutex
	estBytes  float64
	wireBytes float64
	edges     map[string]*edgeFit

	// Continuous mode (SetAutoApply): every autoEvery encoding
	// observations the current ratio is pushed into autoModel, turning
	// the one-shot Apply into a standing feedback loop.
	frames    int64
	autoEvery int64
	autoModel *CostModel
}

const (
	// DefaultAutoApplyFrames is the auto-apply cadence front ends arm
	// when they are not given one.
	DefaultAutoApplyFrames = 256
	// autoApplyDrift is the relative byte-scale movement below which an
	// auto-apply leaves the model alone: re-pricing every cached plan
	// for a 1% ratio wiggle is all cost, no benefit.
	autoApplyDrift = 0.05
)

type edgeFit struct {
	n, sumB, sumMS, sumBB, sumBMS float64
}

// NewCalibrator returns an empty calibrator.
func NewCalibrator() *Calibrator {
	return &Calibrator{edges: map[string]*edgeFit{}}
}

// ObserveEncoding records one batch's estimated width-sum against its
// encoded frame size.
func (c *Calibrator) ObserveEncoding(estimated, encoded int64) {
	if estimated <= 0 {
		return
	}
	var (
		ratio float64
		model *CostModel
	)
	c.mu.Lock()
	c.estBytes += float64(estimated)
	c.wireBytes += float64(encoded)
	if c.autoModel != nil {
		c.frames++
		if c.frames%c.autoEvery == 0 {
			ratio = c.wireBytes / c.estBytes
			model = c.autoModel
		}
	}
	c.mu.Unlock()
	// Apply outside c.mu: the model has its own lock.
	if model == nil {
		return
	}
	if rel := ratio / model.ByteScale(); rel > 1+autoApplyDrift || rel < 1/(1+autoApplyDrift) {
		model.SetByteScale(ratio)
	}
}

// SetAutoApply arms continuous calibration: after every everyN encoding
// observations the accumulated encoding ratio is installed into m's
// byte scale (as Apply would) when it has drifted more than ~5% from
// the scale m prices with — so the scale changes, m.Version() moves and
// cached plans re-price as one event, without per-frame churn.
// everyN <= 0 disarms. The cost model's getters are mutex-guarded, so
// concurrent EstShipCost readers stay race-free while applies land.
func (c *Calibrator) SetAutoApply(m *CostModel, everyN int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if everyN <= 0 || m == nil {
		c.autoModel, c.autoEvery = nil, 0
		return
	}
	c.autoModel, c.autoEvery = m, int64(everyN)
	c.frames = 0
}

// ObserveShip records one delivered shipment: encoded bytes and the
// simulated wire milliseconds it took.
func (c *Calibrator) ObserveShip(from, to string, bytes int64, ms float64) {
	c.mu.Lock()
	f := c.edges[edgeKey(from, to)]
	if f == nil {
		f = &edgeFit{}
		c.edges[edgeKey(from, to)] = f
	}
	b := float64(bytes)
	f.n++
	f.sumB += b
	f.sumMS += ms
	f.sumBB += b * b
	f.sumBMS += b * ms
	c.mu.Unlock()
}

// EncodingRatio returns wire bytes per estimated byte (1 with no
// samples): the factor to apply to width-based size estimates.
func (c *Calibrator) EncodingRatio() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.estBytes == 0 {
		return 1
	}
	return c.wireBytes / c.estBytes
}

// FitEdge least-squares-fits ms = α + β·bytes over the edge's ship
// samples. ok is false until the edge has at least two samples with
// distinct byte sizes (a vertical fit has no slope).
func (c *Calibrator) FitEdge(from, to string) (alpha, beta float64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.edges[edgeKey(from, to)]
	if f == nil || f.n < 2 {
		return 0, 0, false
	}
	det := f.n*f.sumBB - f.sumB*f.sumB
	if det == 0 {
		return 0, 0, false
	}
	beta = (f.n*f.sumBMS - f.sumB*f.sumMS) / det
	alpha = (f.sumMS - beta*f.sumB) / f.n
	return alpha, beta, true
}

// Edges returns the sorted list of edges with ship samples.
func (c *Calibrator) Edges() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.edges))
	for k := range c.edges {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Apply installs the observed encoding ratio as the cost model's byte
// scale, so subsequent EstShipCost calls price width estimates the way
// the wire actually encodes them. Edge α/β are left untouched — they
// parameterize the simulated WAN itself, not the estimate.
func (c *Calibrator) Apply(m *CostModel) {
	m.SetByteScale(c.EncodingRatio())
}
