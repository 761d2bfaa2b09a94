package network

import "sync"

// Calibrator closes the loop between the optimizer's estimated transfer
// sizes and what the wire format actually ships. The optimizer prices a
// candidate plan from schema width estimates (rows × column widths);
// the executor observes the encoded frame size of every shipped frame.
// The calibrator accumulates both and keeps the encoding ratio (wire
// bytes / estimated bytes) installed as its cost model's byte scale, so
// EstShipCost prices estimated bytes as the wire would see them.
//
// All methods are safe for concurrent use; the executor feeds samples
// from many shipping goroutines.
type Calibrator struct {
	model *CostModel
	every int64

	mu        sync.Mutex
	estBytes  float64
	wireBytes float64
	frames    int64
}

const (
	// DefaultAutoApplyFrames is the apply cadence front ends arm.
	DefaultAutoApplyFrames = 256
	// autoApplyDrift is the relative byte-scale movement below which an
	// apply leaves the model alone: re-pricing every cached plan for a 1%
	// ratio wiggle is all cost, no benefit.
	autoApplyDrift = 0.05
)

// NewCalibrator returns a calibrator that, after every everyN (> 0)
// encoding observations, installs the accumulated encoding ratio into
// m's byte scale when it has drifted more than ~5% from the scale m
// prices with — so the scale changes, m.Version() moves and cached plans
// re-price as one event, without per-frame churn.
func NewCalibrator(m *CostModel, everyN int) *Calibrator {
	return &Calibrator{model: m, every: int64(everyN)}
}

// ObserveEncoding records one frame's estimated width-sum against its
// encoded size.
func (c *Calibrator) ObserveEncoding(estimated, encoded int64) {
	if estimated <= 0 {
		return
	}
	c.mu.Lock()
	c.estBytes += float64(estimated)
	c.wireBytes += float64(encoded)
	c.frames++
	apply := c.frames%c.every == 0
	ratio := c.wireBytes / c.estBytes
	c.mu.Unlock()
	// Apply outside c.mu: the model has its own lock.
	if !apply {
		return
	}
	if rel := ratio / c.model.ByteScale(); rel > 1+autoApplyDrift || rel < 1/(1+autoApplyDrift) {
		c.model.SetByteScale(ratio)
	}
}
