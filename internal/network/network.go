// Package network implements the message cost model of Section 7.4: the
// cost of shipping b bytes from site i to site j is α_ij + β_ij × b,
// where α is the start-up cost (one round trip) and β the per-byte cost
// (inverse bandwidth). It also provides a transfer ledger that the
// executor uses to account the bytes actually shipped by a plan.
package network

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// CostModel prices inter-site transfers. Costs are in milliseconds.
// SetEdge and the getters may be called concurrently (the parallel
// executor prices shipments from many goroutines while tooling reshapes
// the network); the edge maps are guarded by an RWMutex. The exported
// default fields are read without the lock: set them before sharing the
// model.
type CostModel struct {
	mu    sync.RWMutex
	alpha map[string]float64 // "from>to" -> startup ms
	beta  map[string]float64 // "from>to" -> ms per byte

	// byteScale converts optimizer size estimates into expected wire
	// bytes (see EstShipCost); 1 is neutral.
	byteScale float64
	// version counts price changes; plan caches key on it.
	version atomic.Uint64

	// Defaults apply to unknown edges. Single-writer: assign them
	// before the model is shared across goroutines.
	DefaultAlpha float64
	DefaultBeta  float64
}

// NewCostModel returns a cost model with the given defaults.
func NewCostModel(defaultAlpha, defaultBeta float64) *CostModel {
	return &CostModel{
		alpha:        map[string]float64{},
		beta:         map[string]float64{},
		byteScale:    1,
		DefaultAlpha: defaultAlpha,
		DefaultBeta:  defaultBeta,
	}
}

func edgeKey(from, to string) string { return from + ">" + to }

// Version returns the number of price changes so far: it moves exactly
// when SetEdge or SetByteScale changes what ShipCost or EstShipCost
// returns, so a plan priced under version v is still priced right while
// Version() == v. It is an atomic load.
func (m *CostModel) Version() uint64 { return m.version.Load() }

// SetEdge records α and β for a directed edge.
func (m *CostModel) SetEdge(from, to string, alpha, beta float64) {
	k := edgeKey(from, to)
	m.mu.Lock()
	defer m.mu.Unlock()
	if a, ok := m.alpha[k]; ok && a == alpha && m.beta[k] == beta {
		return
	}
	m.alpha[k] = alpha
	m.beta[k] = beta
	m.version.Add(1)
}

// Alpha returns the startup cost of the edge.
func (m *CostModel) Alpha(from, to string) float64 {
	if from == to {
		return 0
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if a, ok := m.alpha[edgeKey(from, to)]; ok {
		return a
	}
	return m.DefaultAlpha
}

// Beta returns the per-byte cost of the edge.
func (m *CostModel) Beta(from, to string) float64 {
	if from == to {
		return 0
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if b, ok := m.beta[edgeKey(from, to)]; ok {
		return b
	}
	return m.DefaultBeta
}

// ShipCost prices shipping the given number of bytes along the edge.
// Intra-site transfers are free.
func (m *CostModel) ShipCost(from, to string, bytes float64) float64 {
	if from == to || bytes < 0 {
		return 0
	}
	return m.Alpha(from, to) + m.Beta(from, to)*bytes
}

// SetByteScale installs the calibrated wire-bytes-per-estimated-byte
// ratio used by EstShipCost. Zero or negative resets to the neutral 1.
func (m *CostModel) SetByteScale(s float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s <= 0 {
		s = 1
	}
	if s == m.byteScale {
		return // same price: the version must not move
	}
	m.byteScale = s
	m.version.Add(1)
}

// ByteScale returns the calibrated estimate scale (1 when never set).
func (m *CostModel) ByteScale() float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.byteScale
}

// EstShipCost prices a transfer whose size is an optimizer estimate
// (rows × schema widths) rather than measured wire bytes: the estimate
// is scaled by the calibrated encoding ratio first. With no calibration
// applied this is exactly ShipCost, so plan choices (and their golden
// snapshots) only move when a calibration is installed deliberately.
func (m *CostModel) EstShipCost(from, to string, bytes float64) float64 {
	return m.ShipCost(from, to, bytes*m.ByteScale())
}

// FiveRegionWAN builds a deterministic wide-area profile for up to five
// locations modeled on public inter-region measurements between Europe,
// Africa, Asia, North America and the Middle East (the regions used in
// Section 7.4). Start-up costs α are round-trip latencies in
// milliseconds; β is derived from sustained inter-region bandwidth.
// Locations beyond the fifth reuse the profile cyclically with a small
// deterministic perturbation so that experiments with many sites remain
// reproducible.
func FiveRegionWAN(locations []string) *CostModel {
	// Reference latency matrix (ms) between the five regions:
	// EU, AF, AS, NA, ME.
	lat := [5][5]float64{
		{0, 140, 180, 90, 110},
		{140, 0, 260, 200, 160},
		{180, 260, 0, 160, 120},
		{90, 200, 160, 0, 180},
		{110, 160, 120, 180, 0},
	}
	// Sustained bandwidth (MB/s) between regions; β = 1000/(BW·1e6)
	// ms per byte.
	bw := [5][5]float64{
		{0, 8, 10, 25, 15},
		{8, 0, 5, 7, 9},
		{10, 5, 0, 12, 14},
		{25, 7, 12, 0, 10},
		{15, 9, 14, 10, 0},
	}
	m := NewCostModel(150, 1000/(8*1e6))
	for i, from := range locations {
		for j, to := range locations {
			if i == j {
				continue
			}
			a := lat[i%5][j%5]
			b := bw[i%5][j%5]
			if a == 0 { // same reference region reused: nearby sites
				a = 20 + float64((i+j)%7)
				b = 40
			}
			// Deterministic perturbation so wrapped sites differ.
			a += float64((i/5+j/5)*13) + float64((i*31+j*17)%5)
			m.SetEdge(from, to, a, 1000/(b*1e6))
		}
	}
	return m
}

// UniformWAN builds a homogeneous profile: every inter-site edge has the
// same α and β. Useful for tests and ablations.
func UniformWAN(alpha, beta float64) *CostModel {
	return NewCostModel(alpha, beta)
}

// Transfer is one recorded shipment.
type Transfer struct {
	From, To string
	Rows     int64
	Bytes    int64
	Cost     float64 // priced by the ledger's cost model
}

// Ledger accumulates the transfers a query execution performs and prices
// them with a cost model. It is safe for concurrent use.
type Ledger struct {
	mu        sync.Mutex
	model     *CostModel
	transfers []Transfer
}

// NewLedger returns a ledger pricing transfers with the given model.
func NewLedger(model *CostModel) *Ledger {
	return &Ledger{model: model}
}

// Shipment is an in-progress transfer recorded incrementally, batch by
// batch, by the parallel executor's exchange operators. All batches of
// one shipment accumulate into a single Transfer entry, and the cost is
// kept equal to ShipCost(from, to, totalBytes) — affine in bytes — so a
// shipment split into N batches prices identically to the same bytes
// added in one batch (the start-up cost α is paid once, not N times). Safe for concurrent use with all other ledger methods.
type Shipment struct {
	l        *Ledger
	idx      int
	from, to string
}

// OpenShipment starts an incremental transfer and returns its handle.
// The entry is recorded immediately with zero rows/bytes (cost α).
func (l *Ledger) OpenShipment(from, to string) *Shipment {
	cost := l.model.ShipCost(from, to, 0)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.transfers = append(l.transfers, Transfer{From: from, To: to, Cost: cost})
	return &Shipment{l: l, idx: len(l.transfers) - 1, from: from, to: to}
}

// Add accounts one batch of the shipment and returns the incremental
// cost of shipping it (the β·bytes part, plus α on the first bytes).
func (s *Shipment) Add(rows, bytes int64) float64 {
	s.l.mu.Lock()
	defer s.l.mu.Unlock()
	if s.idx >= len(s.l.transfers) {
		// The ledger was Reset while this shipment was in flight:
		// re-open an entry so the remaining batches are still recorded.
		s.l.transfers = append(s.l.transfers, Transfer{From: s.from, To: s.to,
			Cost: s.l.model.ShipCost(s.from, s.to, 0)})
		s.idx = len(s.l.transfers) - 1
	}
	t := &s.l.transfers[s.idx]
	t.Rows += rows
	t.Bytes += bytes
	cost := s.l.model.ShipCost(t.From, t.To, float64(t.Bytes))
	delta := cost - t.Cost
	t.Cost = cost
	return delta
}

// TotalCost returns the summed cost of all recorded transfers. The
// per-transfer costs are summed in sorted order so the total depends
// only on the multiset of transfers, not on the order they were
// recorded in — concurrent executions that perform the same transfers
// report bit-identical totals.
func (l *Ledger) TotalCost() float64 {
	l.mu.Lock()
	costs := make([]float64, len(l.transfers))
	for i, t := range l.transfers {
		costs[i] = t.Cost
	}
	l.mu.Unlock()
	sort.Float64s(costs)
	total := 0.0
	for _, c := range costs {
		total += c
	}
	return total
}

// TotalBytes returns the summed bytes of all recorded transfers.
func (l *Ledger) TotalBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total int64
	for _, t := range l.transfers {
		total += t.Bytes
	}
	return total
}

// TotalRows returns the summed rows of all recorded transfers.
func (l *Ledger) TotalRows() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total int64
	for _, t := range l.transfers {
		total += t.Rows
	}
	return total
}

// LedgerSnapshot is a consistent view of the ledger totals, taken under
// one lock acquisition. TotalBytes/TotalRows/TotalCost each lock
// separately, so reading them individually while shipments are in
// flight can observe totals from different instants; Snapshot cannot.
type LedgerSnapshot struct {
	Transfers int
	Rows      int64
	Bytes     int64
	Cost      float64
}

// Snapshot returns all ledger totals from a single consistent point in
// time. The cost is summed in sorted order, exactly like TotalCost, so
// a quiescent ledger's Snapshot().Cost equals TotalCost() bit-for-bit.
func (l *Ledger) Snapshot() LedgerSnapshot {
	l.mu.Lock()
	s := LedgerSnapshot{Transfers: len(l.transfers)}
	costs := make([]float64, len(l.transfers))
	for i, t := range l.transfers {
		s.Rows += t.Rows
		s.Bytes += t.Bytes
		costs[i] = t.Cost
	}
	l.mu.Unlock()
	sort.Float64s(costs)
	for _, c := range costs {
		s.Cost += c
	}
	return s
}

// Transfers returns a copy of the recorded transfers.
func (l *Ledger) Transfers() []Transfer {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Transfer(nil), l.transfers...)
}

// Reset clears the ledger.
func (l *Ledger) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.transfers = nil
}

// Summary renders per-edge totals, sorted by edge, for reports.
func (l *Ledger) Summary() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	agg := map[string]*Transfer{}
	for _, t := range l.transfers {
		key := t.From + " -> " + t.To
		if cur, ok := agg[key]; ok {
			cur.Rows += t.Rows
			cur.Bytes += t.Bytes
			cur.Cost += t.Cost
		} else {
			cp := t
			agg[key] = &cp
		}
	}
	keys := make([]string, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		t := agg[k]
		fmt.Fprintf(&b, "%-20s %10d rows %12d bytes %12.2f ms\n", k, t.Rows, t.Bytes, t.Cost)
	}
	return b.String()
}
