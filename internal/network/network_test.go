package network

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCostModelBasics(t *testing.T) {
	m := NewCostModel(100, 0.001)
	m.SetEdge("A", "B", 50, 0.002)

	if got := m.ShipCost("A", "A", 1e6); got != 0 {
		t.Errorf("intra-site must be free: %v", got)
	}
	if got := m.ShipCost("A", "B", 1000); got != 50+2 {
		t.Errorf("known edge: %v", got)
	}
	if got := m.ShipCost("B", "A", 1000); got != 100+1 {
		t.Errorf("default edge: %v", got)
	}
	if got := m.ShipCost("A", "B", 0); got != 50 {
		t.Errorf("zero bytes pays startup: %v", got)
	}
	if m.Alpha("A", "A") != 0 || m.Beta("A", "A") != 0 {
		t.Error("self edge zero")
	}
}

func TestFiveRegionWAN(t *testing.T) {
	locs := []string{"L1", "L2", "L3", "L4", "L5"}
	m := FiveRegionWAN(locs)
	for _, a := range locs {
		for _, b := range locs {
			if a == b {
				if m.ShipCost(a, b, 100) != 0 {
					t.Errorf("%s->%s should be free", a, b)
				}
				continue
			}
			c := m.ShipCost(a, b, 1<<20)
			if c <= 0 {
				t.Errorf("%s->%s cost %v", a, b, c)
			}
		}
	}
	// Deterministic: same input, same profile.
	m2 := FiveRegionWAN(locs)
	if m.ShipCost("L1", "L3", 12345) != m2.ShipCost("L1", "L3", 12345) {
		t.Error("profile must be deterministic")
	}
	// More than five locations still works.
	many := []string{"a", "b", "c", "d", "e", "f", "g"}
	m3 := FiveRegionWAN(many)
	if m3.ShipCost("a", "f", 100) <= 0 {
		t.Error("wrapped locations must have positive cost")
	}
	// a and f map to the same reference region but are distinct sites.
	if m3.ShipCost("a", "f", 0) == 0 {
		t.Error("distinct sites in same region still pay latency")
	}
}

func TestLedger(t *testing.T) {
	m := UniformWAN(10, 0.5)
	l := NewLedger(m)
	l.OpenShipment("A", "B").Add(10, 100)
	if c1 := l.TotalCost(); c1 != 10+50 {
		t.Errorf("record cost: %v", c1)
	}
	l.OpenShipment("A", "B").Add(5, 20)
	l.OpenShipment("B", "C").Add(1, 8)
	if l.TotalBytes() != 128 {
		t.Errorf("total bytes: %d", l.TotalBytes())
	}
	want := (10 + 50.0) + (10 + 10.0) + (10 + 4.0)
	if l.TotalCost() != want {
		t.Errorf("total cost: %v want %v", l.TotalCost(), want)
	}
	if got := len(l.Transfers()); got != 3 {
		t.Errorf("transfers: %d", got)
	}
	sum := l.Summary()
	if !strings.Contains(sum, "A -> B") || !strings.Contains(sum, "B -> C") {
		t.Errorf("summary:\n%s", sum)
	}
	// Summary aggregates per edge: A->B appears once.
	if strings.Count(sum, "A -> B") != 1 {
		t.Errorf("summary should aggregate edges:\n%s", sum)
	}
	l.Reset()
	if l.TotalBytes() != 0 || len(l.Transfers()) != 0 {
		t.Error("reset")
	}
}

// TestShipmentMatchesRecord: a shipment split into batches must price
// and account identically to one batch of the same totals — the parity
// the executor's per-batch exchange accounting depends on.
func TestShipmentMatchesRecord(t *testing.T) {
	m := UniformWAN(10, 0.5)
	one := NewLedger(m)
	one.OpenShipment("A", "B").Add(30, 300)

	batched := NewLedger(m)
	s := batched.OpenShipment("A", "B")
	var incr float64
	incr += s.Add(10, 100)
	incr += s.Add(15, 150)
	incr += s.Add(5, 50)
	if batched.TotalBytes() != one.TotalBytes() || batched.TotalRows() != one.TotalRows() {
		t.Errorf("bytes/rows: batched %d/%d, one-shot %d/%d",
			batched.TotalBytes(), batched.TotalRows(), one.TotalBytes(), one.TotalRows())
	}
	if batched.TotalCost() != one.TotalCost() {
		t.Errorf("cost: batched %v, one-shot %v", batched.TotalCost(), one.TotalCost())
	}
	// α is paid once (at open), the increments carry only β·bytes.
	if alpha := batched.TotalCost() - incr; alpha != 10 {
		t.Errorf("start-up share: %v, want 10", alpha)
	}
	// All batches merged into a single transfer entry.
	if got := len(batched.Transfers()); got != 1 {
		t.Errorf("transfers: %d, want 1", got)
	}
	// An empty shipment still pays the start-up cost.
	empty := NewLedger(m)
	empty.OpenShipment("A", "B")
	if empty.TotalCost() != 10 {
		t.Errorf("empty shipment cost: %v, want 10", empty.TotalCost())
	}
	// Intra-site shipments stay free.
	free := NewLedger(m)
	fs := free.OpenShipment("A", "A")
	fs.Add(10, 100)
	if free.TotalCost() != 0 {
		t.Errorf("intra-site shipment cost: %v", free.TotalCost())
	}
}

// Property: ship cost is monotone in bytes.
func TestShipCostMonotoneProperty(t *testing.T) {
	m := FiveRegionWAN([]string{"L1", "L2", "L3"})
	f := func(a, b uint32) bool {
		lo, hi := float64(a), float64(a)+float64(b)
		return m.ShipCost("L1", "L2", lo) <= m.ShipCost("L1", "L2", hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
