package network

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestLedgerSnapshotConsistent reads totals mid-run while concurrent
// shipments append batches, and checks every snapshot is internally
// consistent: rows and bytes move in lock-step (each writer adds them
// together under the ledger lock), so a snapshot must never observe the
// rows of one instant with the bytes of another. Run under -race this
// is also the regression test for unguarded mid-run ledger reads.
func TestLedgerSnapshotConsistent(t *testing.T) {
	const (
		writers      = 4
		batches      = 200
		rowsPerBatch = 10
		bytesPerRow  = 8
	)
	m := NewCostModel(5, 0.001)
	l := NewLedger(m)

	var wg sync.WaitGroup
	var writing atomic.Int32
	writing.Store(writers)
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		ship := l.OpenShipment("E", "N")
		wg.Add(1)
		go func(s *Shipment) {
			defer wg.Done()
			defer writing.Add(-1)
			<-start
			for i := 0; i < batches; i++ {
				s.Add(rowsPerBatch, rowsPerBatch*bytesPerRow)
			}
		}(ship)
	}

	done := make(chan struct{})
	var snaps []LedgerSnapshot
	go func() {
		defer close(done)
		for {
			snaps = append(snaps, l.Snapshot())
			if writing.Load() == 0 {
				return
			}
		}
	}()
	close(start)
	wg.Wait()
	<-done

	if len(snaps) == 0 {
		t.Fatal("reader goroutine took no snapshots")
	}
	for i, s := range snaps {
		if s.Bytes != s.Rows*bytesPerRow {
			t.Fatalf("snapshot %d inconsistent: rows=%d bytes=%d (want bytes = rows*%d)", i, s.Rows, s.Bytes, bytesPerRow)
		}
	}

	final := l.Snapshot()
	wantRows := int64(writers * batches * rowsPerBatch)
	if final.Rows != wantRows || final.Bytes != wantRows*bytesPerRow {
		t.Fatalf("final snapshot rows=%d bytes=%d, want rows=%d bytes=%d", final.Rows, final.Bytes, wantRows, wantRows*bytesPerRow)
	}
	if final.Transfers != writers {
		t.Fatalf("final snapshot transfers=%d, want %d", final.Transfers, writers)
	}
	// The cost is summed in sorted order: writers identical shipments,
	// priced by the model, added up.
	var wantCost float64
	for w := 0; w < writers; w++ {
		wantCost += m.ShipCost("E", "N", float64(batches*rowsPerBatch*bytesPerRow))
	}
	if final.Cost != wantCost {
		t.Fatalf("Snapshot().Cost=%v, want %v", final.Cost, wantCost)
	}
}
