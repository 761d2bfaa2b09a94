package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"cgdqp/internal/network"
	"cgdqp/internal/schema"
)

func shipTestCluster(t *testing.T) *Cluster {
	t.Helper()
	cat := schema.NewCatalog()
	if err := cat.AddTable(schema.NewTable("t", "db-eu", "EU", 10, schema.Column{Name: "a", Type: 0})); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(schema.NewTable("u", "db-as", "AS", 10, schema.Column{Name: "a", Type: 0})); err != nil {
		t.Fatal(err)
	}
	return New(cat, network.NewCostModel(10, 0.001))
}

// shipOne opens a run and a shipment on the edge, sends its only batch,
// and returns the run's ledger totals and retried-send count.
func shipOne(ctx context.Context, c *Cluster, from, to string, rows, bytes int64) (network.LedgerSnapshot, int64, error) {
	run := c.NewRun()
	err := run.ShipBatch(ctx, run.OpenShipment(from, to), from, to, 0, rows, bytes)
	return run.Ledger().Snapshot(), run.Retries(), err
}

func fastRetry(attempts int) network.RetryPolicy {
	return network.RetryPolicy{
		MaxAttempts: attempts,
		BaseBackoff: 50 * time.Microsecond,
		MaxBackoff:  200 * time.Microsecond,
		Multiplier:  2,
		JitterFrac:  0.2,
	}
}

// TestShipBatchRetriesToSuccess: under heavy drop faults a batch still
// lands given enough attempts, the ledger is charged exactly once, and
// the failed attempts are counted.
func TestShipBatchRetriesToSuccess(t *testing.T) {
	c := shipTestCluster(t)
	c.SetFaults(network.NewFaultPlan(11).SetDefault(EdgeFaultsWithDrop(0.9)))
	c.SetRetry(fastRetry(100))
	snap, retries, err := shipOne(context.Background(), c, "EU", "AS", 100, 800)
	if err != nil {
		t.Fatalf("ShipBatch: %v", err)
	}
	if snap.Bytes != 800 {
		t.Errorf("ledger bytes = %d, want 800 (charged once, not per attempt)", snap.Bytes)
	}
	if snap.Rows != 100 {
		t.Errorf("ledger rows = %d, want 100", snap.Rows)
	}
	if retries == 0 {
		t.Error("drops at 90%% should have produced retries")
	}
}

// EdgeFaultsWithDrop builds a drop-only fault config (helper keeps the
// test call sites readable).
func EdgeFaultsWithDrop(p float64) network.EdgeFaults {
	return network.EdgeFaults{DropProb: p}
}

// TestShipBatchExhaustsRetries: a certain fault with a small attempt
// budget yields a typed ShipError and leaves the shipment uncharged.
func TestShipBatchExhaustsRetries(t *testing.T) {
	c := shipTestCluster(t)
	c.SetFaults(network.NewFaultPlan(5).SetDefault(network.EdgeFaults{TransientProb: 1}))
	c.SetRetry(fastRetry(3))
	snap, _, err := shipOne(context.Background(), c, "EU", "AS", 10, 80)
	var se *network.ShipError
	if !errors.As(err, &se) {
		t.Fatalf("error %v, want *network.ShipError", err)
	}
	if se.Attempts != 3 || !errors.Is(err, network.ErrTransient) {
		t.Errorf("ShipError = %+v, want 3 attempts wrapping ErrTransient", se)
	}
	if snap.Bytes != 0 {
		t.Errorf("failed shipment charged %d bytes", snap.Bytes)
	}
}

// TestShipBatchPartitionFailsFast: partitions are terminal on the first
// attempt — no retry budget is burned, nothing is charged.
func TestShipBatchPartitionFailsFast(t *testing.T) {
	c := shipTestCluster(t)
	c.SetFaults(network.NewFaultPlan(5).SetEdge("EU", "AS", network.EdgeFaults{Partitioned: true}))
	c.SetRetry(fastRetry(10))
	snap, _, err := shipOne(context.Background(), c, "EU", "AS", 10, 80)
	var se *network.ShipError
	if !errors.As(err, &se) || !errors.Is(err, network.ErrPartitioned) {
		t.Fatalf("error %v, want ShipError wrapping ErrPartitioned", err)
	}
	if se.Attempts != 1 {
		t.Errorf("partition burned %d attempts, want 1", se.Attempts)
	}
	if snap.Rows != 0 || snap.Bytes != 0 {
		t.Errorf("partitioned transfer charged %d rows / %d bytes", snap.Rows, snap.Bytes)
	}
	// The unpartitioned reverse edge still works.
	if _, _, err := shipOne(context.Background(), c, "AS", "EU", 10, 80); err != nil {
		t.Errorf("reverse edge: %v", err)
	}
}

// TestShipTimeout: an attempt whose simulated time exceeds the budget
// fails with ErrShipTimeout (and is retried like any transient fault).
func TestShipTimeout(t *testing.T) {
	c := shipTestCluster(t)
	c.SetFaults(network.NewFaultPlan(9).SetDefault(network.EdgeFaults{DelayProb: 1, DelayMS: 1000}))
	retry := fastRetry(2)
	retry.TimeoutMS = 50 // β·bytes is 0.8ms; the injected 1000ms delay blows the budget
	c.SetRetry(retry)
	_, _, err := shipOne(context.Background(), c, "EU", "AS", 10, 800)
	if !errors.Is(err, network.ErrShipTimeout) {
		t.Fatalf("error %v, want ErrShipTimeout", err)
	}
}

// TestShipNoFaultsFastPath: without a fault plan the path accounts and
// returns immediately — no retries, identical to the pre-fault engine.
func TestShipNoFaultsFastPath(t *testing.T) {
	c := shipTestCluster(t)
	snap, retries, err := shipOne(context.Background(), c, "EU", "AS", 10, 80)
	if err != nil {
		t.Fatal(err)
	}
	if retries != 0 {
		t.Error("fault-free path counted retries")
	}
	if snap.Bytes != 80 {
		t.Errorf("ledger bytes = %d", snap.Bytes)
	}
}

// TestShipCancellation: a cancelled context interrupts the backoff wait
// and surfaces context.Canceled, not a ShipError.
func TestShipCancellation(t *testing.T) {
	c := shipTestCluster(t)
	c.SetFaults(network.NewFaultPlan(2).SetDefault(network.EdgeFaults{TransientProb: 1}))
	c.SetRetry(network.RetryPolicy{MaxAttempts: 1000, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 10 * time.Millisecond, Multiplier: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := shipOne(ctx, c, "EU", "AS", 10, 80)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled shipment did not return")
	}
}
