package cluster

import (
	"context"
	"sync/atomic"

	"cgdqp/internal/network"
)

// RunScope is the accounting context of one query run: a private
// transfer ledger priced by the cluster's cost model, and the run's
// retried-send count. Engines read their RunStats from it, so concurrent
// executions over one Cluster each account exactly their own transfers,
// and nothing outlives the run.
//
// A scope is created per execution and used by that execution's
// goroutines only; the ledger itself is safe for the concurrent fragment
// producers of one run.
type RunScope struct {
	c       *Cluster
	ledger  *network.Ledger
	retries atomic.Int64
}

// NewRun opens a per-execution accounting scope.
func (c *Cluster) NewRun() *RunScope {
	return &RunScope{c: c, ledger: network.NewLedger(c.Net)}
}

// Ledger returns the run's transfer ledger.
func (r *RunScope) Ledger() *network.Ledger { return r.ledger }

// Retries returns the run's retried-send count.
func (r *RunScope) Retries() int64 { return r.retries.Load() }

// OpenShipment starts an incremental transfer in the run's ledger.
func (r *RunScope) OpenShipment(from, to string) *network.Shipment {
	return r.ledger.OpenShipment(from, to)
}

// ShipBatch delivers one batch of an open shipment across the edge,
// injecting faults and retrying under the cluster's retry policy. The
// shipment is charged only when the batch arrives, so the run's ledger
// ends bit-identical to a fault-free run's. The returned error is nil,
// ctx.Err(), or a typed *network.ShipError.
func (r *RunScope) ShipBatch(ctx context.Context, ship *network.Shipment, from, to string, batch int, rows, bytes int64) error {
	err := r.c.send(ctx, r, from, to, batch, bytes, func(extraMS float64) error {
		return r.c.SleepWire(ctx, ship.Add(rows, bytes)+extraMS)
	})
	if err == nil {
		r.c.countShip(from, to, rows, bytes)
	}
	return err
}
