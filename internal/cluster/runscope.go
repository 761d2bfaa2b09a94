package cluster

import (
	"context"
	"sync/atomic"

	"cgdqp/internal/network"
)

// RunScope is the per-execution accounting context of one query run.
//
// The cluster's shared ledger is cumulative across every execution, so
// two concurrent queries diffing its snapshot around their runs would
// each absorb the other's transfers into their RunStats. A RunScope
// fixes that: every shipment a run performs is charged twice — once
// into the cluster's cumulative ledger (reports, chaos parity checks
// and the CLI summary keep working unchanged) and once into a private
// per-run ledger priced by the same cost model. Engines read their
// RunStats from the private ledger, so concurrent executions over one
// Cluster produce independent, correct accounting.
//
// A scope is created per execution and used by that execution's
// goroutines only; the private ledger itself is safe for the concurrent
// fragment producers of one run.
type RunScope struct {
	c      *Cluster
	ledger *network.Ledger
	// retries counts this run's failed-and-retried send attempts
	// (the cluster-wide counter keeps its cumulative total).
	retries atomic.Int64
}

// NewRun opens a per-execution accounting scope.
func (c *Cluster) NewRun() *RunScope {
	return &RunScope{c: c, ledger: network.NewLedger(c.Net)}
}

// Cluster returns the cluster this scope charges.
func (r *RunScope) Cluster() *Cluster { return r.c }

// Ledger returns the run-private transfer ledger.
func (r *RunScope) Ledger() *network.Ledger { return r.ledger }

// Retries returns the run's retried-send count.
func (r *RunScope) Retries() int64 { return r.retries.Load() }

// RunShipment pairs the two ledger entries of one incremental transfer:
// the cumulative cluster entry and the run-private one. Batches are
// added to both, so the shared ledger accumulates every run while the
// run ledger sees only its own bytes.
type RunShipment struct {
	main, run *network.Shipment
}

// OpenShipment starts an incremental transfer accounted in both ledgers.
func (r *RunScope) OpenShipment(from, to string) *RunShipment {
	return &RunShipment{
		main: r.c.Ledger.OpenShipment(from, to),
		run:  r.ledger.OpenShipment(from, to),
	}
}

// ShipBatch delivers one batch of an open shipment across the edge,
// injecting faults and retrying under the cluster's retry policy. The
// shipment is charged — to the cumulative and the run ledger alike —
// only when the batch arrives, so both end bit-identical to a
// fault-free run. The returned error is nil, ctx.Err(), or a typed
// *network.ShipError.
func (r *RunScope) ShipBatch(ctx context.Context, ship *RunShipment, from, to string, batch int, rows, bytes int64) error {
	sp := r.c.obs.StartSpan("ship.batch").
		Tag("from", from).Tag("to", to).TagInt("batch", int64(batch)).TagInt("rows", rows)
	err := r.c.send(ctx, r, from, to, batch, bytes, func(extraMS float64) {
		delta := ship.main.Add(rows, bytes)
		ship.run.Add(rows, bytes)
		r.c.SleepWire(delta + extraMS)
	})
	r.c.finishShip(sp, from, to, rows, bytes, err)
	return err
}
