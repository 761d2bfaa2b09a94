package cluster

import (
	"context"
	"errors"
	"time"

	"cgdqp/internal/network"
	"cgdqp/internal/obs"
)

// This file is the cluster's resilient shipping path: the executor's
// exchanges move frames between sites through it. Without a fault plan
// it degrades to the original behaviour (account the transfer, sleep
// the simulated wire time). With one, every send attempt consults the
// plan, failed attempts are retried under the cluster's RetryPolicy (capped
// exponential backoff with deterministic jitter, per-attempt simulated
// timeout), and the transfer ledger is charged only when a batch
// actually arrives — so a run that succeeds after retries accounts
// exactly what a fault-free run would.

// SetFaults installs a fault plan on the WAN (nil removes it). If no
// retry policy was set yet, the default one is installed alongside.
// Configure before execution starts.
func (c *Cluster) SetFaults(p *network.FaultPlan) {
	c.faults = p
	if p != nil && c.retry.MaxAttempts == 0 {
		c.retry = network.DefaultRetryPolicy()
	}
}

// Faults returns the installed fault plan (nil = none).
func (c *Cluster) Faults() *network.FaultPlan { return c.faults }

// SetRetry installs the shipment retry policy.
func (c *Cluster) SetRetry(r network.RetryPolicy) { c.retry = r }

// Retry returns the shipment retry policy in effect.
func (c *Cluster) Retry() network.RetryPolicy { return c.retry }

// TotalRetries returns the monotone count of re-sent attempts; callers
// diff it around an execution, like the ledger totals.
func (c *Cluster) TotalRetries() int64 { return c.retries.Load() }

// finishShip closes the shipment span with its outcome and, on success,
// bumps the per-edge shipping counters. Every step is guarded so a
// disabled observer costs pointer checks only.
func (c *Cluster) finishShip(sp obs.Span, from, to string, rows, bytes int64, err error) {
	if sp.Enabled() {
		sp.Tag("outcome", shipOutcome(err)).End()
	}
	if err != nil {
		return
	}
	if m := c.obs.Reg(); m != nil {
		m.Counter("cgdqp_ship_rows_total", "from", from, "to", to).Add(rows)
		m.Counter("cgdqp_ship_bytes_total", "from", from, "to", to).Add(bytes)
		m.Counter("cgdqp_ship_batches_total", "from", from, "to", to).Inc()
	}
}

// shipOutcome classifies a shipping error for span tags.
func shipOutcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, network.ErrPartitioned):
		return "partitioned"
	case errors.Is(err, network.ErrShipTimeout):
		return "timeout"
	case errors.Is(err, network.ErrBatchDropped):
		return "dropped"
	case errors.Is(err, network.ErrTransient):
		return "transient"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "cancelled"
	default:
		return "error"
	}
}

// faultKind names a per-attempt fault verdict for the fault counters.
func faultKind(err error) string {
	switch {
	case errors.Is(err, network.ErrShipTimeout):
		return "timeout"
	case errors.Is(err, network.ErrBatchDropped):
		return "drop"
	case errors.Is(err, network.ErrTransient):
		return "transient"
	case errors.Is(err, network.ErrPartitioned):
		return "partition"
	default:
		return "other"
	}
}

// countFault bumps the fault counter for one failed attempt.
func (c *Cluster) countFault(err error) {
	if m := c.obs.Reg(); m != nil {
		m.Counter("cgdqp_ship_faults_total", "kind", faultKind(err)).Inc()
	}
}

// send runs the attempt loop: decide the fault verdict, model the wire
// time of failed attempts, back off, and invoke deliver exactly once on
// success. bytes only sizes the simulated attempt cost; accounting is
// deliver's job. The scope receives the run-local retry count.
func (c *Cluster) send(ctx context.Context, scope *RunScope, from, to string, batch int, bytes int64, deliver func(extraMS float64)) error {
	faults := c.faults
	if faults == nil || from == to {
		deliver(0)
		return nil
	}
	attempts := c.retry.Attempts()
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		v := faults.Decide(from, to, batch, attempt)
		if v.Partitioned {
			// A partition outlives any retry budget: fail fast.
			c.countFault(network.ErrPartitioned)
			return &network.ShipError{From: from, To: to, Attempts: attempt, Err: network.ErrPartitioned}
		}
		// Simulated duration of this attempt: bandwidth time plus any
		// injected congestion delay (the start-up α is paid once, when
		// the shipment opens).
		attemptMS := c.Net.Beta(from, to)*float64(bytes) + v.ExtraDelayMS
		if timeout := c.retry.TimeoutMS; timeout > 0 && attemptMS > timeout {
			// The receiver gives up at the budget; the time until then
			// is still spent on the wire.
			c.SleepWire(timeout)
			lastErr = network.ErrShipTimeout
		} else if err := v.Err(); err != nil {
			if err == network.ErrBatchDropped {
				// The batch travelled and was lost: wire time is spent.
				c.SleepWire(attemptMS)
			}
			lastErr = err
		} else {
			deliver(v.ExtraDelayMS)
			return nil
		}
		c.retries.Add(1)
		scope.retries.Add(1)
		c.countFault(lastErr)
		if m := c.obs.Reg(); m != nil {
			m.Counter("cgdqp_ship_retries_total", "from", from, "to", to).Inc()
		}
		if attempt < attempts {
			// The retry span covers the backoff wait for the next attempt.
			rsp := c.obs.StartSpan("ship.retry").
				Tag("from", from).Tag("to", to).TagInt("batch", int64(batch)).
				TagInt("attempt", int64(attempt))
			if rsp.Enabled() {
				rsp = rsp.Tag("fault", faultKind(lastErr))
			}
			err := sleepCtx(ctx, c.retry.Backoff(attempt, faults.Jitter(from, to, batch, attempt)))
			rsp.End()
			if err != nil {
				return err
			}
		}
	}
	return &network.ShipError{From: from, To: to, Attempts: attempts, Err: lastErr}
}

// sleepCtx waits for d or until the context is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
