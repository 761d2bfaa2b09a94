package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"cgdqp/internal/network"
)

// TestShipErrorWrappingChains exercises the *network.ShipError error
// chain for each terminal cause — retry exhaustion, per-attempt
// timeout, and partition — and checks errors.Is/errors.As resolve it
// even after an extra layer of fmt.Errorf %w wrapping, the way executor
// callers see it. Each cause must match only its own sentinel.
func TestShipErrorWrappingChains(t *testing.T) {
	sentinels := []error{
		network.ErrBatchDropped,
		network.ErrTransient,
		network.ErrShipTimeout,
		network.ErrPartitioned,
	}
	cases := []struct {
		name     string
		faults   network.EdgeFaults
		retry    network.RetryPolicy
		want     error
		attempts int
	}{
		{
			name:     "retry exhaustion drop",
			faults:   network.EdgeFaults{DropProb: 1},
			retry:    fastRetry(3),
			want:     network.ErrBatchDropped,
			attempts: 3,
		},
		{
			name:     "retry exhaustion transient",
			faults:   network.EdgeFaults{TransientProb: 1},
			retry:    fastRetry(4),
			want:     network.ErrTransient,
			attempts: 4,
		},
		{
			name:   "timeout",
			faults: network.EdgeFaults{DelayProb: 1, DelayMS: 1000},
			retry: func() network.RetryPolicy {
				r := fastRetry(2)
				r.TimeoutMS = 50
				return r
			}(),
			want:     network.ErrShipTimeout,
			attempts: 2,
		},
		{
			name:     "partition fails fast",
			faults:   network.EdgeFaults{Partitioned: true},
			retry:    fastRetry(10),
			want:     network.ErrPartitioned,
			attempts: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := shipTestCluster(t)
			c.SetFaults(network.NewFaultPlan(7).SetDefault(tc.faults))
			c.SetRetry(tc.retry)
			err := shipOne(context.Background(), c, "EU", "AS", 10, 800)
			if err == nil {
				t.Fatal("shipment succeeded under certain faults")
			}

			// The chain resolves both ways: As to the typed error, Is to
			// the sentinel cause.
			var se *network.ShipError
			if !errors.As(err, &se) {
				t.Fatalf("errors.As(*network.ShipError) failed on %v", err)
			}
			if se.From != "EU" || se.To != "AS" {
				t.Errorf("ShipError edge = %s -> %s, want EU -> AS", se.From, se.To)
			}
			if se.Attempts != tc.attempts {
				t.Errorf("ShipError attempts = %d, want %d", se.Attempts, tc.attempts)
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("errors.Is(err, %v) = false", tc.want)
			}
			if !errors.Is(se.Err, tc.want) {
				t.Errorf("unwrapped cause %v, want %v", se.Err, tc.want)
			}
			// No cross-matching: the chain carries exactly one sentinel.
			for _, s := range sentinels {
				if s != tc.want && errors.Is(err, s) {
					t.Errorf("errors.Is(err, %v) matched the wrong sentinel", s)
				}
			}

			// Callers re-wrap with %w; the chain must survive the extra
			// layer (this is how executor errors reach the CLI).
			wrapped := fmt.Errorf("execute: %w", err)
			var se2 *network.ShipError
			if !errors.As(wrapped, &se2) || se2 != se {
				t.Errorf("errors.As through fmt.Errorf wrap failed: %v", wrapped)
			}
			if !errors.Is(wrapped, tc.want) {
				t.Errorf("errors.Is through fmt.Errorf wrap failed for %v", tc.want)
			}
		})
	}
}

// TestShipErrorNotConfusedWithContext: cancellation surfaces as a bare
// context error, never disguised as a ShipError, so callers can tell
// "the WAN failed" from "the caller gave up".
func TestShipErrorNotConfusedWithContext(t *testing.T) {
	c := shipTestCluster(t)
	c.SetFaults(network.NewFaultPlan(3).SetDefault(network.EdgeFaults{TransientProb: 1}))
	c.SetRetry(fastRetry(5))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := shipOne(ctx, c, "EU", "AS", 10, 80)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	var se *network.ShipError
	if errors.As(err, &se) {
		t.Errorf("cancellation surfaced as ShipError %v", se)
	}
}
