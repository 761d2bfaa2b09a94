package cgdqp

// Conformance of the feedback loop: enabling telemetry must never
// change what a query returns. Plans may legally change across
// executions (that is the point of cardinality feedback), so rows are
// compared as sorted multisets against a feedback-free reference rather
// than byte-for-byte with shipping statistics. Under chaos, failures
// must still surface as typed *network.ShipError.

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"testing"
	"time"

	"cgdqp/internal/network"
	"cgdqp/internal/tpch"
)

func sortedRows(rows []Row) []string {
	s := renderRows(rows)
	sort.Strings(s)
	return s
}

// newFeedbackConformSystem is newConformSystem with the full telemetry
// stack on: feedback store, slow-query log (zero threshold, discarded),
// and wire calibration applied after every frame.
func newFeedbackConformSystem(t *testing.T, interp bool) *System {
	t.Helper()
	sys := NewSystemWith(Options{
		NoVectorKernels: interp,
		Feedback:        true,
		SlowQueryLog:    io.Discard,
	})
	sys.Schema = tpch.NewCatalog(0.001)
	for _, tab := range sys.Schema.Tables() {
		sys.MustAddPolicy("ship * from " + tab.Name + " to *")
	}
	if err := tpch.Generate(sys.Schema, sys.Cluster()); err != nil {
		t.Fatal(err)
	}
	sys.Cluster().SetCalibrator(network.NewCalibrator(sys.Net, 1))
	return sys
}

// TestConformanceFeedbackParity runs every golden TPC-H query twice per
// expression-path cell with the feedback loop fully armed. The
// second run executes after the first has recorded actuals (and
// possibly bumped the feedback epoch, re-optimizing the plan); both
// must return the reference row multiset. Chaos seeds additionally pin
// the typed-error contract with telemetry on.
func TestConformanceFeedbackParity(t *testing.T) {
	names := tpch.QueryNames()

	// Reference: feedback-free interpreter, fault-free.
	ref := newConformSystem(t, true, false)
	goldens := map[string][]string{}
	for _, name := range names {
		out := runConform(t, "reference/"+name, ref, tpch.Queries[name])
		if out.err != nil {
			t.Fatalf("reference %s: %v", name, out.err)
		}
		goldens[name] = sortedRows(out.res.Rows)
	}

	seeds := []int64{0, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	retry := network.RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: 20 * time.Microsecond,
		MaxBackoff:  160 * time.Microsecond,
		Multiplier:  2,
		JitterFrac:  0.2,
	}

	compared, replans := 0, 0
	for _, interp := range []bool{false, true} {
		sys := newFeedbackConformSystem(t, interp)
		cl := sys.Cluster()
		for _, seed := range seeds {
			if seed == 0 {
				cl.SetFaults(nil)
			} else {
				cl.SetFaults(NewFaultPlan(seed).SetDefault(EdgeFaults{
					DropProb:      0.08,
					TransientProb: 0.05,
				}))
				cl.SetRetry(retry)
			}
			for _, name := range names {
				label := fmt.Sprintf("interp=%v seed=%d %s", interp, seed, name)
				epochBefore := sys.Feedback().Epoch()
				for run := 0; run < 2; run++ {
					out := runConform(t, fmt.Sprintf("%s run=%d", label, run), sys, tpch.Queries[name])
					if out.err != nil {
						var se *network.ShipError
						if !errors.As(out.err, &se) {
							t.Fatalf("%s run=%d: untyped error: %v", label, run, out.err)
						}
						continue
					}
					got := sortedRows(out.res.Rows)
					want := goldens[name]
					if len(got) != len(want) {
						t.Fatalf("%s run=%d: %d rows, want %d", label, run, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s run=%d: row %d differs:\ngot  %s\nwant %s",
								label, run, i, got[i], want[i])
						}
					}
					compared++
				}
				if sys.Feedback().Epoch() != epochBefore {
					replans++
				}
			}
		}
		cl.SetFaults(nil)

		sum := sys.Feedback().Summary()
		if sum.Tracked == 0 {
			t.Fatalf("interp=%v: telemetry recorded nothing: %+v", interp, sum)
		}
	}
	if compared == 0 {
		t.Error("no run exercised the feedback parity comparison")
	}
	if replans == 0 {
		t.Error("no query ever bumped the feedback epoch; the loop was never stressed")
	}
	t.Logf("feedback parity: %d compared runs, %d epoch-bumping queries", compared, replans)
}
