package cgdqp

import (
	"context"
	"errors"
	"testing"
	"time"

	"cgdqp/internal/cluster"
	"cgdqp/internal/executor"
	"cgdqp/internal/network"
	"cgdqp/internal/obs"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/plan"
	"cgdqp/internal/policy"
	"cgdqp/internal/tpch"
)

// chaosWatchdog bounds one execution: a run that neither returns nor
// errors within the budget is a deadlock, which the fault layer must
// never introduce.
const chaosWatchdog = 60 * time.Second

type chaosOutcome struct {
	rows  []string
	stats *executor.RunStats
	audit []string // the run's audit records, canonically sorted
	err   error
}

// chaosRun executes a plan once and returns its rows, statistics and
// rendered audit records: one per shipment, with its edge, relations,
// columns, rows, bytes and batches.
func chaosRun(root *plan.Node, cl *cluster.Cluster) chaosOutcome {
	audit := obs.NewAuditLog()
	rows, stats, err := executor.RunParallelOpts(context.Background(), root, cl, &obs.Observer{Audit: audit}, executor.ExecOptions{})
	if err != nil {
		return chaosOutcome{err: err}
	}
	var recs []string
	for _, r := range audit.Records() {
		recs = append(recs, r.String())
	}
	return chaosOutcome{rows: renderRows(rows), stats: stats, audit: recs}
}

// runWithWatchdog executes the plan on a goroutine and fails the test if
// it hangs past the watchdog budget.
func runWithWatchdog(t *testing.T, label string, run func() chaosOutcome) chaosOutcome {
	t.Helper()
	done := make(chan chaosOutcome, 1)
	go func() { done <- run() }()
	select {
	case out := <-done:
		return out
	case <-time.After(chaosWatchdog):
		t.Fatalf("%s: execution hung past %v (deadlock)", label, chaosWatchdog)
		return chaosOutcome{}
	}
}

// TestChaosTPCHSweep is the acceptance gate of the fault-injection
// layer: 20+ seeds × every TPC-H evaluation query. Each run must end in
// one of exactly two states — (a) success with the same rows, the same
// per-shipment audit records and bit-identical shipping statistics as
// the fault-free run, or (b) a typed *network.ShipError.
// Never a hang, a panic, an untyped error, or silently wrong rows.
func TestChaosTPCHSweep(t *testing.T) {
	cat := tpch.NewCatalog(0.002)
	net := network.FiveRegionWAN(cat.Locations())
	cl := cluster.New(cat, net)
	if err := tpch.Generate(cat, cl); err != nil {
		t.Fatal(err)
	}
	pc := policy.NewCatalog()
	for _, tab := range cat.Tables() {
		pc.Add(policy.MustParse("ship * from "+tab.Name+" to *", tab.Name, tab.DB()))
	}
	opt := optimizer.New(cat, pc, net, optimizer.Options{Compliant: true})

	// Fault-free reference per query: rows, statistics and audit
	// records.
	type reference struct {
		root *plan.Node
		chaosOutcome
	}
	refs := map[string]*reference{}
	for _, name := range tpch.QueryNames() {
		res, err := opt.OptimizeSQL(tpch.Queries[name])
		if err != nil {
			t.Fatalf("%s: optimize: %v", name, err)
		}
		out := chaosRun(res.Plan, cl)
		if out.err != nil {
			t.Fatalf("%s: reference run: %v", name, out.err)
		}
		refs[name] = &reference{root: res.Plan, chaosOutcome: out}
	}

	retry := network.RetryPolicy{
		MaxAttempts: 6,
		BaseBackoff: 20 * time.Microsecond,
		MaxBackoff:  160 * time.Microsecond,
		Multiplier:  2,
		JitterFrac:  0.2,
	}
	recovered, failed, retried := 0, 0, int64(0)
	for seed := int64(1); seed <= 24; seed++ {
		cl.SetFaults(network.NewFaultPlan(seed).SetDefault(network.EdgeFaults{
			DropProb:      0.06,
			TransientProb: 0.04,
			DelayProb:     0.15,
			DelayMS:       25,
		}))
		cl.SetRetry(retry)
		for _, name := range tpch.QueryNames() {
			ref := refs[name]
			label := name
			out := runWithWatchdog(t, label, func() chaosOutcome {
				return chaosRun(ref.root, cl)
			})
			if out.err != nil {
				var se *network.ShipError
				if !errors.As(out.err, &se) {
					t.Fatalf("seed %d %s: untyped chaos error: %v", seed, label, out.err)
				}
				if se.From == se.To {
					t.Fatalf("seed %d %s: intra-site shipment failed: %v", seed, label, se)
				}
				failed++
				continue
			}
			recovered++
			retried += out.stats.Retries
			if len(out.rows) != len(ref.rows) {
				t.Fatalf("seed %d %s: %d rows, want %d", seed, label, len(out.rows), len(ref.rows))
			}
			for i := range ref.rows {
				if out.rows[i] != ref.rows[i] {
					t.Fatalf("seed %d %s: row %d differs:\ngot  %s\nwant %s",
						seed, label, i, out.rows[i], ref.rows[i])
				}
			}
			if len(out.audit) != len(ref.audit) {
				t.Fatalf("seed %d %s: %d shipments, want %d", seed, label, len(out.audit), len(ref.audit))
			}
			for i := range ref.audit {
				if out.audit[i] != ref.audit[i] {
					t.Fatalf("seed %d %s: shipment %d differs after retries:\ngot  %s\nwant %s",
						seed, label, i, out.audit[i], ref.audit[i])
				}
			}
			got := *out.stats
			got.Retries = 0
			if got != *ref.stats {
				t.Fatalf("seed %d %s: stats %+v after retries, want %+v", seed, label, got, *ref.stats)
			}
		}
	}
	cl.SetFaults(nil)
	if recovered == 0 {
		t.Error("no chaos run recovered; the parity path went unexercised")
	}
	if retried == 0 {
		t.Error("no run needed a retry; fault rates too low to mean anything")
	}
	t.Logf("chaos sweep: %d recovered runs (%d retried sends), %d typed failures", recovered, retried, failed)
}

// TestChaosPartitionedWAN partitions every WAN edge: any query whose
// plan crosses a site boundary must fail fast with ErrPartitioned; a
// plan that never leaves one site must still succeed.
func TestChaosPartitionedWAN(t *testing.T) {
	cat := tpch.NewCatalog(0.001)
	net := network.FiveRegionWAN(cat.Locations())
	cl := cluster.New(cat, net)
	if err := tpch.Generate(cat, cl); err != nil {
		t.Fatal(err)
	}
	pc := policy.NewCatalog()
	for _, tab := range cat.Tables() {
		pc.Add(policy.MustParse("ship * from "+tab.Name+" to *", tab.Name, tab.DB()))
	}
	opt := optimizer.New(cat, pc, net, optimizer.Options{Compliant: true})
	cl.SetFaults(network.NewFaultPlan(1).SetDefault(network.EdgeFaults{Partitioned: true}))
	cl.SetRetry(network.DefaultRetryPolicy())
	for _, name := range tpch.QueryNames() {
		res, err := opt.OptimizeSQL(tpch.Queries[name])
		if err != nil {
			t.Fatalf("%s: optimize: %v", name, err)
		}
		crossSite := false
		res.Plan.Walk(func(n *plan.Node) bool {
			if n.Kind == plan.Ship && n.FromLoc != n.ToLoc {
				crossSite = true
			}
			return true
		})
		out := runWithWatchdog(t, name, func() chaosOutcome {
			return chaosRun(res.Plan, cl)
		})
		if crossSite {
			if !errors.Is(out.err, network.ErrPartitioned) {
				t.Fatalf("%s crosses sites; error = %v, want ErrPartitioned", name, out.err)
			}
		} else if out.err != nil {
			t.Fatalf("%s is single-site but failed: %v", name, out.err)
		}
	}
	cl.SetFaults(nil)
}

// TestChaosOptionsEndToEnd drives the fault layer through the public
// API: Options.Faults on two identical systems, with a fast retry policy
// on the chaos one; a chaos system either agrees with the calm one or
// fails typed, and the chaos seed replays to the same outcome.
func TestChaosOptionsEndToEnd(t *testing.T) {
	build := func(opts Options) *System {
		sys := NewSystemWith(opts)
		sys.MustDefineTable("Customer", "db-n", "NorthAmerica", 40,
			Col("custkey", TInt), Col("name", TString))
		sys.MustDefineTable("Orders", "db-e", "Europe", 120,
			Col("custkey", TInt), Col("totprice", TFloat))
		sys.MustAddPolicy("ship * from Customer to *")
		sys.MustAddPolicy("ship * from Orders to *")
		var cRows, oRows []Row
		for i := 0; i < 40; i++ {
			cRows = append(cRows, Row{Int(int64(i)), String("c")})
		}
		for i := 0; i < 120; i++ {
			oRows = append(oRows, Row{Int(int64(i % 40)), Float(float64(i))})
		}
		sys.MustLoad("Customer", cRows)
		sys.MustLoad("Orders", oRows)
		return sys
	}
	const q = `SELECT C.name, SUM(O.totprice) AS total
	           FROM Customer C, Orders O WHERE C.custkey = O.custkey GROUP BY C.name`
	calm, err := build(Options{}).Query(q)
	if err != nil {
		t.Fatal(err)
	}
	retry := DefaultRetryPolicy()
	retry.BaseBackoff = 50 * time.Microsecond
	retry.MaxBackoff = 400 * time.Microsecond
	run := func(seed int64) (*Result, error) {
		faults := NewFaultPlan(seed).SetDefault(EdgeFaults{DropProb: 0.3, TransientProb: 0.2})
		sys := build(Options{Faults: faults})
		sys.Cluster().SetRetry(retry)
		return sys.Query(q)
	}
	for seed := int64(1); seed <= 8; seed++ {
		a, errA := run(seed)
		b, errB := run(seed) // replay: same seed, same outcome
		if (errA == nil) != (errB == nil) {
			t.Fatalf("seed %d did not replay: %v vs %v", seed, errA, errB)
		}
		if errA != nil {
			var se *ShipError
			if !errors.As(errA, &se) {
				t.Fatalf("seed %d: untyped error: %v", seed, errA)
			}
			if errB.Error() != errA.Error() {
				t.Fatalf("seed %d: replayed error differs: %v vs %v", seed, errA, errB)
			}
			continue
		}
		if a.Retries != b.Retries {
			t.Fatalf("seed %d: retries did not replay: %d vs %d", seed, a.Retries, b.Retries)
		}
		ga, gc := renderRows(a.Rows), renderRows(calm.Rows)
		for i := range gc {
			if ga[i] != gc[i] {
				t.Fatalf("seed %d: row %d differs from calm run", seed, i)
			}
		}
		if a.ShippedBytes != calm.ShippedBytes || a.ShipCost != calm.ShipCost {
			t.Fatalf("seed %d: shipping stats differ from calm run: %d/%v vs %d/%v",
				seed, a.ShippedBytes, a.ShipCost, calm.ShippedBytes, calm.ShipCost)
		}
	}
}
