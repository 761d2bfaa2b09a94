package cgdqp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cgdqp/internal/cluster"
	"cgdqp/internal/executor"
	"cgdqp/internal/network"
	"cgdqp/internal/obs"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/policy"
	"cgdqp/internal/sched"
	"cgdqp/internal/tpch"
)

// TestConcurrentQueriesReportOwnStats is the per-query accounting
// regression test: two different queries running concurrently over one
// system must each report exactly the shipping statistics of their own
// one-at-a-time runs. Before per-run ledger scoping, concurrent runs
// absorbed each other's transfers through the shared cumulative ledger.
// The metrics registry, now the only running per-edge total, must add up
// to exactly what the queries reported.
func TestConcurrentQueriesReportOwnStats(t *testing.T) {
	build := func(opts Options) *System {
		sys := NewSystemWith(opts)
		sys.MustDefineTable("Customer", "db-n", "NorthAmerica", 40,
			Col("custkey", TInt), Col("name", TString))
		sys.MustDefineTable("Orders", "db-e", "Europe", 120,
			Col("custkey", TInt), Col("ordkey", TInt), Col("totprice", TFloat))
		sys.MustAddPolicy("ship * from Customer to *")
		sys.MustAddPolicy("ship * from Orders to *")
		var cRows, oRows []Row
		for i := 0; i < 40; i++ {
			cRows = append(cRows, Row{Int(int64(i)), String(fmt.Sprintf("c%02d", i))})
		}
		for i := 0; i < 120; i++ {
			oRows = append(oRows, Row{Int(int64(i % 40)), Int(int64(i)), Float(float64(i))})
		}
		sys.MustLoad("Customer", cRows)
		sys.MustLoad("Orders", oRows)
		return sys
	}
	queries := []string{
		`SELECT C.name, SUM(O.totprice) AS total
		 FROM Customer C, Orders O WHERE C.custkey = O.custkey GROUP BY C.name`,
		`SELECT O.custkey, COUNT(*) AS cnt FROM Orders O GROUP BY O.custkey`,
	}
	// Result carries no row count: read each query's shipped rows off an
	// unobserved reference system's RunStats.
	ref := build(Options{})
	shippedRows := make([]int64, len(queries))
	for i, q := range queries {
		p, err := ref.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := executor.Run(p.Root, ref.Cluster())
		if err != nil {
			t.Fatal(err)
		}
		shippedRows[i] = st.ShippedRows
	}
	sys := build(Options{Metrics: true})
	var sumBytes, sumRows atomic.Int64
	// Baselines, one query at a time.
	want := make([]*Result, len(queries))
	for i, q := range queries {
		r, err := sys.Query(q)
		if err != nil {
			t.Fatalf("baseline %d: %v", i, err)
		}
		want[i] = r
		sumBytes.Add(r.ShippedBytes)
		sumRows.Add(shippedRows[i])
	}
	// Now run both queries concurrently, repeatedly; each must match
	// its own baseline exactly.
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(queries)*4)
	for round := 0; round < 4; round++ {
		for i, q := range queries {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := sys.QueryContext(context.Background(), q)
				if err != nil {
					errs <- fmt.Errorf("q%d: %v", i, err)
					return
				}
				if got.ShippedBytes != want[i].ShippedBytes || got.ShipCost != want[i].ShipCost {
					errs <- fmt.Errorf("q%d: concurrent stats %d bytes/%.3f cost, one-at-a-time %d bytes/%.3f cost",
						i, got.ShippedBytes, got.ShipCost, want[i].ShippedBytes, want[i].ShipCost)
				}
				sumBytes.Add(got.ShippedBytes)
				sumRows.Add(shippedRows[i])
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var edgeBytes, edgeRows int64
	for _, from := range sys.Schema.Locations() {
		for _, to := range sys.Schema.Locations() {
			edgeBytes += sys.Metrics().CounterValue("cgdqp_ship_bytes_total", "from", from, "to", to)
			edgeRows += sys.Metrics().CounterValue("cgdqp_ship_rows_total", "from", from, "to", to)
		}
	}
	if edgeBytes != sumBytes.Load() || edgeRows != sumRows.Load() || edgeBytes == 0 {
		t.Errorf("per-edge metrics total %d bytes / %d rows, queries reported %d / %d",
			edgeBytes, edgeRows, sumBytes.Load(), sumRows.Load())
	}
}

// TestServeTPCHThroughSystem drives the public serving API end to end:
// a 16-client mixed TPC-H burst through System.Serve must return, for
// every query, rows identical to an isolated sequential run.
func TestServeTPCHThroughSystem(t *testing.T) {
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
	opt := optimizer.New(cat, pc, net, optimizer.Options{Compliant: true, PlanCacheSize: 16})

	names := tpch.QueryNames()
	refs := map[string][]string{}
	for _, name := range names {
		res, err := opt.OptimizeSQL(tpch.Queries[name])
		if err != nil {
			t.Fatalf("%s: optimize: %v", name, err)
		}
		rows, _, err := executor.Run(res.Plan.Clone(), cl)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		refs[name] = renderRows(rows)
	}

	srv := sched.NewServer(sched.Lifecycle{Opt: opt, Cluster: cl}, sched.Options{MaxConcurrent: 6, QueueDepth: 64})
	defer srv.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		name := names[i%len(names)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := srv.Do(context.Background(), tpch.Queries[name])
			if err != nil {
				errs <- fmt.Errorf("%s: %v", name, err)
				return
			}
			got, want := renderRows(resp.Rows), refs[name]
			if len(got) != len(want) {
				errs <- fmt.Errorf("%s: %d rows, want %d", name, len(got), len(want))
				return
			}
			for i := range want {
				if got[i] != want[i] {
					errs <- fmt.Errorf("%s: row %d differs:\ngot  %s\nwant %s", name, i, got[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	c := srv.Counters()
	if c.Completed != 32 {
		t.Errorf("completed %d of 32 (counters %+v)", c.Completed, c)
	}
}

// TestSchedChaosServing is the scheduler's chaos acceptance gate: per
// seed, 12 concurrent mixed TPC-H queries go through a sched.Server
// while the WAN injects deterministic faults. Every admitted query must
// either complete with rows identical to the fault-free reference or
// fail with a typed error (*network.ShipError, or a context error for
// deadline/cancel) — never hang, panic, or return silently wrong rows.
// The compliance audit log must stay well-formed throughout.
func TestSchedChaosServing(t *testing.T) {
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
	opt := optimizer.New(cat, pc, net, optimizer.Options{Compliant: true, PlanCacheSize: 16})

	names := tpch.QueryNames()
	refs := map[string][]string{}
	for _, name := range names {
		res, err := opt.OptimizeSQL(tpch.Queries[name])
		if err != nil {
			t.Fatalf("%s: optimize: %v", name, err)
		}
		rows, _, err := executor.Run(res.Plan.Clone(), cl)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		refs[name] = renderRows(rows)
	}

	audit := obs.NewAuditLog()
	obsv := &obs.Observer{Audit: audit, Metrics: obs.NewRegistry()}
	cl.SetObserver(obsv)
	opt.SetObserver(obsv)
	completed, failed := 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		// Mild seeds recover everything under a generous retry budget;
		// harsh seeds (high drop rate, 2 attempts) force typed failures
		// so both terminal states are exercised.
		retry := network.RetryPolicy{
			MaxAttempts: 6,
			BaseBackoff: 20 * time.Microsecond,
			MaxBackoff:  160 * time.Microsecond,
			Multiplier:  2,
			JitterFrac:  0.2,
		}
		drop := 0.05
		if seed > 3 {
			retry.MaxAttempts = 2
			drop = 0.30
		}
		cl.SetRetry(retry)
		cl.SetFaults(network.NewFaultPlan(seed).SetDefault(network.EdgeFaults{
			DropProb:      drop,
			TransientProb: 0.04,
			DelayProb:     0.10,
			DelayMS:       5,
		}))
		srv := sched.NewServer(sched.Lifecycle{Opt: opt, Cluster: cl, Obs: obsv}, sched.Options{MaxConcurrent: 6, QueueDepth: 32})

		type outcome struct {
			name string
			rows []string
			err  error
		}
		results := make(chan outcome, 12)
		var wg sync.WaitGroup
		for i := 0; i < 12; i++ {
			name := names[(int(seed)+i)%len(names)]
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := srv.Do(context.Background(), tpch.Queries[name])
				if err != nil {
					results <- outcome{name: name, err: err}
					return
				}
				results <- outcome{name: name, rows: renderRows(resp.Rows)}
			}()
		}
		waitDone := make(chan struct{})
		go func() { wg.Wait(); close(waitDone) }()
		select {
		case <-waitDone:
		case <-time.After(chaosWatchdog):
			t.Fatalf("seed %d: serving burst hung past %v", seed, chaosWatchdog)
		}
		srv.Close()
		close(results)
		for out := range results {
			if out.err != nil {
				var se *network.ShipError
				if !errors.As(out.err, &se) &&
					!errors.Is(out.err, context.Canceled) && !errors.Is(out.err, context.DeadlineExceeded) {
					t.Fatalf("seed %d %s: untyped chaos error: %v", seed, out.name, out.err)
				}
				failed++
				continue
			}
			completed++
			want := refs[out.name]
			if len(out.rows) != len(want) {
				t.Fatalf("seed %d %s: %d rows, want %d", seed, out.name, len(out.rows), len(want))
			}
			for i := range want {
				if out.rows[i] != want[i] {
					t.Fatalf("seed %d %s: row %d differs under chaos:\ngot  %s\nwant %s",
						seed, out.name, i, out.rows[i], want[i])
				}
			}
		}
	}
	cl.SetFaults(nil)
	if completed == 0 {
		t.Error("no served chaos query completed; the correctness path went unexercised")
	}
	if failed == 0 {
		t.Error("no served chaos query failed typed; the failure path went unexercised")
	}
	t.Logf("sched chaos: %d completed, %d typed failures across 6 seeds", completed, failed)

	// The audit log must be well-formed after all that concurrency:
	// every record names a real cross-site edge, its source relations,
	// shipped columns and a justification, and the rendering stays
	// canonical (sorted, deterministic).
	recs := audit.Records()
	if len(recs) == 0 {
		t.Fatal("audit log empty after served chaos runs")
	}
	for i, r := range recs {
		if r.From == "" || r.To == "" || r.From == r.To {
			t.Fatalf("audit record %d has a malformed edge: %+v", i, r)
		}
		if len(r.Relations) == 0 || r.Justification == "" {
			t.Fatalf("audit record %d lacks provenance: %+v", i, r)
		}
		if r.Rows < 0 || r.Bytes < 0 || r.Batches < 0 {
			t.Fatalf("audit record %d has impossible volume: %+v", i, r)
		}
	}
	lines := strings.Split(strings.TrimSpace(audit.String()), "\n")
	if len(lines) != len(recs) {
		t.Fatalf("audit rendering: %d lines for %d records", len(lines), len(recs))
	}
	for i := 1; i < len(lines); i++ {
		if lines[i] == "" {
			t.Fatalf("audit rendering: blank line %d", i)
		}
	}
}
