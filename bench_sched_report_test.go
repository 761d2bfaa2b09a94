package cgdqp

// A committable query-serving report: `make bench` runs this harness
// with -bench-report, which pushes a mixed TPC-H workload through
// sched.Server at 1/4/16 clients (against an unscheduled fan-out of the
// same queries as the baseline), drives a 2x-overload open loop against
// a bounded admission queue, and rewrites BENCH_sched.json. Every
// response is checked byte-identical to the sequential reference, so
// the throughput numbers are at equal correctness.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cgdqp/internal/cluster"
	"cgdqp/internal/executor"
	"cgdqp/internal/network"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/plan"
	"cgdqp/internal/policy"
	"cgdqp/internal/rescache"
	"cgdqp/internal/sched"
	"cgdqp/internal/tpch"
)

type schedBenchRow struct {
	Clients int `json:"clients"`
	// Scheduled: through sched.Server (bounded concurrency, fair queue,
	// per-site slots, shared-work batching).
	SchedQPS   float64 `json:"sched_qps"`
	SchedP50MS float64 `json:"sched_p50_ms"`
	SchedP99MS float64 `json:"sched_p99_ms"`
	// Unscheduled: the same queries fanned out as naked concurrent
	// optimize+execute calls, one goroutine per client.
	UnschedQPS   float64 `json:"unsched_qps"`
	UnschedP50MS float64 `json:"unsched_p50_ms"`
	UnschedP99MS float64 `json:"unsched_p99_ms"`
}

type schedBenchReport struct {
	Tool          string          `json:"tool"`
	GoVersion     string          `json:"go_version"`
	MaxConcurrent int             `json:"max_concurrent"`
	Rows          []schedBenchRow `json:"rows"`
	// Overload: open-loop submissions at 2x the measured 16-client
	// throughput against a small bounded queue. RejectedTyped must be
	// true: overload sheds as ErrQueueFull, never unbounded queueing.
	OverloadOfferedQPS float64 `json:"overload_offered_qps"`
	OverloadCompleted  int64   `json:"overload_completed"`
	OverloadRejected   int64   `json:"overload_rejected"`
	RejectedTyped      bool    `json:"overload_rejections_typed"`
	// Rescache: result-cache effectiveness through the server — cold
	// (every request executes) vs warm (every request hits) p50 latency
	// for the same query mix, and the hit ratio under a Zipf-skewed
	// request stream. The warm path must be at least 10x faster at p50;
	// the report test enforces it.
	Rescache schedBenchRescache `json:"rescache"`
}

type schedBenchRescache struct {
	ColdP50MS    float64 `json:"cold_p50_ms"`
	WarmP50MS    float64 `json:"warm_p50_ms"`
	WarmSpeedup  float64 `json:"warm_speedup"`
	ZipfRequests int64   `json:"zipf_requests"`
	ZipfHits     int64   `json:"zipf_hits"`
	ZipfHitRatio float64 `json:"zipf_hit_ratio"`
}

// TestSchedBenchReport is skipped unless -bench-report is given (it is
// a measurement pass, not a correctness test).
func TestSchedBenchReport(t *testing.T) {
	if !*benchReport {
		t.Skip("run with -bench-report to rewrite BENCH_sched.json")
	}
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
	// Both sides share one optimizer with a warm plan cache, so the
	// comparison isolates execution scheduling, not optimization.
	opt := optimizer.New(cat, pc, net, optimizer.Options{Compliant: true, PlanCacheSize: 32})
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
	verify := func(name string, rows []string) error {
		want := refs[name]
		if len(rows) != len(want) {
			return fmt.Errorf("%s: %d rows, want %d", name, len(rows), len(want))
		}
		for i := range want {
			if rows[i] != want[i] {
				return fmt.Errorf("%s: row %d differs", name, i)
			}
		}
		return nil
	}

	maxConc := runtime.GOMAXPROCS(0)
	if maxConc < 2 {
		maxConc = 2
	}
	if maxConc > 8 {
		maxConc = 8
	}
	report := schedBenchReport{
		Tool:          "go test -run TestSchedBenchReport -bench-report .",
		GoVersion:     runtime.Version(),
		MaxConcurrent: maxConc,
	}

	pctMS := func(lats []time.Duration, p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return float64(lats[int(p*float64(len(lats)-1))].Nanoseconds()) / 1e6
	}
	// Closed-loop driver: `clients` goroutines pull queries round-robin
	// from the mix until `total` have run, verifying every result.
	drive := func(clients, total int, run func(name string) ([]string, error)) (float64, []time.Duration) {
		var next atomic.Int64
		var mu sync.Mutex
		var lats []time.Duration
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= total {
						return
					}
					name := names[i%len(names)]
					t0 := time.Now()
					rows, err := run(name)
					d := time.Since(t0)
					if err == nil {
						err = verify(name, rows)
					}
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					lats = append(lats, d)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		return float64(total) / time.Since(start).Seconds(), lats
	}

	var sched16 float64
	for _, clients := range []int{1, 4, 16} {
		total := 48
		if clients == 16 {
			total = 96
		}
		srv := sched.NewServer(opt, cl, nil, sched.Options{MaxConcurrent: maxConc, QueueDepth: total})
		schedQPS, schedLats := drive(clients, total, func(name string) ([]string, error) {
			resp, err := srv.Do(context.Background(), tpch.Queries[name])
			if err != nil {
				return nil, err
			}
			return renderRows(resp.Rows), nil
		})
		srv.Close()
		unschedQPS, unschedLats := drive(clients, total, func(name string) ([]string, error) {
			res, err := opt.OptimizeSQL(tpch.Queries[name])
			if err != nil {
				return nil, err
			}
			rows, _, err := executor.RunParallel(res.Plan, cl)
			if err != nil {
				return nil, err
			}
			return renderRows(rows), nil
		})
		row := schedBenchRow{
			Clients:  clients,
			SchedQPS: schedQPS, SchedP50MS: pctMS(schedLats, 0.50), SchedP99MS: pctMS(schedLats, 0.99),
			UnschedQPS: unschedQPS, UnschedP50MS: pctMS(unschedLats, 0.50), UnschedP99MS: pctMS(unschedLats, 0.99),
		}
		report.Rows = append(report.Rows, row)
		if clients == 16 {
			sched16 = schedQPS
			if schedQPS < unschedQPS {
				t.Errorf("16 clients: scheduled throughput %.1f q/s below unscheduled %.1f q/s", schedQPS, unschedQPS)
			}
		}
		t.Logf("%2d clients: sched %.1f q/s (p50 %.1fms p99 %.1fms) vs unsched %.1f q/s (p50 %.1fms p99 %.1fms)",
			clients, row.SchedQPS, row.SchedP50MS, row.SchedP99MS,
			row.UnschedQPS, row.UnschedP50MS, row.UnschedP99MS)
	}

	// Overload: offer 2x the measured 16-client throughput against a
	// small bounded queue for 2 seconds. The queue must shed the excess
	// as typed ErrQueueFull rejections.
	offered := 2 * sched16
	srv := sched.NewServer(opt, cl, nil, sched.Options{MaxConcurrent: maxConc, QueueDepth: 8})
	report.OverloadOfferedQPS = offered
	report.RejectedTyped = true
	var tickets []*sched.Ticket
	interval := time.Duration(float64(time.Second) / offered)
	deadline := time.Now().Add(2 * time.Second)
	var qi int
	for time.Now().Before(deadline) {
		name := names[qi%len(names)]
		qi++
		tk, err := srv.Submit(context.Background(), sched.Request{SQL: tpch.Queries[name]})
		switch {
		case err == nil:
			tickets = append(tickets, tk)
		case errors.Is(err, sched.ErrQueueFull):
			report.OverloadRejected++
		default:
			report.RejectedTyped = false
			t.Errorf("overload rejection not typed: %v", err)
		}
		time.Sleep(interval)
	}
	for _, tk := range tickets {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Errorf("admitted overload query failed: %v", err)
		} else {
			report.OverloadCompleted++
		}
	}
	srv.Close()
	if report.OverloadRejected == 0 {
		t.Error("2x overload produced no admission rejections; the queue is not bounding")
	}
	t.Logf("overload at %.1f q/s offered: %d completed, %d rejected (typed=%v)",
		offered, report.OverloadCompleted, report.OverloadRejected, report.RejectedTyped)

	// Result cache: one cache-backed server; no data or policy churn, so
	// the view's epochs are constant and every warm request is a hit.
	rc := rescache.New(64 << 20)
	view := rescache.View{
		DataEpoch:   cl.DataEpoch,
		PolicyEpoch: func() uint64 { return 0 },
		Recheck:     func(*plan.Node) bool { return true },
	}
	rcSrv := sched.NewServer(opt, cl, nil, sched.Options{
		MaxConcurrent: maxConc,
		QueueDepth:    32,
		ResultCache:   rc,
		CacheView:     view,
	})
	defer rcSrv.Close()
	doOne := func(name string) (time.Duration, bool, error) {
		t0 := time.Now()
		resp, err := rcSrv.Do(context.Background(), tpch.Queries[name])
		d := time.Since(t0)
		if err != nil {
			return d, false, err
		}
		if err := verify(name, renderRows(resp.Rows)); err != nil {
			return d, false, err
		}
		return d, resp.CacheHit, nil
	}
	const rcRounds = 8
	var coldLats, warmLats []time.Duration
	for round := 0; round < rcRounds; round++ {
		rc.Purge()
		for _, name := range names {
			d, hit, err := doOne(name)
			if err != nil {
				t.Fatalf("rescache cold %s: %v", name, err)
			}
			if hit {
				t.Fatalf("rescache cold %s: hit from a purged cache", name)
			}
			coldLats = append(coldLats, d)
		}
	}
	// The last cold round left every query cached: warm rounds must hit.
	for round := 0; round < rcRounds; round++ {
		for _, name := range names {
			d, hit, err := doOne(name)
			if err != nil {
				t.Fatalf("rescache warm %s: %v", name, err)
			}
			if !hit {
				t.Fatalf("rescache warm %s: not served from cache", name)
			}
			warmLats = append(warmLats, d)
		}
	}
	report.Rescache.ColdP50MS = pctMS(coldLats, 0.50)
	report.Rescache.WarmP50MS = pctMS(warmLats, 0.50)
	if report.Rescache.WarmP50MS > 0 {
		report.Rescache.WarmSpeedup = report.Rescache.ColdP50MS / report.Rescache.WarmP50MS
	}
	if report.Rescache.WarmP50MS*10 > report.Rescache.ColdP50MS {
		t.Errorf("warm p50 %.3fms is not >=10x faster than cold p50 %.3fms",
			report.Rescache.WarmP50MS, report.Rescache.ColdP50MS)
	}

	// Zipf-skewed stream: a fixed-seed rank-skewed mix (s=1.3) over the
	// query set; the hit ratio comes from the cache's own counters.
	rc.Purge()
	statsBefore := rc.Stats()
	zr := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(zr, 1.3, 1, uint64(len(names)-1))
	const zipfRequests = 300
	for i := 0; i < zipfRequests; i++ {
		name := names[int(zipf.Uint64())]
		if _, _, err := doOne(name); err != nil {
			t.Fatalf("rescache zipf %s: %v", name, err)
		}
	}
	statsAfter := rc.Stats()
	report.Rescache.ZipfRequests = zipfRequests
	report.Rescache.ZipfHits = statsAfter.Hits - statsBefore.Hits
	report.Rescache.ZipfHitRatio = float64(report.Rescache.ZipfHits) / float64(zipfRequests)
	t.Logf("rescache: cold p50 %.2fms vs warm p50 %.3fms (%.0fx); zipf hit ratio %.2f over %d requests",
		report.Rescache.ColdP50MS, report.Rescache.WarmP50MS, report.Rescache.WarmSpeedup,
		report.Rescache.ZipfHitRatio, report.Rescache.ZipfRequests)

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_sched.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
