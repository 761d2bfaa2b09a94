package cgdqp

// A committable storage-engine report: `make bench` runs this harness
// with -bench-report, which measures the persistent paged store's
// access paths on a one-million-row site — full scan vs B+ tree index
// range lookup, hash join vs index-lookup join — each cold (data
// directory freshly reopened, buffer pool empty beyond the index
// rebuild) and warm (pool resident), and rewrites BENCH_store.json.
// Acceptance floor: the warm index range lookup must beat the warm full
// scan by at least 10x. The buffer pool is sized below the table's page
// footprint so full scans churn it while index paths stay resident —
// the regime the optimizer's pool-aware page costing models.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"cgdqp/internal/cluster"
	"cgdqp/internal/executor"
	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/plan"
	"cgdqp/internal/schema"
	"cgdqp/internal/store"
)

const (
	storeBenchRows  = 1_000_000
	storeBenchOuter = 1024
	storeBenchPool  = 16 << 20 // below the fact table's page footprint
	storeBenchLo    = 500_000
	storeBenchHi    = 501_000 // [lo, hi): 1000 of 1M rows, 0.1% selectivity
)

type storeBenchRow struct {
	// Path is the measured access path: full-scan and index-range answer
	// the same 0.1%-selectivity predicate; hash-join and
	// index-lookup-join compute the same 1024-row equi-join.
	Path string `json:"path"`
	// ColdNS is the first execution after reopening the data directory
	// (pool holds only what the index rebuild touched); WarmNS is the
	// median of the subsequent runs.
	ColdNS int64 `json:"cold_ns"`
	WarmNS int64 `json:"warm_ns"`
	// RowsOut pins the result size so the compared paths provably answer
	// the same question.
	RowsOut int `json:"rows_out"`
}

type storeBenchReport struct {
	Tool        string `json:"tool"`
	GoVersion   string `json:"go_version"`
	RowsPerSite int    `json:"rows_per_site"`
	PoolBytes   int64  `json:"pool_bytes"`
	// ScanVsIndexSpeedup = warm full-scan / warm index-range — the >=10x
	// acceptance floor.
	ScanVsIndexSpeedup float64 `json:"scan_vs_index_speedup"`
	// JoinSpeedup = warm hash-join / warm index-lookup-join (tracked,
	// no floor: it depends on the outer cardinality ratio).
	JoinSpeedup float64         `json:"join_speedup"`
	Pool        store.PoolStats `json:"pool_stats_after"`
	Paths       []storeBenchRow `json:"paths"`
}

// storeBenchCatalog declares the fact table (1M rows, B+ tree on key)
// and the small probe-side outer table, both at one site so the
// measurements are storage-bound, not WAN-bound.
func storeBenchCatalog() (*schema.Catalog, *schema.Table, *schema.Table) {
	cat := schema.NewCatalog()
	fact := schema.NewTable("fact", "db-e", "E", storeBenchRows,
		schema.Column{Name: "key", Type: expr.TInt},
		schema.Column{Name: "val", Type: expr.TFloat},
		schema.Column{Name: "tag", Type: expr.TString})
	fact.Indexes = []string{"key"}
	cat.MustAddTable(fact)
	outer := schema.NewTable("probe", "db-e", "E", storeBenchOuter,
		schema.Column{Name: "okey", Type: expr.TInt},
		schema.Column{Name: "w", Type: expr.TFloat})
	cat.MustAddTable(outer)
	return cat, fact, outer
}

func storeBenchOpen(t *testing.T, dir string) *cluster.Cluster {
	t.Helper()
	cat, _, _ := storeBenchCatalog()
	cl, err := cluster.NewWithStore(cat, network.NewCostModel(100, 0.00001), &cluster.StoreConfig{
		DataDir:         dir,
		BufferPoolBytes: storeBenchPool,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestStoreBenchReport is skipped unless -bench-report is given (it is a
// measurement pass, not a correctness test).
func TestStoreBenchReport(t *testing.T) {
	if !*benchReport {
		t.Skip("run with -bench-report to rewrite BENCH_store.json")
	}
	dir := filepath.Join(t.TempDir(), "store-bench")

	// Load once; every measured path reopens this directory.
	{
		cl := storeBenchOpen(t, dir)
		cat, fact, outer := storeBenchCatalog()
		_ = cat
		rows := make([]expr.Row, 0, storeBenchRows)
		for i := 0; i < storeBenchRows; i++ {
			rows = append(rows, expr.Row{
				expr.NewInt(int64(i)),
				expr.NewFloat(float64(i%9973) / 3),
				expr.NewString(fmt.Sprintf("tag-%07d", i%8192)),
			})
		}
		if err := cl.LoadFragment(fact, 0, rows); err != nil {
			t.Fatal(err)
		}
		oRows := make([]expr.Row, 0, storeBenchOuter)
		for i := 0; i < storeBenchOuter; i++ {
			// Outer keys land inside the fact key space, one match each.
			oRows = append(oRows, expr.Row{
				expr.NewInt(int64(i * (storeBenchRows / storeBenchOuter))),
				expr.NewFloat(float64(i)),
			})
		}
		if err := cl.LoadFragment(outer, 0, oRows); err != nil {
			t.Fatal(err)
		}
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
	}

	_, fact, outer := storeBenchCatalog()
	lo, hi := expr.NewInt(storeBenchLo), expr.NewInt(storeBenchHi)
	rangePred := func() expr.Expr {
		return expr.NewAnd(
			expr.NewCmp(expr.GE, expr.NewCol("F", "key"), expr.NewConst(lo)),
			expr.NewCmp(expr.LT, expr.NewCol("F", "key"), expr.NewConst(hi)),
		)
	}
	factScan := func() *plan.Node {
		s := plan.NewScan(fact, "F", 0)
		s.Card = storeBenchRows
		return s
	}
	outerScan := func() *plan.Node {
		s := plan.NewScan(outer, "O", 0)
		s.Card = storeBenchOuter
		return s
	}
	joinPred := func() expr.Expr {
		return expr.NewCmp(expr.EQ, expr.NewCol("O", "okey"), expr.NewCol("F", "key"))
	}

	fullScan := plan.NewFilter(factScan(), rangePred())
	indexRange := factScan()
	indexRange.Kind = plan.IndexScan
	indexRange.Pred = rangePred()
	indexRange.IdxCol = "key"
	indexRange.IdxLo, indexRange.IdxHi = &lo, &hi
	indexRange.IdxLoInc, indexRange.IdxHiInc = true, false
	indexRange.Card = storeBenchHi - storeBenchLo

	hashJoin := plan.NewJoin(outerScan(), factScan(), joinPred())
	hashJoin.Kind = plan.HashJoin
	ilj := plan.NewJoin(outerScan(), factScan(), joinPred())
	ilj.Kind = plan.IndexLookupJoin
	ilj.IdxCol = "key"
	ilj.IdxOuter = expr.NewCol("O", "okey")

	report := storeBenchReport{
		Tool:        "go test -run TestStoreBenchReport -bench-report .",
		GoVersion:   runtime.Version(),
		RowsPerSite: storeBenchRows,
		PoolBytes:   storeBenchPool,
	}

	const warmReps = 5
	wantRows := map[string]int{
		"full-scan":         storeBenchHi - storeBenchLo,
		"index-range":       storeBenchHi - storeBenchLo,
		"hash-join":         storeBenchOuter,
		"index-lookup-join": storeBenchOuter,
	}
	warm := map[string]int64{}
	for _, path := range []struct {
		name string
		root *plan.Node
	}{
		{"full-scan", fullScan},
		{"index-range", indexRange},
		{"hash-join", hashJoin},
		{"index-lookup-join", ilj},
	} {
		// Each path starts from a reopened directory: the pool holds only
		// the pages the index rebuild touched, nothing the previous path
		// warmed.
		cl := storeBenchOpen(t, dir)
		if !cl.FragmentLoaded(fact, 0) || !cl.FragmentLoaded(outer, 0) {
			t.Fatalf("%s: reopened store lost its rows", path.name)
		}
		samples := make([]time.Duration, 0, warmReps)
		var cold int64
		for r := 0; r <= warmReps; r++ {
			runtime.GC()
			t0 := time.Now()
			rows, _, err := executor.Run(path.root, cl)
			d := time.Since(t0)
			if err != nil {
				t.Fatalf("%s: %v", path.name, err)
			}
			if len(rows) != wantRows[path.name] {
				t.Fatalf("%s: %d rows out, want %d", path.name, len(rows), wantRows[path.name])
			}
			if r == 0 {
				cold = d.Nanoseconds()
			} else {
				samples = append(samples, d)
			}
		}
		row := storeBenchRow{Path: path.name, ColdNS: cold, WarmNS: medianNS(samples), RowsOut: wantRows[path.name]}
		report.Paths = append(report.Paths, row)
		warm[path.name] = row.WarmNS
		report.Pool = cl.StoreStats()
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: cold %.2fms, warm %.2fms, %d rows", path.name,
			float64(row.ColdNS)/1e6, float64(row.WarmNS)/1e6, row.RowsOut)
	}

	report.ScanVsIndexSpeedup = float64(warm["full-scan"]) / float64(warm["index-range"])
	report.JoinSpeedup = float64(warm["hash-join"]) / float64(warm["index-lookup-join"])
	t.Logf("index range speedup %.1fx over full scan; index-lookup join %.1fx over hash join",
		report.ScanVsIndexSpeedup, report.JoinSpeedup)
	if report.ScanVsIndexSpeedup < 10 {
		t.Errorf("index range lookup is %.1fx faster than the full scan, want >= 10x",
			report.ScanVsIndexSpeedup)
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_store.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
