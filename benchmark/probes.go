package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// probeScale is the wire-delay scale the wire probe uses when the
// workload itself does not sleep on the WAN.
const probeScale = 0.02

// probes runs the single-layer measurements of the traced run over the
// distinct plans the replay executed. Each of the four that loop over
// plans gets a sixth of the time left (the others are short) and measures
// at least one plan, however little that is.
func (h *harness) probes(m map[string]float64, plans, annotated []planRef, deadline time.Time) error {
	slice := time.Until(deadline) / 6
	until := func() time.Time { return time.Now().Add(slice) }

	speedup, err := probeKernels(h.sys, plans, until())
	if err != nil {
		return fmt.Errorf("kernel probe: %w", err)
	}
	m["expr.kernel_speedup"] = speedup

	w, err := probeWire(h.sys, plans, until())
	if err != nil {
		return err
	}
	m["network.encode_ns_per_row"] = ratio(w.encodeNS, float64(w.rows))
	m["network.decode_ns_per_row"] = ratio(w.decode, float64(w.rows))
	m["network.wire_bytes_per_row"] = ratio(float64(w.bytes), float64(w.rows))

	scale := h.spec.wireDelay
	if scale == 0 {
		scale = probeScale
	}
	extra, serial, n, err := probeWireExposure(h.sys, plans, scale, until())
	if err != nil {
		return fmt.Errorf("wire exposure probe: %w", err)
	}
	m["cluster.wire_exposed_ratio"] = ratio(extra, serial)
	m["cluster.wire_sleep_ms_per_query"] = ratio(extra, float64(n))

	m["policy.evaluate_us_per_call"] = probePolicyEval(h.sys, annotated)
	if m["policy.switch_us"] == 0 {
		// The workload never switches: time re-installing its one set.
		t0 := time.Now()
		if err := h.switchSet(h.set); err != nil {
			return err
		}
		m["policy.switch_us"] = us(time.Since(t0))
	}
	if m["rescache.hit_us"] == 0 && len(plans) > 0 {
		hits, err := probeResultCacheHit(h.sys, plans[0], 64)
		if err != nil {
			return err
		}
		m["rescache.hit_us"] = mean(hits)
	}

	// The SQL fast path every warm Server.Do takes; the replay's own
	// hits go through Optimize(logical) and include normalisation.
	var sqls []string
	for _, q := range h.warmup {
		sqls = append(sqls, q.sql)
	}
	if us := planCacheHitUS(h.sys, sqls); len(us) > 0 {
		m["optimizer.plan_cache_hit_us"] = median(us)
	}

	overhead, err := h.serveOverhead(until())
	if err != nil {
		return fmt.Errorf("serve overhead probe: %w", err)
	}
	m["sched.serve_overhead_us"] = overhead

	if err := h.storeProbes(m); err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	m["runtime.peak_rss_mb"] = peakRSSMB()
	return nil
}

// serveOverhead is what the scheduler adds to a warm query: per query,
// median Server.Do minus median direct optimize+execute, and the median
// of that over the cheapest of the workload's warm-up queries (the cost
// is additive, so cheap queries show it with the least noise).
func (h *harness) serveOverhead(deadline time.Time) (float64, error) {
	srv := uncachedServer(h.sys)
	defer srv.Close()
	type timedQuery struct {
		sql string
		us  float64
	}
	var qs []timedQuery
	for _, q := range h.warmup {
		if !q.legal(h.set) {
			continue
		}
		d, err := directQuery(h.sys, q.sql)
		if err != nil {
			return 0, err
		}
		qs = append(qs, timedQuery{q.sql, us(d)})
	}
	sort.Slice(qs, func(i, j int) bool { return qs[i].us < qs[j].us })
	if len(qs) > 12 {
		qs = qs[:12]
	}
	const reps = 9
	var diffs []float64
	for i, q := range qs {
		if i > 0 && time.Now().After(deadline) {
			break
		}
		var served, direct []float64
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			if _, err := srv.Do(context.Background(), q.sql); err != nil {
				return 0, err
			}
			served = append(served, us(time.Since(t0)))
			d, err := directQuery(h.sys, q.sql)
			if err != nil {
				return 0, err
			}
			direct = append(direct, us(d))
		}
		diffs = append(diffs, median(served)-median(direct))
	}
	return median(diffs), nil
}

// storeProbes copies the data directory as it stands — table files plus
// a WAL that has not been checkpointed, i.e. what a crash would leave —
// reopens the copy (recovery), and times the access paths on it: the
// first full drain meets an empty buffer pool, the second a warm one.
func (h *harness) storeProbes(m map[string]float64) error {
	disk, err := treeSize(h.dir)
	if err != nil {
		return err
	}
	user, err := userBytes(h.sys)
	if err != nil {
		return err
	}
	m["store.disk_bytes_per_user_byte"] = ratio(float64(disk), float64(user))

	crash := filepath.Join(h.work, "crash-image")
	if err := copyTree(h.dir, crash); err != nil {
		return err
	}
	defer os.RemoveAll(crash)
	t0 := time.Now()
	sys, err := h.openSystem(crash)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	defer sys.Close()
	m["store.recover_ms"] = time.Since(t0).Seconds() * 1e3
	if !sys.Loaded("lineitem") {
		return fmt.Errorf("recovered store has lost lineitem")
	}
	r := rand.New(rand.NewSource(int64(h.seed)))
	keys := make([]int64, 32)
	for i := range keys {
		keys[i] = r.Int63n(h.ev.n - storeRangeSpan)
	}
	sp, err := probeStore(sys, "lineitem", "events", "ts", keys, storeRangeSpan, 2)
	if err != nil {
		return err
	}
	if len(sp.scanMS) == 2 {
		m["store.scan_ms_cold"], m["store.scan_ms_warm"] = sp.scanMS[0], sp.scanMS[1]
	}
	m["store.index_lookup_us"] = median(sp.lookupUS)
	m["store.index_range_us"] = median(sp.rangeUS)
	if m["store.append_us_per_row"] == 0 {
		// The workload never appends: time one batch into the copy.
		rows := newEventsGen(h.seed).next(h.spec.appendRows)
		t0 := time.Now()
		if err := sys.Load("events", rows); err != nil {
			return err
		}
		m["store.append_us_per_row"] = us(time.Since(t0)) / float64(len(rows))
	}
	return nil
}

func treeSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		total += fi.Size()
		return nil
	})
	return total, err
}

func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status (0 where that does not exist).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
