package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// q3 is TPC-H Q3 on one line: three tables on three sites, so it ships.
const q3 = `SELECT l.orderkey, SUM(l.extendedprice * (1 - l.discount)) AS revenue, o.orderdate, o.shippriority ` +
	`FROM customer c, orders o, lineitem l WHERE c.mktsegment = 'BUILDING' AND c.custkey = o.custkey ` +
	`AND l.orderkey = o.orderkey AND o.orderdate < DATE '1995-03-15' AND l.shipdate > DATE '1995-03-15' ` +
	`GROUP BY l.orderkey, o.orderdate, o.shippriority ORDER BY revenue DESC LIMIT 10`

// cli runs the command in-process at a tiny scale factor and returns
// its exit code, stdout and stderr.
func cli(t *testing.T, stdin string, args ...string) (int, string, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(append([]string{"-sf", "0.0002"}, args...), strings.NewReader(stdin), &out, &errw)
	return code, out.String(), errw.String()
}

// mustRun is cli for invocations expected to exit 0.
func mustRun(t *testing.T, stdin string, args ...string) (stdout, stderr string) {
	t.Helper()
	code, out, errw := cli(t, stdin, args...)
	if code != 0 {
		t.Fatalf("cgdqp %v: exit %d\nstdout:\n%s\nstderr:\n%s", args, code, out, errw)
	}
	return out, errw
}

func wantContains(t *testing.T, what, got string, subs ...string) {
	t.Helper()
	for _, sub := range subs {
		if !strings.Contains(got, sub) {
			t.Errorf("%s: missing %q in:\n%s", what, sub, got)
		}
	}
}

var footerRE = regexp.MustCompile(`(?m)^-- \d+ rows; shipped (\d+) bytes across borders \([0-9.]+ ms simulated\).*$`)

// shippedBytes extracts the footer's byte count (failing without one).
func shippedBytes(t *testing.T, out string) int64 {
	t.Helper()
	m := footerRE.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no result footer in:\n%s", out)
	}
	n, _ := strconv.ParseInt(m[1], 10, 64)
	return n
}

func TestOneShotQuery(t *testing.T) {
	out, errw := mustRun(t, "", "-set", "CR", "-q", q3)
	wantContains(t, "stderr", errw, "loading TPC-H data at SF 0.0002")
	wantContains(t, "plan", out, "Ship[", "TableScan(lineitem AS l)")
	if shippedBytes(t, out) == 0 {
		t.Errorf("Q3 shipped nothing:\n%s", out)
	}
	if strings.Contains(out, "[result cache hit]") {
		t.Errorf("first execution reported a cache hit:\n%s", out)
	}
	// A failed one-shot statement is a failed command (the interactive
	// shell carries on: TestShellSession).
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"malformed", []string{"-q", "SELEC 1"}, "error: sqlparse: "},
		{"policy-rejected", []string{"-q", "SELECT c.comment, l.comment FROM customer c, lineitem l WHERE c.custkey = l.orderkey"},
			"no compliant execution plan"},
		{"unknown-result-location", []string{"-at", "Mars", "-q", q3}, `unknown result location "Mars"`},
	} {
		code, out, errw := cli(t, "", append([]string{"-set", "CR"}, tc.args...)...)
		if code != 1 || !strings.Contains(errw, tc.want) || footerRE.MatchString(out) {
			t.Errorf("%s: exit %d, stderr %q, stdout %q; want exit 1, %q on stderr and no result", tc.name, code, errw, out, tc.want)
		}
	}
}

func TestExplain(t *testing.T) {
	out, _ := mustRun(t, "", "-set", "CR", "-explain", "-q", q3)
	wantContains(t, "explain", out, "TableScan(lineitem AS l)",
		"-- optimization: ", "estimated ship cost: ", "η=", "𝒜 calls=", "[plan cache 0/1 hits]")
	if footerRE.MatchString(out) {
		t.Errorf("-explain executed the query:\n%s", out)
	}
	// The flag's 0 still means "no plan cache", not the option's default.
	out, _ = mustRun(t, "", "-plan-cache", "0", "-explain", "-q", q3)
	if strings.Contains(out, "[plan cache") {
		t.Errorf("-plan-cache 0 left the plan cache on:\n%s", out)
	}
}

// A plan evicted from a one-plan cache is re-planned over the
// exploration kept beside it.
func TestExplainReportsExploreCache(t *testing.T) {
	nation, region := "\\explain SELECT n.name FROM nation n;\n", "\\explain SELECT r.name FROM region r;\n"
	out, _ := mustRun(t, nation+region+nation, "-plan-cache", "1")
	notes := regexp.MustCompile(`(?m)^-- optimization: .*$`).FindAllString(out, -1)
	if len(notes) != 3 {
		t.Fatalf("want 3 optimization lines, got %d:\n%s", len(notes), out)
	}
	for i, n := range notes {
		if got := strings.HasSuffix(n, " [explore cached]"); got != (i == 2) {
			t.Errorf("optimization %d: %q", i, n)
		}
	}
}

func TestExplainAnalyze(t *testing.T) {
	out, _ := mustRun(t, "", "-explain-analyze", "-q", q3)
	wantContains(t, "explain analyze", out, "actual rows=", "TableScan(lineitem AS l)")
	shippedBytes(t, out)
}

// Under -explain-analyze an explain-only statement still prints its plan.
func TestExplainOnlyUnderExplainAnalyze(t *testing.T) {
	for _, tc := range []struct {
		stdin string
		args  []string
	}{
		{"\\explain " + q3 + ";\n", []string{"-explain-analyze"}},
		{"", []string{"-explain-analyze", "-explain", "-q", q3}},
	} {
		out, _ := mustRun(t, tc.stdin, tc.args...)
		wantContains(t, "explain under -explain-analyze", out, "TableScan(lineitem AS l)", "-- optimization: ")
		if strings.Contains(out, "actual rows=") || footerRE.MatchString(out) {
			t.Errorf("%v: explain-only statement executed:\n%s", tc.args, out)
		}
	}
}

func TestShellSession(t *testing.T) {
	stmt := "SELECT c.name, o.totalprice FROM customer c, orders o, lineitem l\n" +
		"  WHERE c.custkey = o.custkey AND l.orderkey = o.orderkey LIMIT 3;\n"
	out, errw := mustRun(t, stmt+stmt+
		"\\policies\n"+
		"\\dot SELECT n.name FROM nation n;\n"+
		"\\analyze\n"+
		"\\explain SELECT n.name FROM nation n;\n"+
		"SELECT nonsense FROM nowhere;\n"+
		"\\quit\n"+stmt,
		"-set", "CR", "-slow-query-log", "-", "-slow-query-threshold", "0")
	footers := footerRE.FindAllString(out, -1)
	if len(footers) != 2 {
		t.Fatalf("want 2 executed statements (\\quit ends the session), got %d:\n%s", len(footers), out)
	}
	first, second := footers[0], footers[1]
	if strings.HasSuffix(first, "[result cache hit]") || !strings.HasSuffix(second, "[result cache hit]") {
		t.Errorf("result cache: first footer %q, second %q", first, second)
	}
	if strings.TrimSuffix(second, " [result cache hit]") != first {
		t.Errorf("cached answer's statistics differ: %q vs %q", first, second)
	}
	wantContains(t, "session", out,
		"compliant geo-distributed SQL shell",
		"  [", " ship ", // \policies
		"digraph", // \dot
		"statistics recomputed from loaded data",
		"-- optimization: ")
	wantContains(t, "stderr", errw, "error: ")

	// One account line per statement run (the prompt precedes it): the
	// two executions and the statement that failed to bind.
	lines := regexp.MustCompile(`(?m)\{"ts".*\}$`).FindAllString(out, -1)
	if len(lines) != 3 {
		t.Fatalf("want 3 account lines, got %d:\n%s", len(lines), out)
	}
	for i, want := range []string{`"outcome":"ok"`, `"outcome":"cache_hit"`, `"outcome":"error"`} {
		wantContains(t, "account line", lines[i], want, `"phases":{"parse_ms":`, `"execute_ms":`)
	}
	wantContains(t, "first account line", lines[0], `"cache":"miss"`, `"plan_cache":"miss"`)
}

func TestChaosParallel(t *testing.T) {
	clean, _ := mustRun(t, "", "-q", q3)
	out, errw := mustRun(t, "", "-chaos-seed", "42", "-q", q3)
	wantContains(t, "stderr", errw, "chaos: injecting WAN faults (seed 42, drop 5%, error 5%, delay 10%; retry ")
	if got, want := shippedBytes(t, out), shippedBytes(t, clean); got != want {
		t.Errorf("chaos run shipped %d bytes, fault-free run %d (ledger parity)", got, want)
	}
	again, _ := mustRun(t, "", "-chaos-seed", "42", "-q", q3)
	if again != out {
		t.Errorf("same chaos seed, different output:\n%s\nvs\n%s", out, again)
	}
}

func TestDataDirReopen(t *testing.T) {
	dir := t.TempDir()
	out1, err1 := mustRun(t, "", "-data-dir", dir, "-metrics-out", "-", "-q", q3)
	wantContains(t, "first run", err1, "loading TPC-H data")
	// The CLI publishes what System.Query publishes.
	wantContains(t, "metrics", out1, `cgdqp_queries_total{status="ok"} 1`,
		"cgdqp_store_pool_hits ", "cgdqp_store_pool_misses ", "cgdqp_store_pool_resident ")
	out2, err2 := mustRun(t, "", "-data-dir", dir, "-q", q3)
	wantContains(t, "second run", err2, "load skipped")
	if strings.Contains(err2, "loading TPC-H data") {
		t.Errorf("second run reloaded:\n%s", err2)
	}
	if !strings.HasPrefix(out1, out2) {
		t.Errorf("recovered data answers differently:\n%s\nvs\n%s", out2, out1)
	}
}

func TestSlowQueryLogLine(t *testing.T) {
	out, _ := mustRun(t, "", "-slow-query-log", "-", "-slow-query-threshold", "0", "-q", q3)
	line := regexp.MustCompile(`(?m)^\{"ts".*\}$`).FindString(out)
	if line == "" {
		t.Fatalf("no slow-query line in:\n%s", out)
	}
	wantContains(t, "slow-query line", line, `"cache":"miss"`, `"qerrors":[`)
	if strings.Contains(line, `"engine"`) {
		t.Errorf("slow-query line still names an exchange engine: %s", line)
	}
	if regexp.MustCompile(`"plan_digest":"[0-9a-f]+"`).FindString(line) == "" {
		t.Errorf("slow-query line without a plan digest: %s", line)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-set", "bogus"},
		{"-no-such-flag"},
		{"-serve"},           // removed with the serving replay
		{"-site-slots", "4"}, // removed with the slot table
		{"-parallel"},        // removed with the inline exchange mode
		{"-feedback"},        // removed with the execution-feedback loop
		{"-trace-out", "-"},  // removed with the span tracer
	} {
		if code, _, errw := cli(t, "", args...); code != 2 || errw == "" {
			t.Errorf("cgdqp %v: exit %d, stderr %q; want exit 2 with a message", args, code, errw)
		}
	}
}
