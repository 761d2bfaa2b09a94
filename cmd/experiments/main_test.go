package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// runCmd runs the command in-process and returns its exit code,
// stdout and stderr.
func runCmd(args ...string) (int, string, string) {
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestTable1(t *testing.T) {
	code, out, errw := runCmd("-fig", "table1")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errw)
	}
	for _, want := range []string{`(?m)^  𝒜\(q1 .*\) = \{l3\}$`, `(?m)^  𝒜\(q2 .*\) = \{l1, l2\}$`} {
		if !regexp.MustCompile(want).MatchString(out) {
			t.Errorf("missing %s in:\n%s", want, out)
		}
	}
}

func TestFig5aCSV(t *testing.T) {
	code, out, errw := runCmd("-fig", "5a", "-sf", "0.001", "-format", "csv")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errw)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1+6*4 || lines[0] != "set,query,traditional,compliant" {
		t.Fatalf("want a header and 6 queries x 4 sets, got:\n%s", out)
	}
	for _, l := range lines[1:] {
		// The compliant optimizer finds a valid plan in every cell.
		if !strings.HasSuffix(l, ",C") {
			t.Errorf("cell %q: compliant column is not C", l)
		}
	}
}

func TestBadFlag(t *testing.T) {
	if code, _, errw := runCmd("-no-such-flag"); code != 2 || errw == "" {
		t.Errorf("exit %d, stderr %q; want exit 2 with a message", code, errw)
	}
}
