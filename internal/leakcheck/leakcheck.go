// Package leakcheck fails a test binary, or a single test, when
// goroutines it started outlive it: a server left open, an exchange
// producer never drained.
package leakcheck

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// settle polls the goroutine count back down to base, tolerating runtime
// bookkeeping goroutines that finish late, and returns where it ended up.
func settle(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func allStacks() []byte {
	buf := make([]byte, 1<<20)
	return buf[:runtime.Stack(buf, true)]
}

// Main is a package's TestMain: it runs the tests and fails the binary
// when goroutines outlive them.
func Main(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if f := flag.Lookup("test.fuzz"); f != nil && f.Value.String() != "" {
		os.Exit(code) // the fuzzing engine's own goroutines outlive m.Run
	}
	if after := settle(base); code == 0 && after > base {
		fmt.Fprintf(os.Stderr, "goroutine leak after the package's tests: %d before, %d after\n%s", base, after, allStacks())
		code = 1
	}
	os.Exit(code)
}

// Check arms the same detector for one test, so a leak is pinned on the
// test that caused it: run the returned function deferred, after
// everything the test started is closed.
func Check(t testing.TB) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		if after := settle(before); after > before {
			t.Errorf("goroutine leak: %d before, %d after\n%s", before, after, allStacks())
		}
	}
}
