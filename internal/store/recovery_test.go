package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cgdqp/internal/expr"
)

// copyDir clones a data directory so a "crashed" state can be reopened
// without disturbing the original.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// walBoundaries returns the byte offset after each record in a WAL
// image (record framing: u32 len, u32 crc, payload).
func walBoundaries(t *testing.T, walData []byte) []int {
	t.Helper()
	var bounds []int
	off := 0
	for off+8 <= len(walData) {
		plen := int(binary.LittleEndian.Uint32(walData[off : off+4]))
		if off+8+plen > len(walData) {
			break
		}
		off += 8 + plen
		bounds = append(bounds, off)
	}
	if off != len(walData) {
		t.Fatalf("WAL has %d trailing bytes past the last record", len(walData)-off)
	}
	return bounds
}

// TestWALKillPoints is the kill-point harness: a sequence of loads is
// applied with pages left dirty in the pool (never flushed), the WAL is
// truncated at every record boundary AND at several mid-record offsets,
// and each truncated image must reopen to exactly the state after some
// whole number of loads — never a torn table.
func TestWALKillPoints(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir, 0)
	tabA, err := e.CreateTable("alpha", []string{"k", "s"},
		[]expr.Type{expr.TInt, expr.TString}, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	tabB, err := e.CreateTable("beta", []string{"v"}, []expr.Type{expr.TInt}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// One WAL record per load step; record the expected state of both
	// tables after every step.
	type state struct{ a, b []expr.Row }
	states := []state{{}}
	loads := []struct {
		tab  *Table
		rows []expr.Row
	}{
		{tabA, []expr.Row{{expr.NewInt(1), expr.NewString("x")}, {expr.NewInt(2), expr.NewString("y")}}},
		{tabB, []expr.Row{intRow(10), intRow(11), intRow(12)}},
		{tabA, func() []expr.Row { // spans multiple pages
			var rs []expr.Row
			for i := 0; i < 900; i++ {
				rs = append(rs, expr.Row{expr.NewInt(int64(i + 3)), expr.NewString("zzzzzzzzzzzzzzzz")})
			}
			return rs
		}()},
		{tabB, []expr.Row{intRow(13)}},
	}
	for _, ld := range loads {
		if err := ld.tab.Append(ld.rows); err != nil {
			t.Fatal(err)
		}
		prev := states[len(states)-1]
		st := state{a: prev.a, b: prev.b}
		if ld.tab == tabA {
			st.a = append(append([]expr.Row(nil), st.a...), ld.rows...)
		} else {
			st.b = append(append([]expr.Row(nil), st.b...), ld.rows...)
		}
		states = append(states, st)
	}

	// Deliberately NOT closing the engine: the pages live dirty in the
	// pool, so the copied directory only has the catalog + the WAL —
	// the crash-iest possible image.
	walData, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	bounds := walBoundaries(t, walData)
	if len(bounds) != len(loads) {
		t.Fatalf("expected %d WAL records, found %d", len(loads), len(bounds))
	}

	check := func(truncAt int, wantState int) {
		t.Helper()
		crash := copyDir(t, dir)
		if err := os.WriteFile(filepath.Join(crash, "wal.log"), walData[:truncAt], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(Options{Dir: crash})
		if err != nil {
			t.Fatalf("reopen at kill point %d: %v", truncAt, err)
		}
		defer re.Close()
		want := states[wantState]
		for _, tc := range []struct {
			name string
			want []expr.Row
		}{{"alpha", want.a}, {"beta", want.b}} {
			tab, ok := re.Table(tc.name)
			if !ok {
				t.Fatalf("kill point %d: table %s missing", truncAt, tc.name)
			}
			got, err := tab.ScanRows()
			if err != nil {
				t.Fatalf("kill point %d: scan %s: %v", truncAt, tc.name, err)
			}
			if len(got) == 0 && len(tc.want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("kill point %d: %s has %d rows, want %d (state %d)",
					truncAt, tc.name, len(got), len(tc.want), wantState)
			}
		}
	}

	// Every record boundary reopens to exactly that many loads applied.
	check(0, 0)
	for i, b := range bounds {
		check(b, i+1)
	}
	// Mid-record truncations (torn tail) reopen to the pre-record state.
	for i, b := range bounds {
		start := 0
		if i > 0 {
			start = bounds[i-1]
		}
		for _, cut := range []int{start + 1, start + 7, start + (b-start)/2, b - 1} {
			if cut <= start || cut >= b {
				continue
			}
			check(cut, i)
		}
	}
}

// TestTornPageRecovered corrupts the page file of a crashed image; the
// invalid page prefix must be discarded and rebuilt from the WAL.
func TestTornPageRecovered(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir, 0)
	tab, err := e.CreateTable("demo", []string{"k"}, []expr.Type{expr.TInt}, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	var want []expr.Row
	for i := 0; i < 2000; i++ {
		want = append(want, intRow(int64(i)))
	}
	if err := tab.Append(want); err != nil {
		t.Fatal(err)
	}

	crash := copyDir(t, dir)
	// Simulate a torn flush: garbage where a page would have landed.
	garbage := make([]byte, PageSize+137)
	for i := range garbage {
		garbage[i] = byte(i * 31)
	}
	if err := os.WriteFile(filepath.Join(crash, safeFileName("demo")), garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Dir: crash})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	tab2, _ := re.Table("demo")
	got, err := tab2.ScanRows()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("torn page recovery: got %d rows, want %d", len(got), len(want))
	}
	lo := expr.NewInt(1500)
	rows, ok, _ := indexRange(tab2, "k", &lo, nil, true, true)
	if !ok || len(rows) != 500 {
		t.Fatalf("index after torn-page recovery: ok=%v n=%d", ok, len(rows))
	}
}

// TestCheckpointThenCrash mixes a durable page prefix with WAL-only
// tail loads.
func TestCheckpointThenCrash(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir, 0)
	tab, err := e.CreateTable("demo", []string{"k"}, []expr.Type{expr.TInt}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []expr.Row
	load := func(n int) {
		var rs []expr.Row
		for i := 0; i < n; i++ {
			rs = append(rs, intRow(int64(len(want)+i)))
		}
		if err := tab.Append(rs); err != nil {
			t.Fatal(err)
		}
		want = append(want, rs...)
	}
	load(1500)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	load(700) // only in the WAL

	crash := copyDir(t, dir)
	re, err := Open(Options{Dir: crash})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	tab2, _ := re.Table("demo")
	got, err := tab2.ScanRows()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpoint+WAL recovery: got %d rows, want %d", len(got), len(want))
	}
}

// TestForeignPageFailsOpen: a checksummed page of another format
// version is not a torn page — the reopen fails with ErrCorrupt and the
// table file keeps every byte, where cutting it as a torn tail would
// reopen the table empty.
func TestForeignPageFailsOpen(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir, 0)
	tab, err := e.CreateTable("demo", mixedCols, mixedTypes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Append(mixedRows(1000)); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, safeFileName("demo"))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(raw[4:6], pageVersion-1)
	sealPage(raw[:PageSize])
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if e, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorrupt) {
		if err == nil {
			e.Close()
		}
		t.Fatalf("reopen over a page of format version %d: %v, want ErrCorrupt", pageVersion-1, err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("the refused page file changed: %d bytes of %d, %v", len(got), len(raw), err)
	}
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestUndecodableWALRecordFailsOpen: a checksummed WAL record that does
// not decode — one of the row codec (op 1), one whose DOUBLEs may be
// NaN or −0 (op 2), one of an unknown table, or one that leaves a gap
// after the rows before it — fails the reopen with ErrCorrupt instead
// of being cut as a torn tail with every record after it. The log keeps every byte, and the failed Open closes every file
// it opened.
func TestUndecodableWALRecordFailsOpen(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir, 0)
	tab, err := e.CreateTable("demo", mixedCols, mixedTypes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Append(mixedRows(10)); err != nil {
		t.Fatal(err)
	}
	walData, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Append(mixedRows(5)); err != nil { // a valid record after the bad one
		t.Fatal(err)
	}
	tail, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	tail = tail[len(walData):]
	defer e.Close()

	next, _ := walRecordOf("demo", 13, mixedRows(3))
	op1 := append([]byte(nil), next...)
	op1[8] = 1
	op2 := append([]byte(nil), next...)
	op2[8] = 2
	gap, _ := walRecordOf("demo", 40, mixedRows(3))
	for name, rec := range map[string][]byte{
		"row codec":     restamp(op1),
		"NaN doubles":   restamp(op2),
		"unknown table": restamp(bytes.Replace(next, []byte("demo"), []byte("gone"), 1)),
		"gap":           gap,
	} {
		crash := copyDir(t, dir)
		log := append(append(append([]byte(nil), walData...), rec...), tail...)
		if err := os.WriteFile(filepath.Join(crash, "wal.log"), log, 0o644); err != nil {
			t.Fatal(err)
		}
		fds := openFDs(t)
		if re, err := Open(Options{Dir: crash}); !errors.Is(err, ErrCorrupt) {
			if err == nil {
				re.Close()
			}
			t.Errorf("%s: reopen: %v, want ErrCorrupt", name, err)
			continue
		}
		if got := openFDs(t); got != fds {
			t.Errorf("%s: the failed Open left %d file descriptors open", name, got-fds)
		}
		if got, err := os.ReadFile(filepath.Join(crash, "wal.log")); err != nil || !bytes.Equal(got, log) {
			t.Errorf("%s: the log changed: %d bytes of %d, %v", name, len(got), len(log), err)
		}
	}
}

// TestCheckpointedPagesNeverRewritten: a checkpoint, and a reopen, seal
// every table's tail page, so every page that existed at a checkpoint
// keeps its bytes after more appends and a second checkpoint: a torn
// writeback can then only hit pages whose rows the log still holds.
func TestCheckpointedPagesNeverRewritten(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, safeFileName("demo"))
	e := openTestEngine(t, dir, 0)
	tab, err := e.CreateTable("demo", mixedCols, mixedTypes, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := mixedRows(2000)
	var durable []byte
	for i, step := range []func() error{
		func() error { return tab.Append(rows[:700]) },
		func() error { return e.Checkpoint() },
		func() error { return tab.Append(rows[700:1000]) },
		func() error { return e.Checkpoint() },
		func() error { return e.Close() },
		func() error {
			if e, err = Open(Options{Dir: dir}); err != nil {
				return err
			}
			tab, _ = e.Table("demo")
			return tab.Append(rows[1000:])
		},
		func() error { return e.Close() },
	} {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:min(len(durable), len(got))], durable) {
			t.Fatalf("step %d rewrote a page the last checkpoint made durable", i)
		}
		if i == 1 || i == 3 || i == 4 {
			durable = got
		}
	}
	e = openTestEngine(t, dir, 0)
	defer e.Close()
	tab, _ = e.Table("demo")
	if got, err := tab.ScanRows(); err != nil || !reflect.DeepEqual(got, rows) {
		t.Fatalf("after the reopens: %d rows, %v", len(got), err)
	}
}
