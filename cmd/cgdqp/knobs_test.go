package main

import (
	"reflect"
	"regexp"
	"strings"
	"testing"

	"cgdqp"
	"cgdqp/internal/obs"
)

// The knob surface: every field of cgdqp.Options, every flag of the
// command and every sink an obs.Observer carries. Adding or removing a
// knob or a sink means editing these lists, so the change shows up in
// review; ROADMAP item 12 quotes their lengths.
var (
	wantOptions = []string{
		"ResultLocation", "Parallel", "Faults", "PlanCacheSize",
		"Metrics", "Audit", "NoVectorKernels", "ResultCacheBytes",
		"SlowQueryLog", "SlowQueryThreshold", "DataDir", "BufferPoolBytes", "Fsync",
	}
	wantFlags = []string{
		"at", "audit-out", "buffer-pool", "chaos-delay", "chaos-drop",
		"chaos-error", "chaos-seed", "data-dir", "explain", "explain-analyze",
		"metrics-out", "obs-addr", "plan-cache", "q", "result-cache",
		"set", "sf", "slow-query-log", "slow-query-threshold",
	}
	wantSinks = []string{"Metrics", "Audit", "Profile"}
)

func fieldNames(v any) []string {
	var fields []string
	typ := reflect.TypeOf(v)
	for i := 0; i < typ.NumField(); i++ {
		fields = append(fields, typ.Field(i).Name)
	}
	return fields
}

func TestKnobSurface(t *testing.T) {
	if fields := fieldNames(cgdqp.Options{}); !reflect.DeepEqual(fields, wantOptions) {
		t.Errorf("cgdqp.Options has %d fields %v, want %d %v", len(fields), fields, len(wantOptions), wantOptions)
	}
	if sinks := fieldNames(obs.Observer{}); !reflect.DeepEqual(sinks, wantSinks) {
		t.Errorf("obs.Observer has %d sinks %v, want %d %v", len(sinks), sinks, len(wantSinks), wantSinks)
	}

	// -h prints the FlagSet's defaults, one "  -name" line per flag,
	// sorted by name.
	code, _, usage := cli(t, "", "-h")
	if code != 0 {
		t.Fatalf("cgdqp -h: exit %d\n%s", code, usage)
	}
	var flags []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllStringSubmatch(usage, -1) {
		flags = append(flags, m[1])
	}
	if !reflect.DeepEqual(flags, wantFlags) {
		t.Errorf("cgdqp has %d flags %s, want %d %s", len(flags), strings.Join(flags, " "), len(wantFlags), strings.Join(wantFlags, " "))
	}
}
