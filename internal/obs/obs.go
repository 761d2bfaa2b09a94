// Package obs is the observability subsystem threaded through the
// optimizer, the executors and the shipping layer: a concurrent-safe
// metrics registry (counters, gauges, fixed-bucket histograms) with
// Prometheus text and JSON exports, a deterministic compliance audit
// log of every cross-site shipment, a per-operator execution profile
// behind EXPLAIN ANALYZE, and the per-query account the slow-query log
// writes (QueryRecord).
//
// Everything is built around one invariant: when observability is off it
// costs ~nothing. A nil *Observer (and nil sinks inside a non-nil one)
// short-circuits every hook to a pointer check, allocates nothing, and
// is what production hot paths pay by default; the disabled-path cost is
// guarded by BenchmarkObsDisabledHooks and the exec bench report.
package obs

// Observer bundles the observability sinks an execution reports into.
// Any field may be nil to disable that dimension; a nil *Observer
// disables all of them. The sink pointers must be set before the
// observer is shared (optimizer and cluster read them without locks);
// the sinks themselves are safe for concurrent use.
type Observer struct {
	// Metrics is the counters/gauges/histograms registry.
	Metrics *Registry
	// Audit is the append-only compliance audit log of cross-site
	// shipments.
	Audit *AuditLog
	// Profile collects per-operator actuals for EXPLAIN ANALYZE. Unlike
	// the cumulative sinks above it is per-execution: callers install a
	// fresh one for each analyzed run.
	Profile *PlanProfile
}

// Reg returns the metrics registry (nil when metrics are off). Hooks
// must guard on the returned pointer before building label lists so the
// disabled path allocates nothing.
func (o *Observer) Reg() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// AuditSink returns the audit log (nil when auditing is off).
func (o *Observer) AuditSink() *AuditLog {
	if o == nil {
		return nil
	}
	return o.Audit
}

// Prof returns the per-operator profile (nil when not analyzing).
func (o *Observer) Prof() *PlanProfile {
	if o == nil {
		return nil
	}
	return o.Profile
}

// WithProfile returns a shallow copy of the observer carrying the given
// per-run profile (the cumulative sinks stay shared). Works on a nil
// receiver: the copy then observes only the profile.
func (o *Observer) WithProfile(p *PlanProfile) *Observer {
	var cp Observer
	if o != nil {
		cp = *o
	}
	cp.Profile = p
	return &cp
}

// WithAudit returns a shallow copy of the observer whose audit records
// land in the given log instead of the shared one (metrics stay
// shared). The result-set cache uses it to capture one execution's
// audit records for replay to later cache hits. Works on a nil
// receiver: the copy then observes only the audit log.
func (o *Observer) WithAudit(a *AuditLog) *Observer {
	var cp Observer
	if o != nil {
		cp = *o
	}
	cp.Audit = a
	return &cp
}
