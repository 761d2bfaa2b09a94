package executor

import (
	"sort"
	"time"

	"cgdqp/internal/cluster"
	"cgdqp/internal/obs"
	"cgdqp/internal/plan"
)

// This file is the executor's observability layer: ledger-derived
// shipping stats from one consistent snapshot, the execution span and
// metrics around a run, the per-operator profiling wrapper behind
// EXPLAIN ANALYZE, and the compliance audit record each Ship boundary
// emits. Every hook is nil-guarded so the unobserved paths keep their
// old cost.

// scopeStats derives a run's statistics from its private ledger scope.
func scopeStats(scope *cluster.RunScope, rowsOut int64) *RunStats {
	snap := scope.Ledger().Snapshot()
	return &RunStats{
		RowsOut:      rowsOut,
		ShippedRows:  snap.Rows,
		ShippedBytes: snap.Bytes,
		ShipCost:     snap.Cost,
		Retries:      scope.Retries(),
	}
}

// finishExec closes an execution span and records the per-engine
// execution counter and latency histogram.
func finishExec(sp obs.Span, m *obs.Registry, engine string, t0 time.Time, rowsOut int64, err error) {
	status := "ok"
	if err != nil {
		status = "error"
	}
	if sp.Enabled() {
		sp.TagInt("rows_out", rowsOut).Tag("outcome", status).End()
	}
	if m != nil {
		m.Counter("cgdqp_executions_total", "engine", engine, "status", status).Inc()
		if err == nil {
			m.Histogram("cgdqp_execute_seconds", "engine", engine).Observe(time.Since(t0).Seconds())
		}
	}
}

// auditRecFor builds the audit-record template of one Ship boundary:
// which base relations the shipped stream derives from, which columns
// cross the edge, and the compliance justification — the shipping trait
// the optimizer proved for the stream (every site in ShipT may legally
// receive it, ToLoc included), or "unchecked" when the plan was built
// without compliance annotation.
func auditRecFor(n *plan.Node) obs.AuditRecord {
	src := n
	if len(n.Children) > 0 {
		src = n.Children[0]
	}
	seen := map[string]bool{}
	var rels []string
	for _, s := range src.Tables() {
		if s.Table == nil || seen[s.Table.Name] {
			continue
		}
		seen[s.Table.Name] = true
		rels = append(rels, s.Table.Name)
	}
	sort.Strings(rels)
	cols := make([]string, len(src.Cols))
	for i, c := range src.Cols {
		cols[i] = c.Key()
	}
	sort.Strings(cols)
	just := "unchecked"
	if !n.ShipT.Empty() {
		just = "ship-trait " + n.ShipT.String() + " permits " + n.ToLoc
	}
	return obs.AuditRecord{
		From: n.FromLoc, To: n.ToLoc,
		Relations: rels, Columns: cols,
		Justification: just,
	}
}

// --- profiling wrapper ----------------------------------------------------

// profiledOp wraps an operator with actual-stats collection: rows and
// batches are counted per delivered batch. Time is inclusive of
// children (like EXPLAIN ANALYZE's actual time): the wrapper measures
// the full Open/NextBatch call, and nested operators are wrapped too.
type profiledOp struct {
	op    BatchOperator
	stats *obs.OpStats
}

func (p *profiledOp) Open() error {
	t0 := time.Now()
	err := p.op.Open()
	p.stats.AddTime(time.Since(t0))
	p.stats.Opens.Add(1)
	return err
}

func (p *profiledOp) NextBatch() (*Batch, error) {
	t0 := time.Now()
	b, err := p.op.NextBatch()
	p.stats.AddTime(time.Since(t0))
	if b != nil {
		p.stats.Rows.Add(int64(b.Len()))
		p.stats.Batches.Add(1)
	}
	return b, err
}

func (p *profiledOp) Close() error { return p.op.Close() }
