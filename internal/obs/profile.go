package obs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cgdqp/internal/plan"
)

// OpStats accumulates per-operator actuals for EXPLAIN ANALYZE. Fields
// are atomics because every exchange producer updates its operators'
// stats from its fragment goroutine while other fragments run.
type OpStats struct {
	// Rows is the number of rows the operator produced.
	Rows atomic.Int64
	// Batches is the number of batches produced (wire frames decoded,
	// for a Ship).
	Batches atomic.Int64
	// Opens counts Open calls (re-opened inner sides exceed 1).
	Opens atomic.Int64
	// timeNS is wall time attributed to the operator.
	timeNS atomic.Int64
}

// AddTime attributes wall time to the operator.
func (s *OpStats) AddTime(d time.Duration) {
	if s != nil {
		s.timeNS.Add(int64(d))
	}
}

// Time returns the wall time attributed to the operator.
func (s *OpStats) Time() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.timeNS.Load())
}

// PlanProfile collects per-operator actuals for one execution, keyed by
// the physical plan node the operator was built from. A nil profile is
// a valid disabled one: Stats returns nil and the nil *OpStats methods
// no-op, so unprofiled runs pay only a pointer check.
type PlanProfile struct {
	mu    sync.Mutex
	stats map[*plan.Node]*OpStats
}

// NewPlanProfile returns an empty profile.
func NewPlanProfile() *PlanProfile {
	return &PlanProfile{stats: map[*plan.Node]*OpStats{}}
}

// Stats returns (creating on first use) the stats slot for the node.
func (p *PlanProfile) Stats(n *plan.Node) *OpStats {
	if p == nil || n == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats[n]
	if s == nil {
		s = &OpStats{}
		p.stats[n] = s
	}
	return s
}

// Peek reads a node's stats without creating them; nil means the
// operator never ran (e.g. a pruned inner side), as distinct from one
// that produced zero rows.
func (p *PlanProfile) Peek(n *plan.Node) *OpStats { return p.lookup(n) }

// lookup reads a node's stats without creating them.
func (p *PlanProfile) lookup(n *plan.Node) *OpStats {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats[n]
}

// formatDur renders a duration compactly for the annotated plan.
func formatDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// Format renders the plan like plan.Node.Format with optimizer
// annotations, appending the collected actuals to each operator:
//
//	HashJoin[...]  [@N exec={N} rows=1000]  (actual rows=1000 batches=2 time=1.25ms)
//
// Operators the profile has no stats for (never opened, e.g. pruned
// inner sides) render "(never executed)".
func (p *PlanProfile) Format(root *plan.Node) string {
	var b strings.Builder
	p.format(&b, root, 0)
	return b.String()
}

func (p *PlanProfile) format(b *strings.Builder, n *plan.Node, depth int) {
	if n == nil {
		return
	}
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.OpString())
	var tags []string
	if n.Loc != "" {
		tags = append(tags, "@"+n.Loc)
	}
	if !n.Exec.Empty() {
		tags = append(tags, "exec="+n.Exec.String())
	}
	if !n.ShipT.Empty() {
		tags = append(tags, "ship="+n.ShipT.String())
	}
	if n.Card > 0 {
		tags = append(tags, fmt.Sprintf("rows=%.0f", n.Card))
	}
	if len(tags) > 0 {
		b.WriteString("  [" + strings.Join(tags, " ") + "]")
	}
	if s := p.lookup(n); s != nil {
		b.WriteString(fmt.Sprintf("  (actual rows=%d batches=%d time=%s)",
			s.Rows.Load(), s.Batches.Load(), formatDur(s.Time())))
	} else {
		b.WriteString("  (never executed)")
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		p.format(b, c, depth+1)
	}
}
