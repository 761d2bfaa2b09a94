package sched

import (
	"context"
	"sync"

	"cgdqp/internal/feedback"
	"cgdqp/internal/plan"
)

// slotTable bounds, per site, the fragment pipelines concurrently
// executing there across all queries. A query gang-acquires every slot
// it needs before execution and releases them all after: because no
// query ever waits while holding slots, cross-query slot deadlocks are
// impossible by construction.
//
// Grants are FIFO with a bounded fit bypass: a later request that fits
// may start ahead of a blocked earlier one, but only bypassLimit times
// per waiter, after which the head waiter reserves the table until its
// gang fits (anti-starvation for wide queries).
type slotTable struct {
	mu      sync.Mutex
	cap     int
	used    map[string]int
	waiters []*slotWait
}

// bypassLimit is how many later gangs may start ahead of a blocked head
// waiter before the table is reserved for it.
const bypassLimit = 8

type slotWait struct {
	need     map[string]int
	ready    chan struct{} // closed when granted
	granted  bool
	bypassed int
}

func newSlotTable(cap int) *slotTable {
	return &slotTable{cap: cap, used: map[string]int{}}
}

// siteCensus is a plan's gang site-slot demand: one fragment pipeline
// per Ship producer on its source site, plus the root fragment on the
// final site. Without a feedback store every fragment counts 1; with
// one, a fragment's demand grows with its observed (or, absent actuals,
// estimated) output cardinality — see fragSlots — so a site hosting one
// huge fragment and one trivial one is charged accordingly instead of
// 1+1. Each site's total is clamped to cap so every plan stays
// schedulable (a query's own fragments then multiplex the site's slots:
// the bound limits cross-query load, it is not a 1:1 thread mapping).
func siteCensus(p *plan.Node, cap int, fb *feedback.Store) map[string]int {
	need := map[string]int{}
	p.Walk(func(n *plan.Node) bool {
		if n.Kind == plan.Ship && n.FromLoc != "" && len(n.Children) == 1 {
			need[n.FromLoc] += fragSlots(n.Children[0], cap, fb)
		}
		return true
	})
	if p.Loc != "" {
		need[p.Loc] += fragSlots(p, cap, fb)
	}
	for site, n := range need {
		if n > cap {
			need[site] = cap
		}
	}
	return need
}

// observedRows is the fragment's best-known output cardinality: the
// feedback store's activated actual for its subplan digest when one
// exists, else the optimizer's estimate carried on the node.
func observedRows(n *plan.Node, fb *feedback.Store) float64 {
	if hint, ok := fb.CardHint(n.SubplanDigest()); ok {
		return hint
	}
	return n.Card
}

// fragSlots is one fragment's slot demand: 1 without a feedback store;
// with one, 1 for anything up to 10k observed rows, +1 per decade
// beyond, capped at 4 and at the per-site bound.
func fragSlots(frag *plan.Node, cap int, fb *feedback.Store) int {
	if fb == nil {
		return 1
	}
	rows, w := observedRows(frag, fb), 1
	for rows > 10000 && w < 4 {
		rows /= 10
		w++
	}
	if w > cap {
		w = cap
	}
	return w
}

// fits reports whether the gang fits right now (caller holds mu).
func (st *slotTable) fits(need map[string]int) bool {
	for site, n := range need {
		if st.used[site]+n > st.cap {
			return false
		}
	}
	return true
}

func (st *slotTable) take(need map[string]int) {
	for site, n := range need {
		st.used[site] += n
	}
}

// acquire blocks until the whole gang is granted or ctx ends. An empty
// need (no located sites) is granted immediately.
func (st *slotTable) acquire(ctx context.Context, need map[string]int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	st.mu.Lock()
	// Fast path: nobody blocked ahead of us (or they have bypass room)
	// and the gang fits.
	if st.fits(need) && st.bypassOK() {
		st.take(need)
		st.mu.Unlock()
		return nil
	}
	w := &slotWait{need: need, ready: make(chan struct{})}
	st.waiters = append(st.waiters, w)
	st.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		st.mu.Lock()
		if w.granted {
			// Lost the race: the grant landed while we were cancelling.
			// Give the slots back so accounting stays balanced.
			st.mu.Unlock()
			st.release(need)
			return ctx.Err()
		}
		for i, o := range st.waiters {
			if o == w {
				st.waiters = append(st.waiters[:i], st.waiters[i+1:]...)
				break
			}
		}
		st.mu.Unlock()
		return ctx.Err()
	}
}

// bypassOK reports whether a fitting newcomer may start ahead of the
// blocked waiters, charging each one bypass credit (caller holds mu).
func (st *slotTable) bypassOK() bool {
	for _, w := range st.waiters {
		if w.bypassed >= bypassLimit {
			return false
		}
	}
	for _, w := range st.waiters {
		w.bypassed++
	}
	return true
}

// release returns a gang's slots and grants waiters that now fit.
func (st *slotTable) release(need map[string]int) {
	st.mu.Lock()
	for site, n := range need {
		st.used[site] -= n
		if st.used[site] <= 0 {
			delete(st.used, site)
		}
	}
	st.grantLocked()
	st.mu.Unlock()
}

// grantLocked grants fitting waiters in FIFO order. A fitting waiter
// may be granted past blocked earlier ones — charging each a unit of
// bypass credit — unless one of them has exhausted its credit, in which
// case it reserves the table until its gang fits (anti-starvation).
func (st *slotTable) grantLocked() {
	i := 0
	for i < len(st.waiters) {
		w := st.waiters[i]
		if !st.fits(w.need) || !st.headroomLocked(i) {
			i++
			continue
		}
		for j := 0; j < i; j++ {
			st.waiters[j].bypassed++
		}
		st.take(w.need)
		w.granted = true
		close(w.ready)
		st.waiters = append(st.waiters[:i], st.waiters[i+1:]...)
	}
}

// headroomLocked reports whether every blocked waiter ahead of index i
// still has bypass credit to spare (caller holds mu).
func (st *slotTable) headroomLocked(i int) bool {
	for j := 0; j < i; j++ {
		if st.waiters[j].bypassed >= bypassLimit {
			return false
		}
	}
	return true
}

// inUse reports the currently held slots at a site (for tests).
func (st *slotTable) inUse(site string) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.used[site]
}
