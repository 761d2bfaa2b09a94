// Package executor runs located physical query execution plans over the
// simulated geo-distributed cluster. One operator tree serves every
// execution: BatchOperators (Open / NextBatch / Close) exchanging
// columnar batches. SHIP operators are exchanges that serialize the
// stream into wire frames, move them through the simulated WAN and
// charge the message cost model via the cluster's ledger, which is how
// the plan-quality experiments (Figures 6g/6h) measure execution cost.
// "Sequential" and "parallel" execution differ only in how an exchange
// runs its producer: inline at the consumer's Open, or on its own
// goroutine behind a bounded channel.
package executor

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"cgdqp/internal/cluster"
	"cgdqp/internal/expr"
	"cgdqp/internal/obs"
	"cgdqp/internal/plan"
)

// RunStats summarizes one execution.
type RunStats struct {
	RowsOut      int64
	ShippedRows  int64
	ShippedBytes int64
	// ShipCost is the simulated communication cost (ms) of all SHIP
	// operators, priced by the cluster's message cost model.
	ShipCost float64
	// Retries counts failed send attempts that the shipping path
	// recovered (or gave up on) under the cluster's fault plan; always
	// 0 when no faults are injected.
	Retries int64
}

// Run executes a located physical plan on the calling goroutine —
// every exchange runs its producer inline — and materializes the
// result. RunParallel overlaps the plan's fragments instead; rows,
// their order and the statistics are identical.
func Run(p *plan.Node, c *cluster.Cluster) ([]expr.Row, *RunStats, error) {
	return run(context.Background(), p, c, nil, ExecOptions{}, true)
}

// RunParallel is Run with every exchange producer on its own goroutine.
func RunParallel(p *plan.Node, c *cluster.Cluster) ([]expr.Row, *RunStats, error) {
	return run(context.Background(), p, c, nil, ExecOptions{}, false)
}

// RunObservedOpts is Run under a caller context, an observer (nil
// disables reporting) and explicit execution options. Cancelling the
// context makes the next scan batch or SHIP boundary (including its
// in-flight retry backoff) return the context error. The observer
// receives an execution span and latency histogram around the run, a
// fragment span plus compliance audit record per exchange, and
// per-operator actuals when it carries a PlanProfile.
func RunObservedOpts(ctx context.Context, p *plan.Node, c *cluster.Cluster, o *obs.Observer, opt ExecOptions) ([]expr.Row, *RunStats, error) {
	return run(ctx, p, c, o, opt, true)
}

// RunParallelOpts is RunObservedOpts with every exchange producer on
// its own goroutine. Cancellation additionally tears the producers
// down — they observe it at their next channel send — and the call
// returns only after all of them have exited, so no goroutine or
// ledger entry is left dangling.
func RunParallelOpts(ctx context.Context, p *plan.Node, c *cluster.Cluster, o *obs.Observer, opt ExecOptions) ([]expr.Row, *RunStats, error) {
	return run(ctx, p, c, o, opt, false)
}

// run builds the operator tree, drains it and reads the run's shipping
// statistics from its private ledger scope, so concurrent executions
// over one Cluster each report exactly their own transfers. inline
// selects the exchange mode; nothing else depends on it.
func run(ctx context.Context, p *plan.Node, c *cluster.Cluster, o *obs.Observer, opt ExecOptions, inline bool) ([]expr.Row, *RunStats, error) {
	span, engine := "execute.parallel", "parallel"
	if inline {
		span, engine = "execute.sequential", "seq"
	}
	sp := o.StartSpan(span)
	m := o.Reg()
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	env := &execEnv{c: c, scope: c.NewRun(), ctx: ctx, obsv: o, opt: opt, inline: inline}
	root, err := build(p, env)
	if err != nil {
		finishExec(sp, m, engine, t0, 0, err)
		return nil, nil, err
	}
	env.start()
	rows, err := collect(root)
	// Closing the root drained every exchange, so producers have either
	// finished or (on error) are observing the cancelled context.
	cancel()
	env.wg.Wait()
	if err == nil {
		// The caller cancelled (or timed out) while producers were
		// winding down: their closed exchanges look like clean ends of
		// stream, so guard against returning a partial result as
		// success.
		err = parent.Err()
	}
	if err != nil {
		finishExec(sp, m, engine, t0, 0, err)
		return nil, nil, err
	}
	stats := scopeStats(env.scope, int64(len(rows)))
	finishExec(sp, m, engine, t0, stats.RowsOut, nil)
	return rows, stats, nil
}

// collect drains an operator into a row slice.
func collect(op BatchOperator) ([]expr.Row, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var out []expr.Row
	for {
		b, err := op.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out = append(out, b.Rows()...)
		b.Release()
	}
}

// execEnv is the per-execution state an operator tree is built under
// and its exchanges share: the cluster, the per-run accounting scope,
// the cancellation context scans and exchanges honor, the observer,
// the execution options and the exchange mode.
type execEnv struct {
	c      *cluster.Cluster
	scope  *cluster.RunScope
	ctx    context.Context
	obsv   *obs.Observer
	opt    ExecOptions
	inline bool
	// Goroutine mode only: the registered exchange producers and the
	// group run waits on before returning.
	producers []*exchangeProducer
	wg        sync.WaitGroup
}

// start launches every exchange producer (none are registered in
// inline mode). Every fragment runs exactly once and to completion in
// either mode, so eager start changes overlap, not semantics.
func (e *execEnv) start() {
	for _, p := range e.producers {
		e.wg.Add(1)
		go func(p *exchangeProducer) {
			defer e.wg.Done()
			defer close(p.ch)
			if err := p.run(); err != nil {
				select {
				case p.ch <- exchangeMsg{err: err}:
				case <-e.ctx.Done():
				}
			}
		}(p)
	}
}

// build compiles a plan node into an operator tree. Expression binding
// happens here, on the building goroutine, before any producer starts —
// bound expressions are only read during execution. When the observer
// carries a PlanProfile every operator is wrapped to collect per-node
// actuals.
func build(n *plan.Node, env *execEnv) (BatchOperator, error) {
	kids := n.Children
	if n.Kind == plan.IndexLookupJoin && len(kids) == 2 {
		// The inner scan is reached through the index probes, never
		// executed as an operator.
		kids = kids[:1]
	}
	children := make([]BatchOperator, len(kids))
	for i, ch := range kids {
		op, err := build(ch, env)
		if err != nil {
			return nil, err
		}
		children[i] = op
	}
	vec := env.opt.kernels()
	var op BatchOperator
	var err error
	switch n.Kind {
	case plan.TableScan, plan.Scan:
		op, err = newScan(n, env)
	case plan.IndexScan:
		op, err = newIndexScan(n, env)
	case plan.IndexLookupJoin:
		op, err = newIndexLookupJoin(n, children, env.c)
	case plan.FilterExec, plan.Filter:
		op, err = newFilter(n, children[0], vec)
	case plan.ProjectExec, plan.Project:
		op, err = newProject(n, children[0], vec)
	case plan.HashJoin:
		op, err = newHashJoin(n, children[0], children[1], vec)
	case plan.MergeJoin:
		op, err = newMergeJoin(n, children[0], children[1])
	case plan.NLJoin, plan.Join:
		op, err = newNLJoin(n, children[0], children[1])
	case plan.HashAgg, plan.Aggregate:
		op, err = newHashAgg(n, children[0], vec)
	case plan.SortExec, plan.Sort:
		op, err = newSort(n, children[0], vec)
	case plan.LimitExec, plan.Limit:
		op = &limitOp{src: children[0], n: n.LimitN}
	case plan.UnionAll, plan.Union:
		op = &unionOp{children: children}
	case plan.Ship:
		op = newExchange(n, children[0], env)
	default:
		return nil, fmt.Errorf("executor: unsupported operator %s", n.Kind)
	}
	if err != nil {
		return nil, err
	}
	if prof := env.obsv.Prof(); prof != nil {
		op = &profiledOp{op: op, stats: prof.Stats(n)}
	}
	return op, nil
}

// resolver builds a column resolver over a plan node's output schema.
func resolver(n *plan.Node) expr.Resolver {
	keys := make([]string, len(n.Cols))
	for i, c := range n.Cols {
		keys[i] = c.Key()
	}
	return expr.SliceResolver(keys)
}

// equiKeys splits a join predicate into its column = column conjuncts,
// bound per side (either operand order), and the residual conjuncts
// bound against the concatenated schema.
func equiKeys(n *plan.Node, what string) (lk, rk []expr.Expr, residual expr.Expr, err error) {
	lres := resolver(n.Children[0])
	rres := resolver(n.Children[1])
	var rest []expr.Expr
	for _, c := range expr.Conjuncts(n.Pred) {
		if cmp, ok := c.(*expr.Cmp); ok && cmp.Op == expr.EQ {
			lc, lok := cmp.L.(*expr.Col)
			rc, rok := cmp.R.(*expr.Col)
			if lok && rok {
				if bl, err := expr.Bind(lc, lres); err == nil {
					if br, err := expr.Bind(rc, rres); err == nil {
						lk = append(lk, bl)
						rk = append(rk, br)
						continue
					}
				}
				// Reversed sides.
				if bl, err := expr.Bind(rc, lres); err == nil {
					if br, err := expr.Bind(lc, rres); err == nil {
						lk = append(lk, bl)
						rk = append(rk, br)
						continue
					}
				}
			}
		}
		rest = append(rest, c)
	}
	if len(lk) == 0 {
		return nil, nil, nil, fmt.Errorf("executor: %s without equi-key: %v", what, n.Pred)
	}
	if len(rest) > 0 {
		residual, err = expr.Bind(expr.AndAll(rest...), resolver(n))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("executor: %s residual bind: %w", what, err)
		}
	}
	return lk, rk, residual, nil
}

// rowOut is the output side of the operators that produce rows rather
// than columns (joins, aggregate, sort, index access): it hands the
// rows in buf out BatchSize at a time, copying their headers into the
// pooled batch's own storage so buf can be reused.
type rowOut struct {
	buf []expr.Row
	pos int
}

func (o *rowOut) reset() { o.buf, o.pos = o.buf[:0], 0 }

// nextBatch fills one batch from buf, calling refill for more rows
// whenever buf runs dry. refill resets and repopulates buf and reports
// false at end of stream (nil: buf is the whole result).
func (o *rowOut) nextBatch(refill func() (bool, error)) (*Batch, error) {
	b := NewBatch()
	rows := b.rowBuf[:0]
	for len(rows) < BatchSize {
		if o.pos == len(o.buf) {
			if refill == nil {
				break
			}
			more, err := refill()
			if err != nil {
				b.rowBuf = rows
				b.Release()
				return nil, err
			}
			if !more {
				break
			}
			continue
		}
		end := o.pos + BatchSize - len(rows)
		if end > len(o.buf) {
			end = len(o.buf)
		}
		rows = append(rows, o.buf[o.pos:end]...)
		o.pos = end
	}
	b.rowBuf = rows
	if len(rows) == 0 {
		b.Release()
		return nil, nil
	}
	b.SetRows(rows)
	return b, nil
}

// --- hash join ----------------------------------------------------------

// hashJoinOp joins a probe stream (left) against a hash table built from
// the right child, both consumed a batch at a time. With kernels on
// and every equi-key a bare column, hashing reads the key columns
// directly (bit-identical to hashKey), build rows link into per-hash
// chains alongside typed key copies, and hash-collision rechecks
// compare typed lanes; any chunk that does not vectorize falls back to
// the row path with identical results and error timing.
type hashJoinOp struct {
	node         *plan.Node
	probe, build feed
	leftKeys     []expr.Expr // bound against left schema
	rightKeys    []expr.Expr // bound against right schema
	residual     expr.Expr   // bound against concatenated schema

	vec            bool  // kernels on and all equi-keys are bare columns
	lCols, rCols   []int // key column indexes per side
	lTypes, rTypes []expr.Type
	eqMode         []keyEqMode
	typedEq        bool // every key pair rechecks through typed lanes

	// Build side, vectorized mode: rows in arrival order, with per-hash
	// chains. table maps a key hash to its chain's first and last row;
	// next links rows within one, so chain iteration order matches the
	// row path's per-hash append order.
	buildRows   []expr.Row
	table       chainTable
	next        []int32
	keyArrs     []joinKeyArr // typed build keys, valid while buildKeysOK
	buildKeysOK bool
	// Build side, row mode: the reference hash table, one row slice per
	// key hash in arrival order. Kept deliberately simple — it is the
	// baseline the vectorized mode is measured and checked against.
	rowBuckets map[uint64][]expr.Row

	// Probe state: the first probe chunk is peeked at Open (to skip the
	// hash-table build when the probe side is provably empty) and
	// replayed on the first NextBatch.
	pending *Batch
	peeked  bool
	out     rowOut
	// pendErr is an error found mid-chunk: matches found before the
	// failing row are handed out first.
	pendErr error

	keyVecs []*expr.Vec // scratch: key vectors of the current chunk
	pairs   [][2]int32  // scratch: (probe row, build row) matches
}

// keyEqMode is the typed recheck strategy for one equi-key pair, fixed
// from the static lane types of both sides. Any eqSlow key makes the
// whole recheck go through the row path's Value.Compare, preserving its
// error and coercion behavior for lane combinations it would reject.
type keyEqMode uint8

const (
	eqInt   keyEqMode = iota // both integer-class: int64 equality
	eqFloat                  // numeric with a float side: Compare's <//> over Float()
	eqStr                    // both strings
	eqSlow                   // anything else: row-path Compare
)

func keyMode(lt, rt expr.Type) keyEqMode {
	intClass := func(t expr.Type) bool { return t == expr.TInt || t == expr.TDate }
	numeric := func(t expr.Type) bool { return intClass(t) || t == expr.TFloat }
	switch {
	case intClass(lt) && intClass(rt):
		return eqInt
	case (lt == expr.TFloat || rt == expr.TFloat) && numeric(lt) && numeric(rt):
		return eqFloat
	case lt == expr.TString && rt == expr.TString:
		return eqStr
	}
	return eqSlow
}

// joinKeyArr stores one build-side key column as a typed array parallel
// to buildRows — the target of the typed collision recheck.
type joinKeyArr struct {
	t expr.Type
	i []int64
	f []float64
	s []string
}

func (a *joinKeyArr) reset() { a.i, a.f, a.s = a.i[:0], a.f[:0], a.s[:0] }

func (a *joinKeyArr) appendFrom(v *expr.Vec, i int) {
	switch a.t {
	case expr.TInt, expr.TDate:
		a.i = append(a.i, v.I[i])
	case expr.TFloat:
		a.f = append(a.f, v.F[i])
	case expr.TString:
		a.s = append(a.s, v.S[i])
	case expr.TBool:
		var x int64
		if v.B.Get(i) {
			x = 1
		}
		a.i = append(a.i, x)
	}
}

func (a *joinKeyArr) float(i int32) float64 {
	if a.t == expr.TFloat {
		return a.f[i]
	}
	return float64(a.i[i])
}

// chainTable is the vectorized join's hash index: an open-addressed
// (linear probing) table from a 64-bit key hash to that hash's chain of
// build rows. The chain's first and last row indexes live in the slot
// itself, so a probe hit resolves in one 16-byte slot read — no chain-id
// indirection through side arrays.
type chainSlot struct {
	hash       uint64
	head, tail int32 // head -1: empty slot
}

type chainTable struct {
	slots []chainSlot
	mask  uint64
	used  int
	limit int // grow past this occupancy (¾ load)
}

// reset empties the table, sized for about `hint` distinct keys.
func (t *chainTable) reset(hint int) {
	need := 1024
	for need < hint*2 {
		need <<= 1
	}
	if cap(t.slots) >= need {
		t.slots = t.slots[:need]
	} else {
		t.slots = make([]chainSlot, need)
	}
	for i := range t.slots {
		t.slots[i] = chainSlot{head: -1}
	}
	t.mask = uint64(need - 1)
	t.used = 0
	t.limit = need * 3 / 4
}

// lookup returns the first build row chained under h, or -1.
func (t *chainTable) lookup(h uint64) int32 {
	i := h & t.mask
	for {
		s := &t.slots[i]
		if s.head < 0 || s.hash == h {
			return s.head
		}
		i = (i + 1) & t.mask
	}
}

// slot returns the position holding h, claiming an empty slot (head
// still -1) if the hash is new. The caller fills head/tail.
func (t *chainTable) slot(h uint64) uint64 {
	if t.used >= t.limit {
		t.grow()
	}
	i := h & t.mask
	for {
		s := &t.slots[i]
		if s.head < 0 || s.hash == h {
			return i
		}
		i = (i + 1) & t.mask
	}
}

// grow rehashes into a table 8× larger: the hint is often missing, so
// steep growth keeps the total reinsertion work a small fraction of
// the build.
func (t *chainTable) grow() {
	old := t.slots
	need := 8 * len(old)
	t.slots = make([]chainSlot, need)
	for i := range t.slots {
		t.slots[i].head = -1
	}
	t.mask = uint64(need - 1)
	t.limit = need * 3 / 4
	for _, s := range old {
		if s.head < 0 {
			continue
		}
		j := s.hash & t.mask
		for t.slots[j].head >= 0 {
			j = (j + 1) & t.mask
		}
		t.slots[j] = s
	}
}

func newHashJoin(n *plan.Node, left, right BatchOperator, vec bool) (BatchOperator, error) {
	lk, rk, res, err := equiKeys(n, "hash join")
	if err != nil {
		return nil, err
	}
	j := &hashJoinOp{
		node: n, probe: feed{src: left}, build: feed{src: right},
		leftKeys: lk, rightKeys: rk, residual: res,
		lTypes: colTypes(n.Children[0]), rTypes: colTypes(n.Children[1]),
	}
	if vec {
		j.vec = true
		j.lCols = make([]int, len(lk))
		j.rCols = make([]int, len(lk))
		for i := range lk {
			lc, lok := lk[i].(*expr.Col)
			rc, rok := rk[i].(*expr.Col)
			if !lok || !rok {
				j.vec = false
				break
			}
			j.lCols[i], j.rCols[i] = lc.Index, rc.Index
		}
	}
	if j.vec {
		j.keyVecs = make([]*expr.Vec, len(lk))
		j.keyArrs = make([]joinKeyArr, len(lk))
		j.eqMode = make([]keyEqMode, len(lk))
		j.typedEq = true
		for i := range lk {
			j.keyArrs[i].t = j.rTypes[j.rCols[i]]
			j.eqMode[i] = keyMode(j.lTypes[j.lCols[i]], j.rTypes[j.rCols[i]])
			if j.eqMode[i] == eqSlow {
				j.typedEq = false
			}
		}
	}
	return j, nil
}

func hashKey(keys []expr.Expr, row expr.Row) (uint64, bool, error) {
	var h uint64 = 1469598103934665603
	for _, k := range keys {
		v, err := expr.Eval(k, row)
		if err != nil {
			return 0, false, err
		}
		if v.IsNull() {
			return 0, false, nil // NULL keys never match
		}
		h = h*1099511628211 ^ v.Hash()
	}
	return h, true, nil
}

func (j *hashJoinOp) Open() error {
	j.out.reset()
	j.pendErr = nil
	// Peek the first probe chunk before building: when the probe side is
	// provably empty, the join produces nothing and the hash-table build
	// is wasted work. The build side is still opened and closed (Ship
	// inputs materialize at Open, so transfer accounting is unchanged);
	// only the hashing and insertion are skipped.
	if err := j.probe.open(); err != nil {
		return err
	}
	first, err := j.probe.nextChunk()
	if err != nil {
		return err
	}
	j.pending, j.peeked = first, first != nil
	if err := j.build.open(); err != nil {
		return err
	}
	if j.vec {
		j.buildRows = j.buildRows[:0]
		j.table.reset(j.buildSizeHint())
		j.next = j.next[:0]
		j.buildKeysOK = true
		for i := range j.keyArrs {
			j.keyArrs[i].reset()
		}
	} else {
		j.rowBuckets = make(map[uint64][]expr.Row, j.buildSizeHint())
	}
	if j.peeked {
		if err := j.buildTable(); err != nil {
			return err
		}
	}
	return j.build.close()
}

// buildTable drains the build feed into the chained hash table.
func (j *hashJoinOp) buildTable() error {
	for {
		chunk, err := j.build.nextChunk()
		if err != nil {
			return err
		}
		if chunk == nil {
			return nil
		}
		if chunk.Len() == 0 {
			continue
		}
		if err := j.insertChunk(chunk); err != nil {
			return err
		}
	}
}

// insertChunk hashes one build chunk. In row mode the rows append into
// the reference bucket map. In vectorized mode valid rows link into the
// chains, reading the key columns directly when the chunk vectorizes
// and row by row otherwise; one impure chunk disables the typed recheck
// for the whole build (the key arrays stop tracking buildRows).
func (j *hashJoinOp) insertChunk(chunk *Batch) error {
	rows := chunk.Rows()
	if !j.vec {
		for _, row := range rows {
			h, valid, err := hashKey(j.rightKeys, row)
			if err != nil {
				return err
			}
			if !valid {
				continue
			}
			j.rowBuckets[h] = append(j.rowBuckets[h], row)
		}
		return nil
	}
	if j.chunkKeyVecs(chunk, j.rCols, j.rTypes) {
		sel := chunk.Sel()
		for r := range rows {
			si := r
			if sel != nil {
				si = int(sel[r])
			}
			h, valid := j.hashVecKeys(si)
			if !valid {
				continue // NULL keys never match
			}
			idx := int32(len(j.buildRows))
			j.buildRows = append(j.buildRows, rows[r])
			j.next = append(j.next, -1)
			if j.buildKeysOK {
				for k := range j.keyArrs {
					j.keyArrs[k].appendFrom(j.keyVecs[k], si)
				}
			}
			j.link(h, idx)
		}
		return nil
	}
	j.buildKeysOK = false
	for _, row := range rows {
		h, valid, err := hashKey(j.rightKeys, row)
		if err != nil {
			return err
		}
		if !valid {
			continue
		}
		idx := int32(len(j.buildRows))
		j.buildRows = append(j.buildRows, row)
		j.next = append(j.next, -1)
		j.link(h, idx)
	}
	return nil
}

// chunkKeyVecs resolves one side's key columns over a chunk into
// keyVecs. Every vector must be exact: an inexact vector canonicalizes
// payloads the row path hashes and compares verbatim, so such chunks
// take the row path instead.
func (j *hashJoinOp) chunkKeyVecs(chunk *Batch, cols []int, types []expr.Type) bool {
	d := chunk.Data()
	d.Bind(types)
	for k, c := range cols {
		v, ok := d.ColVec(c)
		if !ok || !v.Exact {
			return false
		}
		j.keyVecs[k] = v
	}
	return true
}

// hashVecKeys combines the key hashes of (pre-selection) row si,
// bit-identical to hashKey over the row.
func (j *hashJoinOp) hashVecKeys(si int) (uint64, bool) {
	var h uint64 = 1469598103934665603
	for _, v := range j.keyVecs {
		if v.IsNullAt(si) {
			return 0, false
		}
		h = h*1099511628211 ^ v.HashAt(si)
	}
	return h, true
}

// link appends build row idx to hash h's chain.
func (j *hashJoinOp) link(h uint64, idx int32) {
	si := j.table.slot(h)
	s := &j.table.slots[si]
	if s.head >= 0 {
		j.next[s.tail] = idx
		s.tail = idx
		return
	}
	s.hash, s.head, s.tail = h, idx, idx
	j.table.used++
}

// buildSizeHint pre-sizes the hash table from the build child's
// cardinality estimate, capped to keep a wild estimate from allocating
// an outsized table up front.
func (j *hashJoinOp) buildSizeHint() int {
	const maxHint = 1 << 20
	card := j.node.Children[1].Card
	switch {
	case card <= 0:
		return 0
	case card >= maxHint:
		return maxHint
	}
	return int(card)
}

func (j *hashJoinOp) NextBatch() (*Batch, error) { return j.out.nextBatch(j.probeNext) }

// probeNext refills out with the matches of the next probe chunk.
func (j *hashJoinOp) probeNext() (bool, error) {
	if j.pendErr != nil {
		return false, j.pendErr
	}
	chunk, err := j.nextProbeChunk()
	if err != nil || chunk == nil {
		return false, err
	}
	j.out.reset()
	if chunk.Len() > 0 {
		j.probeChunk(chunk)
	}
	return true, nil
}

// nextProbeChunk honors the chunk peeked at Open.
func (j *hashJoinOp) nextProbeChunk() (*Batch, error) {
	if j.peeked {
		j.peeked = false
		return j.pending, nil
	}
	return j.probe.nextChunk()
}

// probeChunk matches one probe chunk against the table into out.
// Errors land in pendErr so matches found before the failing row are
// handed out first.
func (j *hashJoinOp) probeChunk(chunk *Batch) {
	rows := chunk.Rows()
	if !j.vec {
		j.probeChunkMap(rows)
		return
	}
	if j.chunkKeyVecs(chunk, j.lCols, j.lTypes) {
		j.probeChunkVec(chunk, rows)
		return
	}
	j.probeChunkRows(rows)
}

func (j *hashJoinOp) probeChunkVec(chunk *Batch, rows []expr.Row) {
	typed := j.typedEq && j.buildKeysOK
	sel := chunk.Sel()
	j.pairs = j.pairs[:0]
probeLoop:
	for r := range rows {
		si := r
		if sel != nil {
			si = int(sel[r])
		}
		h, valid := j.hashVecKeys(si)
		if !valid {
			continue
		}
		for bi := j.table.lookup(h); bi >= 0; bi = j.next[bi] {
			if j.residual != nil {
				out := concatRow(rows[r], j.buildRows[bi])
				keep, err := expr.EvalBool(j.residual, out)
				if err != nil {
					j.pendErr = err
					break probeLoop
				}
				if !keep {
					continue
				}
				eq, err := j.recheck(typed, si, bi, rows[r])
				if err != nil {
					j.pendErr = err
					break probeLoop
				}
				if eq {
					j.out.buf = append(j.out.buf, out)
				}
				continue
			}
			eq, err := j.recheck(typed, si, bi, rows[r])
			if err != nil {
				j.pendErr = err
				break probeLoop
			}
			if eq {
				j.pairs = append(j.pairs, [2]int32{int32(r), bi})
			}
		}
	}
	j.emitPairs(rows)
}

// probeChunkMap is the row-mode reference probe: per-row hashing
// through the interpreter, bucket-map candidates, and one materialized
// row per match. The vectorized mode must be value- and order-identical
// to this path.
func (j *hashJoinOp) probeChunkMap(rows []expr.Row) {
probeLoop:
	for _, row := range rows {
		h, valid, err := hashKey(j.leftKeys, row)
		if err != nil {
			j.pendErr = err
			break probeLoop
		}
		if !valid {
			continue
		}
		for _, bRow := range j.rowBuckets[h] {
			keep, out, err := j.matchRow(row, bRow)
			if err != nil {
				j.pendErr = err
				break probeLoop
			}
			if keep {
				j.out.buf = append(j.out.buf, out)
			}
		}
	}
}

// probeChunkRows handles a probe chunk that did not vectorize while the
// operator is in vectorized mode: per-row hashing, but candidates come
// from the same chains the columnar probe walks.
func (j *hashJoinOp) probeChunkRows(rows []expr.Row) {
probeLoop:
	for _, row := range rows {
		h, valid, err := hashKey(j.leftKeys, row)
		if err != nil {
			j.pendErr = err
			break probeLoop
		}
		if !valid {
			continue
		}
		for bi := j.table.lookup(h); bi >= 0; bi = j.next[bi] {
			keep, out, err := j.matchRow(row, j.buildRows[bi])
			if err != nil {
				j.pendErr = err
				break probeLoop
			}
			if keep {
				j.out.buf = append(j.out.buf, out)
			}
		}
	}
}

// matchRow applies the residual and the key recheck to one candidate
// pair, returning the joined row on a match. The residual runs before
// the key recheck (its errors surface first).
func (j *hashJoinOp) matchRow(probeRow, buildRow expr.Row) (bool, expr.Row, error) {
	if j.residual != nil {
		out := concatRow(probeRow, buildRow)
		keep, err := expr.EvalBool(j.residual, out)
		if err != nil || !keep {
			return false, nil, err
		}
		eq, err := j.keysEqual(probeRow, buildRow)
		if err != nil || !eq {
			return false, nil, err
		}
		return true, out, nil
	}
	eq, err := j.keysEqual(probeRow, buildRow)
	if err != nil || !eq {
		return false, nil, err
	}
	return true, concatRow(probeRow, buildRow), nil
}

// recheck verifies key equality behind a hash hit (collisions). typed
// compares lanes directly; otherwise the row path's Compare runs, with
// its exact error behavior.
func (j *hashJoinOp) recheck(typed bool, si int, bi int32, probeRow expr.Row) (bool, error) {
	if !typed {
		return j.keysEqual(probeRow, j.buildRows[bi])
	}
	for k := range j.eqMode {
		pv := j.keyVecs[k]
		arr := &j.keyArrs[k]
		switch j.eqMode[k] {
		case eqInt:
			if pv.I[si] != arr.i[bi] {
				return false, nil
			}
		case eqFloat:
			var a float64
			if pv.T == expr.TFloat {
				a = pv.F[si]
			} else {
				a = float64(pv.I[si])
			}
			b := arr.float(bi)
			// Compare's float equality is !(a < b) && !(a > b), which is
			// not the same as == when NaN is involved.
			if a < b || a > b {
				return false, nil
			}
		case eqStr:
			if pv.S[si] != arr.s[bi] {
				return false, nil
			}
		}
	}
	return true, nil
}

// emitPairs materializes the chunk's matches into one output slab: each
// joined row is a sub-slice, so the headers in out stay valid without
// a per-row allocation.
func (j *hashJoinOp) emitPairs(rows []expr.Row) {
	if len(j.pairs) == 0 {
		return
	}
	need := 0
	for _, pr := range j.pairs {
		need += len(rows[pr[0]]) + len(j.buildRows[pr[1]])
	}
	slab := make([]expr.Value, 0, need)
	for _, pr := range j.pairs {
		start := len(slab)
		slab = append(slab, rows[pr[0]]...)
		slab = append(slab, j.buildRows[pr[1]]...)
		j.out.buf = append(j.out.buf, expr.Row(slab[start:len(slab):len(slab)]))
	}
}

func concatRow(l, r expr.Row) expr.Row {
	out := make(expr.Row, 0, len(l)+len(r))
	out = append(out, l...)
	return append(out, r...)
}

func (j *hashJoinOp) keysEqual(l, r expr.Row) (bool, error) {
	for i := range j.leftKeys {
		lv, err := expr.Eval(j.leftKeys[i], l)
		if err != nil {
			return false, err
		}
		rv, err := expr.Eval(j.rightKeys[i], r)
		if err != nil {
			return false, err
		}
		if lv.IsNull() || rv.IsNull() {
			return false, nil
		}
		c, err := lv.Compare(rv)
		if err != nil || c != 0 {
			return false, err
		}
	}
	return true, nil
}

func (j *hashJoinOp) Close() error {
	j.buildRows = nil
	j.table = chainTable{}
	j.next = nil
	j.rowBuckets = nil
	j.out = rowOut{}
	j.pending = nil
	return j.probe.close()
}

// --- nested-loop join ---------------------------------------------------

// nlJoinOp materializes its right input at Open and streams the left:
// each left row is paired with every right row and kept when the join
// condition holds.
type nlJoinOp struct {
	left      feed
	right     BatchOperator
	cond      expr.Expr
	rightRows []expr.Row
	out       rowOut
}

func newNLJoin(n *plan.Node, left, right BatchOperator) (BatchOperator, error) {
	var cond expr.Expr
	if n.Pred != nil {
		bound, err := expr.Bind(n.Pred, resolver(n))
		if err != nil {
			return nil, fmt.Errorf("executor: nl join bind: %w", err)
		}
		cond = bound
	}
	return &nlJoinOp{left: feed{src: left}, right: right, cond: cond}, nil
}

func (j *nlJoinOp) Open() error {
	rows, err := collect(j.right)
	if err != nil {
		return err
	}
	j.rightRows = rows
	j.out.reset()
	return j.left.open()
}

func (j *nlJoinOp) NextBatch() (*Batch, error) { return j.out.nextBatch(j.joinNext) }

// joinNext joins the next left row against the right side into out —
// one left row per call bounds the buffered output by the right side.
func (j *nlJoinOp) joinNext() (bool, error) {
	l, ok, err := j.left.nextRow()
	if err != nil || !ok {
		return false, err
	}
	j.out.reset()
	for _, r := range j.rightRows {
		row := concatRow(l, r)
		keep, err := expr.EvalBool(j.cond, row)
		if err != nil {
			return false, err
		}
		if keep {
			j.out.buf = append(j.out.buf, row)
		}
	}
	return true, nil
}

func (j *nlJoinOp) Close() error {
	j.rightRows = nil
	return j.left.close()
}

// --- hash aggregate -----------------------------------------------------

// hashAggOp groups its input and folds each row into per-group
// accumulator lanes, consuming its input a batch at a time. Group
// identity is the binary expr.AppendKey encoding and groups are
// numbered densely in first-appearance order, so the output rows (and
// their order) are independent of the evaluation path.
type hashAggOp struct {
	node    *plan.Node
	feed    feed
	keys    []expr.Expr // bound group-by columns
	args    []expr.Expr // bound aggregate arguments (nil for COUNT(*))
	fns     []expr.AggFn
	inTypes []expr.Type

	lookup    map[string]int32 // AppendKey encoding -> dense group id
	groupVals []expr.Row       // per group id, in first-appearance order
	accs      []*accCol        // per aggregate: typed group-slot lanes
	pos       int              // next group to hand out
	out       rowOut

	// Vectorized absorption (vec true): group keys and aggregate
	// arguments are evaluated column-at-a-time per input chunk, each a
	// bare column or a compiled kernel; the accumulators then update
	// their group lanes straight from the vectors. Any chunk that does
	// not vectorize exactly is re-run through the row path with
	// identical results.
	vec      bool
	keyCols  []int
	keyKerns []*expr.Kernel
	argCols  []int
	argKerns []*expr.Kernel

	// Per-chunk scratch, operator-owned so steady-state absorption does
	// not allocate.
	keyVecs, argVecs   []*expr.Vec
	keyDense, argDense []bool // kernel outputs are dense over the selection
	gids               []int32
	keyBuf             []byte
}

func newHashAgg(n *plan.Node, src BatchOperator, vec bool) (BatchOperator, error) {
	res := resolver(n.Children[0])
	keys := make([]expr.Expr, len(n.GroupBy))
	for i, g := range n.GroupBy {
		bound, err := expr.Bind(g, res)
		if err != nil {
			return nil, fmt.Errorf("executor: group-by bind %s: %w", g, err)
		}
		keys[i] = bound
	}
	args := make([]expr.Expr, len(n.Aggs))
	fns := make([]expr.AggFn, len(n.Aggs))
	for i, a := range n.Aggs {
		fns[i] = a.Fn
		if a.Arg != nil {
			bound, err := expr.Bind(a.Arg, res)
			if err != nil {
				return nil, fmt.Errorf("executor: aggregate bind %s: %w", a.Arg, err)
			}
			args[i] = bound
		}
	}
	op := &hashAggOp{
		node: n, feed: feed{src: src}, keys: keys, args: args, fns: fns,
		inTypes: colTypes(n.Children[0]),
	}
	op.accs = make([]*accCol, len(fns))
	for i, fn := range fns {
		op.accs[i] = &accCol{fn: fn}
	}
	if vec {
		op.vec = true
		op.keyCols, op.keyKerns = classifyExprs(keys, op.inTypes, &op.vec)
		op.argCols, op.argKerns = classifyExprs(args, op.inTypes, &op.vec)
		if op.vec {
			op.keyVecs = make([]*expr.Vec, len(keys))
			op.keyDense = make([]bool, len(keys))
			op.argVecs = make([]*expr.Vec, len(args))
			op.argDense = make([]bool, len(args))
		}
	}
	return op, nil
}

// classifyExprs sorts each expression into bare-column or compiled-
// kernel evaluation; anything else clears vec (nil entries — COUNT(*)
// arguments — are fine and stay nil on both sides).
func classifyExprs(exprs []expr.Expr, types []expr.Type, vec *bool) ([]int, []*expr.Kernel) {
	cols := make([]int, len(exprs))
	kerns := make([]*expr.Kernel, len(exprs))
	for i, e := range exprs {
		cols[i] = -1
		if e == nil {
			continue
		}
		if c, ok := e.(*expr.Col); ok {
			cols[i] = c.Index
			continue
		}
		if k, ok := expr.Compile(e, types); ok {
			kerns[i] = k
			continue
		}
		*vec = false
	}
	return cols, kerns
}

func (a *hashAggOp) Open() error {
	if err := a.feed.open(); err != nil {
		return err
	}
	a.lookup = make(map[string]int32)
	a.groupVals = a.groupVals[:0]
	for _, acc := range a.accs {
		acc.reset()
	}
	a.pos = 0
	a.out.reset()
	for {
		chunk, err := a.feed.nextChunk()
		if err != nil {
			return err
		}
		if chunk == nil {
			break
		}
		if chunk.Len() == 0 {
			continue
		}
		if err := a.absorbChunk(chunk); err != nil {
			return err
		}
	}
	if err := a.feed.close(); err != nil {
		return err
	}
	// A global aggregation over zero rows still yields one row.
	if len(a.keys) == 0 && len(a.groupVals) == 0 {
		a.newGroup("", nil)
	}
	return nil
}

// newGroup registers a group and grows every accumulator's lanes by one
// slot; the new dense group id is returned.
func (a *hashAggOp) newGroup(key string, vals expr.Row) int32 {
	gid := int32(len(a.groupVals))
	a.groupVals = append(a.groupVals, vals)
	a.lookup[key] = gid
	for _, acc := range a.accs {
		acc.grow()
	}
	return gid
}

// absorbChunk folds one input chunk into the groups, vectorized when
// possible and row by row otherwise.
func (a *hashAggOp) absorbChunk(chunk *Batch) error {
	if a.vec && a.absorbVecChunk(chunk) {
		return nil
	}
	for _, row := range chunk.Rows() {
		if err := a.absorbRow(row); err != nil {
			return err
		}
	}
	return nil
}

// absorbVecChunk evaluates all key/argument columns of the chunk at
// once, assigns every row its dense group id, and lets each accumulator
// update its typed group lanes straight from the argument vector — no
// per-row Value boxing. It reports false when a vector could not be
// resolved (a lane-impure or inexact column, a kernel error): the
// caller re-runs the chunk row by row, reproducing interpreter behavior
// exactly.
func (a *hashAggOp) absorbVecChunk(chunk *Batch) bool {
	d := chunk.Data()
	d.Bind(a.inTypes)
	sel := chunk.Sel()
	n := chunk.Len()
	for i := range a.keys {
		v, dense, ok := a.evalVec(d, sel, a.keyCols[i], a.keyKerns[i])
		if !ok {
			return false
		}
		a.keyVecs[i], a.keyDense[i] = v, dense
	}
	for i := range a.args {
		if a.args[i] == nil {
			continue
		}
		v, dense, ok := a.evalVec(d, sel, a.argCols[i], a.argKerns[i])
		if !ok {
			return false
		}
		a.argVecs[i], a.argDense[i] = v, dense
	}
	if cap(a.gids) < n {
		a.gids = make([]int32, n)
	}
	a.gids = a.gids[:n]
	for r := 0; r < n; r++ {
		a.keyBuf = a.keyBuf[:0]
		for i, v := range a.keyVecs {
			vi := r
			if !a.keyDense[i] && sel != nil {
				vi = int(sel[r])
			}
			a.keyBuf = v.AppendKeyAt(a.keyBuf, vi)
		}
		gid, ok := a.lookup[string(a.keyBuf)]
		if !ok {
			vals := make(expr.Row, len(a.keys))
			for i, v := range a.keyVecs {
				// Bare columns take the row's value as-is (exact NULL
				// type preservation); kernel NULLs materialize with the
				// operator's NullT, matching the interpreter.
				if a.keyCols[i] >= 0 {
					vals[i] = chunk.RowValue(r, a.keyCols[i])
				} else {
					vals[i] = v.Value(r)
				}
			}
			gid = a.newGroup(string(a.keyBuf), vals)
		}
		a.gids[r] = gid
	}
	for i, acc := range a.accs {
		if a.args[i] == nil {
			if len(acc.count) > 0 {
				for _, g := range a.gids {
					acc.count[g]++
				}
			}
			continue
		}
		acc.addVec(a.gids, a.argVecs[i], sel, a.argDense[i], n)
	}
	return true
}

// evalVec resolves one classified expression over the chunk. dense
// reports kernel outputs, which are indexed by selection position;
// column vectors are indexed by pre-selection row. Bare columns must be
// exact: an inexact vector canonicalizes payloads the row path feeds to
// the accumulators and key encoder verbatim.
func (a *hashAggOp) evalVec(d *expr.Batch, sel []int32, col int, kern *expr.Kernel) (*expr.Vec, bool, bool) {
	if col >= 0 {
		v, ok := d.ColVec(col)
		if !ok || !v.Exact {
			return nil, false, false
		}
		return v, false, true
	}
	v, err := kern.EvalVec(d, sel)
	if err != nil {
		return nil, false, false
	}
	return v, true, true
}

func (a *hashAggOp) absorbRow(row expr.Row) error {
	a.keyBuf = a.keyBuf[:0]
	vals := make(expr.Row, len(a.keys))
	for i, k := range a.keys {
		v, err := expr.Eval(k, row)
		if err != nil {
			return err
		}
		vals[i] = v
		a.keyBuf = expr.AppendKey(a.keyBuf, v)
	}
	gid, ok := a.lookup[string(a.keyBuf)]
	if !ok {
		gid = a.newGroup(string(a.keyBuf), vals)
	}
	for i, acc := range a.accs {
		if a.args[i] == nil {
			acc.addCountStar(gid)
			continue
		}
		v, err := expr.Eval(a.args[i], row)
		if err != nil {
			return err
		}
		acc.addVal(gid, v)
	}
	return nil
}

func (a *hashAggOp) NextBatch() (*Batch, error) { return a.out.nextBatch(a.emitGroups) }

// emitGroups refills out with the result rows of the next BatchSize
// groups.
func (a *hashAggOp) emitGroups() (bool, error) {
	if a.pos >= len(a.groupVals) {
		return false, nil
	}
	a.out.reset()
	for ; a.pos < len(a.groupVals) && len(a.out.buf) < BatchSize; a.pos++ {
		vals := a.groupVals[a.pos]
		row := make(expr.Row, 0, len(vals)+len(a.accs))
		row = append(row, vals...)
		for _, acc := range a.accs {
			row = append(row, acc.result(int32(a.pos)))
		}
		a.out.buf = append(a.out.buf, row)
	}
	return true, nil
}

func (a *hashAggOp) Close() error {
	a.lookup = nil
	a.groupVals = nil
	return nil
}

// accCol computes one aggregate across all groups: a struct-of-arrays
// accumulator whose lanes are indexed by dense group id, so vectorized
// absorption updates int64/float64 slots directly. Only the lanes the
// function needs are grown.
type accCol struct {
	fn     expr.AggFn
	count  []int64
	sumI   []int64
	sumF   []float64
	floaty []bool // SUM left int-only accumulation (result is a float)
	seen   []bool
	best   []expr.Value // MIN or MAX candidate per group
}

func (a *accCol) reset() {
	a.count = a.count[:0]
	a.sumI = a.sumI[:0]
	a.sumF = a.sumF[:0]
	a.floaty = a.floaty[:0]
	a.seen = a.seen[:0]
	a.best = a.best[:0]
}

func (a *accCol) grow() {
	switch a.fn {
	case expr.AggCount:
		a.count = append(a.count, 0)
	case expr.AggSum:
		a.count = append(a.count, 0)
		a.sumI = append(a.sumI, 0)
		a.sumF = append(a.sumF, 0)
		a.floaty = append(a.floaty, false)
	case expr.AggAvg:
		a.count = append(a.count, 0)
		a.sumF = append(a.sumF, 0)
	case expr.AggMin, expr.AggMax:
		a.seen = append(a.seen, false)
		a.best = append(a.best, expr.Value{})
	}
}

func (a *accCol) addCountStar(g int32) {
	if len(a.count) > 0 {
		a.count[g]++
	}
}

// addVal folds one value into group g, the row-path twin of addVec.
func (a *accCol) addVal(g int32, v expr.Value) {
	if v.IsNull() {
		return // SQL aggregates skip NULLs
	}
	switch a.fn {
	case expr.AggCount:
		a.count[g]++
	case expr.AggSum:
		a.count[g]++
		switch v.T {
		case expr.TInt, expr.TBool, expr.TDate:
			a.sumI[g] += v.Int()
			a.sumF[g] += float64(v.Int())
		default:
			a.floaty[g] = true
			a.sumF[g] += v.Float()
		}
	case expr.AggAvg:
		a.count[g]++
		switch v.T {
		case expr.TInt, expr.TBool, expr.TDate:
			a.sumF[g] += float64(v.Int())
		default:
			a.sumF[g] += v.Float()
		}
	case expr.AggMin:
		if !a.seen[g] {
			a.seen[g], a.best[g] = true, v
			return
		}
		if c, err := v.Compare(a.best[g]); err == nil && c < 0 {
			a.best[g] = v
		}
	case expr.AggMax:
		if !a.seen[g] {
			a.seen[g], a.best[g] = true, v
			return
		}
		if c, err := v.Compare(a.best[g]); err == nil && c > 0 {
			a.best[g] = v
		}
	}
}

// addVec folds one argument vector into the group lanes: gids[r] is the
// group of logical row r; column vectors are indexed through sel while
// dense kernel outputs are indexed by r directly.
func (a *accCol) addVec(gids []int32, v *expr.Vec, sel []int32, dense bool, n int) {
	mapped := !dense && sel != nil
	switch a.fn {
	case expr.AggCount:
		for r := 0; r < n; r++ {
			i := r
			if mapped {
				i = int(sel[r])
			}
			if v.IsNullAt(i) {
				continue
			}
			a.count[gids[r]]++
		}
	case expr.AggSum:
		switch v.T {
		case expr.TInt, expr.TDate:
			for r := 0; r < n; r++ {
				i := r
				if mapped {
					i = int(sel[r])
				}
				if v.IsNullAt(i) {
					continue
				}
				g := gids[r]
				a.count[g]++
				a.sumI[g] += v.I[i]
				a.sumF[g] += float64(v.I[i])
			}
		case expr.TBool:
			for r := 0; r < n; r++ {
				i := r
				if mapped {
					i = int(sel[r])
				}
				if v.IsNullAt(i) {
					continue
				}
				g := gids[r]
				var x int64
				if v.B.Get(i) {
					x = 1
				}
				a.count[g]++
				a.sumI[g] += x
				a.sumF[g] += float64(x)
			}
		case expr.TFloat:
			for r := 0; r < n; r++ {
				i := r
				if mapped {
					i = int(sel[r])
				}
				if v.IsNullAt(i) {
					continue
				}
				g := gids[r]
				a.count[g]++
				a.floaty[g] = true
				a.sumF[g] += v.F[i]
			}
		default: // strings: Float() is 0, the sum still goes float
			for r := 0; r < n; r++ {
				i := r
				if mapped {
					i = int(sel[r])
				}
				if v.IsNullAt(i) {
					continue
				}
				g := gids[r]
				a.count[g]++
				a.floaty[g] = true
			}
		}
	case expr.AggAvg:
		for r := 0; r < n; r++ {
			i := r
			if mapped {
				i = int(sel[r])
			}
			if v.IsNullAt(i) {
				continue
			}
			g := gids[r]
			a.count[g]++
			switch v.T {
			case expr.TInt, expr.TDate:
				a.sumF[g] += float64(v.I[i])
			case expr.TBool:
				if v.B.Get(i) {
					a.sumF[g]++
				}
			case expr.TFloat:
				a.sumF[g] += v.F[i]
			}
		}
	case expr.AggMin:
		a.mergeMinMax(gids, v, sel, dense, n, true)
	case expr.AggMax:
		a.mergeMinMax(gids, v, sel, dense, n, false)
	}
}

// mergeMinMax updates the per-group best value row by row. The typed
// fast paths mirror Value.Compare exactly — in particular the float
// comparison is strict < / >, so a NaN candidate never replaces the
// best and a NaN best is never replaced, matching the row path's
// per-row Compare behavior (a chunk-local reduce-then-merge would not).
func (a *accCol) mergeMinMax(gids []int32, v *expr.Vec, sel []int32, dense bool, n int, min bool) {
	mapped := !dense && sel != nil
	for r := 0; r < n; r++ {
		i := r
		if mapped {
			i = int(sel[r])
		}
		if v.IsNullAt(i) {
			continue
		}
		g := gids[r]
		if !a.seen[g] {
			a.seen[g], a.best[g] = true, v.Value(i)
			continue
		}
		b := &a.best[g]
		if b.T == v.T && !b.Null {
			switch v.T {
			case expr.TInt, expr.TDate:
				if x := v.I[i]; min && x < b.I || !min && x > b.I {
					*b = v.Value(i)
				}
				continue
			case expr.TFloat:
				if x := v.F[i]; min && x < b.F || !min && x > b.F {
					*b = v.Value(i)
				}
				continue
			case expr.TString:
				if x := v.S[i]; min && x < b.S || !min && x > b.S {
					*b = v.Value(i)
				}
				continue
			}
		}
		val := v.Value(i)
		if c, err := val.Compare(*b); err == nil && (min && c < 0 || !min && c > 0) {
			a.best[g] = val
		}
	}
}

func (a *accCol) result(g int32) expr.Value {
	switch a.fn {
	case expr.AggCount:
		return expr.NewInt(a.count[g])
	case expr.AggSum:
		if a.count[g] == 0 {
			return expr.TypedNull(expr.TFloat)
		}
		if !a.floaty[g] {
			return expr.NewInt(a.sumI[g])
		}
		return expr.NewFloat(a.sumF[g])
	case expr.AggAvg:
		if a.count[g] == 0 {
			return expr.TypedNull(expr.TFloat)
		}
		return expr.NewFloat(a.sumF[g] / float64(a.count[g]))
	case expr.AggMin, expr.AggMax:
		if !a.seen[g] {
			return expr.NullValue()
		}
		return a.best[g]
	}
	return expr.NullValue()
}

// --- sort ---------------------------------------------------------------

// sortOp materializes its input, evaluates every sort key once per row
// — through the key's compiled kernel when kernels are on, the
// interpreter otherwise — and stably sorts a permutation over the key
// values. NULLs sort first ascending, last descending.
type sortOp struct {
	child BatchOperator
	keys  []expr.Expr
	descs []bool
	kerns []*expr.Kernel // per key; nil: interpreter
	types []expr.Type
	out   rowOut
}

func newSort(n *plan.Node, child BatchOperator, vec bool) (BatchOperator, error) {
	res := resolver(n.Children[0])
	s := &sortOp{
		child: child,
		keys:  make([]expr.Expr, len(n.SortKeys)),
		descs: make([]bool, len(n.SortKeys)),
		kerns: make([]*expr.Kernel, len(n.SortKeys)),
		types: colTypes(n.Children[0]),
	}
	for i, k := range n.SortKeys {
		bound, err := expr.Bind(k.E, res)
		if err != nil {
			return nil, fmt.Errorf("executor: sort bind %s: %w", k.E, err)
		}
		s.keys[i], s.descs[i] = bound, k.Desc
		if _, bare := bound.(*expr.Col); vec && !bare {
			if kern, ok := expr.Compile(bound, s.types); ok {
				s.kerns[i] = kern
			}
		}
	}
	return s, nil
}

func (s *sortOp) Open() error {
	if err := s.child.Open(); err != nil {
		return err
	}
	defer s.child.Close()
	nk := len(s.keys)
	var rows []expr.Row
	var vals []expr.Value // key k of row r at vals[r*nk+k]
	for {
		b, err := s.child.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		rows = append(rows, b.Rows()...)
		vals, err = s.appendKeys(vals, b)
		b.Release()
		if err != nil {
			return err
		}
	}
	perm := make([]int32, len(rows))
	for i := range perm {
		perm[i] = int32(i)
	}
	var sortErr error
	sort.SliceStable(perm, func(i, j int) bool {
		a, b := vals[int(perm[i])*nk:], vals[int(perm[j])*nk:]
		for k := 0; k < nk; k++ {
			switch {
			case a[k].IsNull() && b[k].IsNull():
				continue
			case a[k].IsNull():
				return !s.descs[k]
			case b[k].IsNull():
				return s.descs[k]
			}
			c, err := a[k].Compare(b[k])
			if err != nil {
				if sortErr == nil {
					sortErr = err
				}
				return false
			}
			if c != 0 {
				return (c > 0) == s.descs[k]
			}
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	sorted := make([]expr.Row, len(rows))
	for i, p := range perm {
		sorted[i] = rows[p]
	}
	s.out = rowOut{buf: sorted}
	return nil
}

// appendKeys evaluates the sort keys over one input batch. A batch a
// kernel cannot handle is re-run through the interpreter, so key values
// and error behavior match it exactly.
func (s *sortOp) appendKeys(vals []expr.Value, b *Batch) ([]expr.Value, error) {
	rows := b.Rows()
	nk := len(s.keys)
	base := len(vals)
	vals = slices.Grow(vals, len(rows)*nk)[:base+len(rows)*nk]
	for k, key := range s.keys {
		if kern := s.kerns[k]; kern != nil {
			d := b.Data()
			d.Bind(s.types)
			if v, err := kern.EvalVec(d, b.Sel()); err == nil {
				for r := range rows {
					vals[base+r*nk+k] = v.Value(r)
				}
				continue
			}
		}
		for r, row := range rows {
			v, err := expr.Eval(key, row)
			if err != nil {
				return vals, fmt.Errorf("executor: sort eval: %w", err)
			}
			vals[base+r*nk+k] = v
		}
	}
	return vals, nil
}

func (s *sortOp) NextBatch() (*Batch, error) { return s.out.nextBatch(nil) }

func (s *sortOp) Close() error {
	s.out = rowOut{}
	return nil
}

// widthSum is the schema-estimate size of a row slice, fed to the
// calibrator as the estimated side of the encoding ratio.
func widthSum(rows []expr.Row) int64 {
	var n int64
	for _, r := range rows {
		n += int64(r.Width())
	}
	return n
}
