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
	root, err := build(p, env, nil)
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
// bound expressions are only read during execution. need marks the
// output columns of n its consumers read (nil: all of them); only a
// table scan acts on it. When the observer carries a PlanProfile every
// operator is wrapped to collect per-node actuals.
func build(n *plan.Node, env *execEnv, need []bool) (BatchOperator, error) {
	kids := n.Children
	if n.Kind == plan.IndexLookupJoin && len(kids) == 2 {
		// The inner scan is reached through the index probes, never
		// executed as an operator.
		kids = kids[:1]
	}
	bound, err := boundExprs(n)
	if err != nil {
		return nil, err
	}
	children := make([]BatchOperator, len(kids))
	for i, ch := range kids {
		op, err := build(ch, env, childNeed(n, bound, need))
		if err != nil {
			return nil, err
		}
		children[i] = op
	}
	vec := env.opt.kernels()
	var op BatchOperator
	switch n.Kind {
	case plan.TableScan, plan.Scan:
		op, err = newScan(n, env, need)
	case plan.IndexScan:
		op, err = newIndexScan(n, env)
	case plan.IndexLookupJoin:
		op, err = newIndexLookupJoin(n, children, env.c)
	case plan.FilterExec, plan.Filter:
		op = newFilter(n, children[0], bound[0], vec)
	case plan.ProjectExec, plan.Project:
		op = newProject(n, children[0], bound, vec)
	case plan.HashJoin:
		op, err = newHashJoin(n, children[0], children[1], vec)
	case plan.NLJoin, plan.Join:
		op, err = newNLJoin(n, children[0], children[1], vec)
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

// boundExprs binds what a filter (its predicate) or a projection (its
// list) evaluates against the child's schema; other nodes bind in their
// constructors.
func boundExprs(n *plan.Node) ([]expr.Expr, error) {
	switch n.Kind {
	case plan.FilterExec, plan.Filter:
		pred, err := expr.Bind(n.Pred, resolver(n.Children[0]))
		if err != nil {
			return nil, fmt.Errorf("executor: filter bind: %w", err)
		}
		return []expr.Expr{pred}, nil
	case plan.ProjectExec, plan.Project:
		res := resolver(n.Children[0])
		exprs := make([]expr.Expr, len(n.Projs))
		for i, p := range n.Projs {
			var err error
			if exprs[i], err = expr.Bind(p.E, res); err != nil {
				return nil, fmt.Errorf("executor: project bind %s: %w", p.E, err)
			}
		}
		return exprs, nil
	}
	return nil, nil
}

// childNeed derives which output columns of n's child are read above
// it, given the ones read of n itself (nil: all). The answer comes from
// the plan alone — a projection reads the columns its bound expressions
// name, a filter its predicate's plus whatever is read of the batch it
// forwards, any other operator its whole input — so a profiled run,
// which wraps every operator, scans exactly what a plain run scans.
func childNeed(n *plan.Node, bound []expr.Expr, need []bool) []bool {
	switch n.Kind {
	case plan.ProjectExec, plan.Project:
		need = nil
	case plan.FilterExec, plan.Filter:
		if len(need) != len(n.Children[0].Cols) {
			return nil
		}
	default:
		return nil
	}
	out := make([]bool, len(n.Children[0].Cols))
	copy(out, need)
	for _, e := range bound {
		expr.Walk(e, func(x expr.Expr) bool {
			if c, ok := x.(*expr.Col); ok {
				out[c.Index] = true
			}
			return true
		})
	}
	return out
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

// --- join output ----------------------------------------------------------

// pairOut is the output side hashJoinOp and nlJoinOp share, and the only
// place a join builds rows: the operator appends its build side chunk by
// chunk, reports matches against the current probe chunk as (probe row,
// build row) index pairs, and nextBatch materializes them BatchSize at a
// time. It runs in the strongest mode every chunk so far allowed:
//
//   - cols: both sides arrive column-backed and exact; pairs gather
//     column-wise into the pooled output batch's own vectors and no row
//     is built at all;
//   - keys: a chunk was row-backed (its rows are there for the taking)
//     or inexact outside the columns the operator matches on; those
//     columns stay vectors, the rest is rows — the build side
//     materialized once if it was columnar — and each run of output
//     rows is one value slab;
//   - neither: rows only, what a kernels-off join starts in and the
//     interpreter reads.
type pairOut struct {
	types          []expr.Type // output schema: lTypes then rTypes
	lTypes, rTypes []expr.Type
	lkeys, rkeys   []int // columns the operator matches on
	lall, rall     []int // every column
	cols, keys     bool
	bcols          []expr.Vec  // build side vectors, in arrival order
	brows          []expr.Row  // build side rows (!cols)
	bn             int32       // build rows
	chunk          *Batch      // current probe chunk
	vecs           []*expr.Vec // column scratch; the probe chunk's vectors
	prows          []expr.Row  // the probe chunk's rows (!cols)
	pi, bi         []int32     // matches; pi is pre-selection while cols
	pos            int         // next pair to hand out

	// scratch is the one concatenated row a join predicate is evaluated
	// over: load* fill the columns the predicate reads (lneed, rneed)
	// from the vectors, or copy whole rows once there are rows.
	scratch      expr.Row
	plen         int
	lneed, rneed []int
}

// newPairOut sizes the emitter for join node n. The operator matches on
// columns lkeys and rkeys of the two sides; pred is the bound predicate
// it evaluates over loadBuild's row (nil: none).
func newPairOut(n *plan.Node, lkeys, rkeys []int, pred expr.Expr) pairOut {
	lw, rw := len(n.Children[0].Cols), len(n.Children[1].Cols)
	o := pairOut{types: append(colTypes(n.Children[0]), colTypes(n.Children[1])...), lkeys: lkeys, rkeys: rkeys}
	o.lTypes, o.rTypes = o.types[:lw:lw], o.types[lw:]
	o.bcols = make([]expr.Vec, rw)
	o.vecs = make([]*expr.Vec, max(lw, rw))
	o.scratch = make(expr.Row, lw+rw)
	for c := 0; c < max(lw, rw); c++ {
		o.lall = append(o.lall, c)
	}
	o.lall, o.rall = o.lall[:lw], o.lall[:rw]
	for _, c := range expr.Columns(pred) {
		if c.Index < lw {
			o.lneed = append(o.lneed, c.Index)
		} else {
			o.rneed = append(o.rneed, c.Index-lw)
		}
	}
	return o
}

// reset empties both sides; vec false starts the join in rows only.
func (o *pairOut) reset(vec bool) {
	o.cols, o.keys, o.bn, o.brows = vec, vec, 0, nil
	for c := range o.bcols {
		o.bcols[c].Reset(o.rTypes[c], 0)
	}
	o.chunk, o.prows = nil, nil
	o.pi, o.bi, o.pos = o.pi[:0], o.bi[:0], 0
}

// exactCols resolves the listed columns of chunk into vecs. It reports
// false unless each is an exact vector whose NULLs carry the lane's own
// type: only then do appended copies materialize the chunk's values
// verbatim.
func (o *pairOut) exactCols(chunk *Batch, types []expr.Type, which []int) bool {
	d := chunk.Data()
	d.Bind(types)
	for _, c := range which {
		v, ok := d.ColVec(c)
		if !ok || !v.Exact || v.Null != nil && v.NullT != v.T {
			return false
		}
		o.vecs[c] = v
	}
	return true
}

// resolve settles the mode a chunk of one side allows and leaves its
// vectors — all of them, or the key columns — in vecs. It reports the
// columns to take as vectors and whether to take the chunk's rows.
func (o *pairOut) resolve(chunk *Batch, types []expr.Type, all, keys []int) (vecs []int, rows bool) {
	if o.cols && (chunk.Data().RowBacked() || !o.exactCols(chunk, types, all)) {
		// The build side so far is exact vectors: these are its rows.
		o.cols, o.brows = false, colRows(o.bcols, int(o.bn))
	}
	if o.cols {
		return all, false
	}
	if o.keys = o.keys && o.exactCols(chunk, types, keys); o.keys {
		return keys, true
	}
	return nil, true
}

// colRows materializes the first n rows of column vectors.
func colRows(cols []expr.Vec, n int) []expr.Row {
	var d expr.Batch
	d.StartCols(len(cols), n)
	for c := range cols {
		*d.OwnCol(c) = cols[c]
	}
	d.FinishCols()
	return d.Rows()
}

// addBuild appends the chunk's (selected) rows to the build side.
func (o *pairOut) addBuild(chunk *Batch) {
	vecs, rows := o.resolve(chunk, o.rTypes, o.rall, o.rkeys)
	for _, c := range vecs {
		o.bcols[c].AppendGather(o.vecs[c], chunk.Sel())
	}
	if rows {
		o.brows = append(o.brows, chunk.Rows()...)
	}
	o.bn += int32(chunk.Len())
}

// setProbe makes chunk the one new pairs refer to; the previous chunk's
// pairs have all been handed out.
func (o *pairOut) setProbe(chunk *Batch) {
	o.chunk = chunk
	o.pi, o.bi, o.pos = o.pi[:0], o.bi[:0], 0
	if _, rows := o.resolve(chunk, o.lTypes, o.lall, o.lkeys); rows {
		o.prows = chunk.Rows()
	}
}

// probeAt maps position r of the probe chunk to v, its index in the
// chunk's vectors (pre-selection), and p, the index pairs and loadProbe
// take: v while cols, r itself over rows.
func (o *pairOut) probeAt(r int) (v int, p int32) {
	v = r
	if sel := o.chunk.Sel(); sel != nil {
		v = int(sel[r])
	}
	if o.cols {
		return v, int32(v)
	}
	return v, int32(r)
}

func (o *pairOut) add(p, b int32) {
	o.pi = append(o.pi, p)
	o.bi = append(o.bi, b)
}

// loadProbe puts probe row p into the scratch row.
func (o *pairOut) loadProbe(p int32) {
	if !o.cols {
		o.scratch = append(o.scratch[:0], o.prows[p]...)
		o.plen = len(o.scratch)
		return
	}
	for _, c := range o.lneed {
		o.scratch[c] = o.vecs[c].Value(int(p))
	}
}

// loadBuild puts build row b behind the loaded probe row and returns
// the scratch row, valid until the next load.
func (o *pairOut) loadBuild(b int32) expr.Row {
	if !o.cols {
		o.scratch = append(o.scratch[:o.plen], o.brows[b]...)
		return o.scratch
	}
	lw := len(o.lTypes)
	o.scratch = o.scratch[:len(o.types)]
	for _, c := range o.rneed {
		o.scratch[lw+c] = o.bcols[c].Value(int(b))
	}
	return o.scratch
}

// nextBatch fills one batch with the next BatchSize pairs, calling
// refill for the next probe chunk's worth whenever the pairs run dry;
// refill reports false at end of stream. An error discards the rows
// gathered so far, so what a consumer saw before it is whole batches.
func (o *pairOut) nextBatch(refill func() (bool, error)) (*Batch, error) {
	b := NewBatch()
	d := b.Data()
	lw := len(o.lTypes)
	cols, n := o.cols, 0
	rows := b.rowBuf[:0]
	if cols {
		d.StartCols(len(o.types), 0)
		for c, t := range o.types {
			d.OwnCol(c).Reset(t, 0)
		}
	}
	for n < BatchSize {
		if o.pos == len(o.pi) {
			more, err := refill()
			if err != nil {
				b.rowBuf = rows
				b.Release()
				return nil, err
			}
			if !more {
				break
			}
			if cols && !o.cols {
				// Demoted under a part-filled batch: it continues as rows.
				cols = false
				d.SetLen(n)
				d.FinishCols()
				rows = append(rows, d.Rows()...)
			}
			continue
		}
		k := min(BatchSize-n, len(o.pi)-o.pos)
		pi, bi := o.pi[o.pos:o.pos+k], o.bi[o.pos:o.pos+k]
		o.pos += k
		n += k
		if cols {
			for c := 0; c < lw; c++ {
				d.OwnCol(c).AppendGather(o.vecs[c], pi)
			}
			for c := range o.bcols {
				d.OwnCol(lw+c).AppendGather(&o.bcols[c], bi)
			}
			continue
		}
		if !o.keys {
			// The reference: one materialized row per match.
			for i := range pi {
				rows = append(rows, concatRow(o.prows[pi[i]], o.brows[bi[i]]))
			}
			continue
		}
		need := 0
		for i := range pi {
			need += len(o.prows[pi[i]]) + len(o.brows[bi[i]])
		}
		slab := make([]expr.Value, 0, need)
		for i := range pi {
			start := len(slab)
			slab = append(append(slab, o.prows[pi[i]]...), o.brows[bi[i]]...)
			rows = append(rows, slab[start:len(slab):len(slab)])
		}
	}
	b.rowBuf = rows
	switch {
	case n == 0:
		b.Release()
		return nil, nil
	case cols:
		d.SetLen(n)
		d.FinishCols()
	default:
		b.SetRows(rows)
	}
	return b, nil
}

// --- hash join ----------------------------------------------------------

// hashJoinOp joins a probe stream (left) against a hash table built from
// the right child, both consumed a batch at a time. With kernels on and
// every equi-key a bare column it works on key vectors while pairOut
// keeps them (out.keys): hashing reads the key columns directly
// (bit-identical to hashKey), build rows link into per-hash chains by
// index, and hash-collision rechecks compare lanes. Otherwise — kernels
// off, computed keys, or from the first chunk with an inexact key
// column — it is the row reference.
type hashJoinOp struct {
	node         *plan.Node
	probe, build feed
	leftKeys     []expr.Expr // bound against left schema
	rightKeys    []expr.Expr // bound against right schema
	residual     expr.Expr   // bound against concatenated schema

	vec    bool        // kernels on and all equi-keys are bare columns
	bKeys  []*expr.Vec // build key columns (into out.bcols)
	pKeys  []*expr.Vec // probe key columns of the current chunk
	eqMode []keyEqMode

	// Key-vector mode: table maps a key hash to its chain's first and
	// last build row; next links rows within one, so chain iteration
	// order is arrival order, as in the reference's buckets.
	table chainTable
	next  []int32
	// Row mode: the reference hash table, the build rows of one key hash
	// in arrival order. Kept deliberately simple — it is the baseline the
	// vector mode is measured and checked against.
	rowBuckets map[uint64][]int32

	// pending is the first probe chunk, peeked at Open (to skip the
	// hash-table build when the probe side is provably empty) and
	// replayed on the first NextBatch.
	pending *Batch
	out     pairOut
	// pendErr is an error found mid-chunk: matches found before the
	// failing pair are handed out first.
	pendErr error
}

// keyEqMode is the recheck strategy for one equi-key pair, fixed from
// the static lane types of both sides.
type keyEqMode uint8

const (
	eqInt   keyEqMode = iota // both integer-class: int64 equality
	eqFloat                  // numeric with a float side: Compare's <//> over Float()
	eqStr                    // both strings
	eqSlow                   // anything else: Value.Compare, errors included
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

// chainTable is the columnar join's hash index: an open-addressed
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
		leftKeys: lk, rightKeys: rk, residual: res, vec: vec,
	}
	var lCols, rCols []int
	for i := range lk {
		lc, lok := lk[i].(*expr.Col)
		rc, rok := rk[i].(*expr.Col)
		if !j.vec || !lok || !rok {
			j.vec = false
			break
		}
		lCols, rCols = append(lCols, lc.Index), append(rCols, rc.Index)
	}
	j.out = newPairOut(n, lCols, rCols, res)
	j.pKeys = make([]*expr.Vec, len(lCols))
	for i := range j.pKeys {
		j.bKeys = append(j.bKeys, &j.out.bcols[rCols[i]])
		j.eqMode = append(j.eqMode, keyMode(j.out.lTypes[lCols[i]], j.out.rTypes[rCols[i]]))
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

// hashVecKeys combines the key hashes of row i of the key columns,
// bit-identical to hashKey over the row.
func hashVecKeys(keys []*expr.Vec, i int) (uint64, bool) {
	var h uint64 = 1469598103934665603
	for _, v := range keys {
		if v.IsNullAt(i) {
			return 0, false
		}
		h = h*1099511628211 ^ v.HashAt(i)
	}
	return h, true
}

func (j *hashJoinOp) Open() error {
	j.out.reset(j.vec)
	j.pendErr = nil
	// Peek the first probe chunk before building: when the probe side is
	// provably empty, the join produces nothing and the hash-table build
	// is wasted work. The build side is still opened and closed (Ship
	// inputs materialize at Open, so transfer accounting is unchanged);
	// only the hashing and insertion are skipped.
	if err := j.probe.open(); err != nil {
		return err
	}
	var err error
	if j.pending, err = j.probe.nextChunk(); err != nil {
		return err
	}
	if err := j.build.open(); err != nil {
		return err
	}
	j.next, j.rowBuckets = j.next[:0], nil
	if j.vec {
		j.table.reset(j.buildSizeHint())
	}
	if j.pending != nil {
		if err := j.buildTable(); err != nil {
			return err
		}
	}
	return j.build.close()
}

// buildTable drains the build feed into the hash table.
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
		from, hadKeys := j.out.bn, j.out.keys
		j.out.addBuild(chunk)
		if err := j.index(from, hadKeys); err != nil {
			return err
		}
	}
}

// index enters build rows [from, bn) into the hash table: the chains
// while out keeps key vectors, the reference map over rows — every row
// so far, if out had key vectors until the last chunk. NULL keys never
// match and are left out.
func (j *hashJoinOp) index(from int32, hadKeys bool) error {
	if j.out.keys {
		for i := from; i < j.out.bn; i++ {
			j.next = append(j.next, -1)
			if h, valid := hashVecKeys(j.bKeys, int(i)); valid {
				j.link(h, i)
			}
		}
		return nil
	}
	if hadKeys || j.rowBuckets == nil {
		from, j.rowBuckets = 0, make(map[uint64][]int32, j.buildSizeHint())
	}
	for i, row := range j.out.brows[from:] {
		h, valid, err := hashKey(j.rightKeys, row)
		if err != nil {
			return err
		}
		if valid {
			j.rowBuckets[h] = append(j.rowBuckets[h], from+int32(i))
		}
	}
	return nil
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

// probeNext reports the matches of the next probe chunk to out. Errors
// found mid-chunk land in pendErr so matches found before the failing
// pair are handed out first.
func (j *hashJoinOp) probeNext() (bool, error) {
	if j.pendErr != nil {
		return false, j.pendErr
	}
	chunk, err := j.pending, error(nil)
	if j.pending = nil; chunk == nil {
		chunk, err = j.probe.nextChunk()
	}
	if err != nil || chunk == nil {
		return false, err
	}
	hadKeys := j.out.keys
	if j.out.setProbe(chunk); hadKeys && !j.out.keys {
		if err := j.index(0, true); err != nil {
			return false, err
		}
	}
	if j.out.keys {
		j.pendErr = j.probeVecs(chunk.Len())
	} else {
		j.pendErr = j.probeRows()
	}
	return true, nil
}

// probeVecs matches the n (selected) rows of the probe chunk against
// the chains, reading keys from the two sides' key vectors.
func (j *hashJoinOp) probeVecs(n int) error {
	o := &j.out
	for k, c := range o.lkeys {
		j.pKeys[k] = o.vecs[c]
	}
	for r := 0; r < n; r++ {
		v, p := o.probeAt(r)
		h, valid := hashVecKeys(j.pKeys, v)
		if !valid {
			continue
		}
		if j.residual != nil {
			o.loadProbe(p)
		}
		for b := j.table.lookup(h); b >= 0; b = j.next[b] {
			if j.residual != nil {
				keep, err := expr.EvalBool(j.residual, o.loadBuild(b))
				if err != nil {
					return err
				}
				if !keep {
					continue
				}
			}
			eq, err := j.recheck(v, int(b))
			if err != nil {
				return err
			}
			if eq {
				o.add(p, b)
			}
		}
	}
	return nil
}

// probeRows is the row-mode reference probe: per-row hashing through
// the interpreter, bucket-map candidates, interpreted residual and key
// comparison. The vector mode must be value- and order-identical to
// this path. The residual runs before the key recheck (its errors
// surface first).
func (j *hashJoinOp) probeRows() error {
	o := &j.out
	for r, row := range o.prows {
		h, valid, err := hashKey(j.leftKeys, row)
		if err != nil {
			return err
		}
		if !valid {
			continue
		}
		if j.residual != nil {
			o.loadProbe(int32(r))
		}
		for _, b := range j.rowBuckets[h] {
			if j.residual != nil {
				keep, err := expr.EvalBool(j.residual, o.loadBuild(b))
				if err != nil {
					return err
				}
				if !keep {
					continue
				}
			}
			eq, err := j.keysEqual(row, o.brows[b])
			if err != nil {
				return err
			}
			if eq {
				o.add(int32(r), b)
			}
		}
	}
	return nil
}

// recheck verifies key equality of probe row p and build row b behind a
// hash hit (collisions), lane against lane; key pairs whose lanes
// Compare may reject go through it, with its exact error behavior.
func (j *hashJoinOp) recheck(p, b int) (bool, error) {
	for k, mode := range j.eqMode {
		pv, bv := j.pKeys[k], j.bKeys[k]
		switch mode {
		case eqInt:
			if pv.I[p] != bv.I[b] {
				return false, nil
			}
		case eqFloat:
			x, y := vecFloat(pv, p), vecFloat(bv, b)
			// Compare's float equality is !(x < y) && !(x > y), which is
			// not the same as == when NaN is involved.
			if x < y || x > y {
				return false, nil
			}
		case eqStr:
			if pv.S[p] != bv.S[b] {
				return false, nil
			}
		default:
			if c, err := pv.Value(p).Compare(bv.Value(b)); err != nil || c != 0 {
				return false, err
			}
		}
	}
	return true, nil
}

func vecFloat(v *expr.Vec, i int) float64 {
	if v.T == expr.TFloat {
		return v.F[i]
	}
	return float64(v.I[i])
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
	j.out.reset(false)
	j.table = chainTable{}
	j.next, j.rowBuckets, j.pending = nil, nil, nil
	return j.probe.close()
}

func concatRow(l, r expr.Row) expr.Row {
	out := make(expr.Row, 0, len(l)+len(r))
	out = append(out, l...)
	return append(out, r...)
}

// --- nested-loop join ---------------------------------------------------

// nlJoinOp materializes its right input at Open and streams the left:
// each left row is paired with every right row and kept when the join
// condition holds. No candidate pair is built to find that out: a
// condition that is all typed column equalities (eq) compares the two
// sides' lanes directly while pairOut keeps those columns as vectors,
// and anything else is evaluated over pairOut's one scratch row.
type nlJoinOp struct {
	left, right feed
	cond        expr.Expr
	vec         bool
	eq          []eqCols // nil: cond needs the interpreter
	out         pairOut
	li, ln      int // next row and row count of the current left chunk
	pendErr     error
}

// eqCols is one leftCol = rightCol conjunct over lanes on which = cannot
// fail: both integer-class, or (str) both strings.
type eqCols struct {
	l, r int
	str  bool
}

func newNLJoin(n *plan.Node, left, right BatchOperator, vec bool) (BatchOperator, error) {
	var cond expr.Expr
	if n.Pred != nil {
		bound, err := expr.Bind(n.Pred, resolver(n))
		if err != nil {
			return nil, fmt.Errorf("executor: nl join bind: %w", err)
		}
		cond = bound
	}
	j := &nlJoinOp{left: feed{src: left}, right: feed{src: right}, cond: cond, vec: vec}
	var lkeys, rkeys []int
	if vec && cond != nil {
		j.eq = typedEq(cond, colTypes(n.Children[0]), colTypes(n.Children[1]))
		for _, e := range j.eq {
			lkeys, rkeys = append(lkeys, e.l), append(rkeys, e.r)
		}
	}
	j.out = newPairOut(n, lkeys, rkeys, cond)
	return j, nil
}

// typedEq reads cond as a conjunction of eqCols, or returns nil.
func typedEq(cond expr.Expr, lTypes, rTypes []expr.Type) []eqCols {
	var eq []eqCols
	lw := len(lTypes)
	for _, c := range expr.Conjuncts(cond) {
		cmp, ok := c.(*expr.Cmp)
		if !ok || cmp.Op != expr.EQ {
			return nil
		}
		lc, lok := cmp.L.(*expr.Col)
		rc, rok := cmp.R.(*expr.Col)
		if !lok || !rok {
			return nil
		}
		l, r := lc.Index, rc.Index
		if l > r {
			l, r = r, l
		}
		if l >= lw || r < lw {
			return nil // both columns on one side
		}
		mode := keyMode(lTypes[l], rTypes[r-lw])
		if mode != eqInt && mode != eqStr {
			return nil
		}
		eq = append(eq, eqCols{l: l, r: r - lw, str: mode == eqStr})
	}
	return eq
}

func (j *nlJoinOp) Open() error {
	j.out.reset(j.vec)
	j.li, j.ln, j.pendErr = 0, 0, nil
	if err := j.right.open(); err != nil {
		return err
	}
	for {
		chunk, err := j.right.nextChunk()
		if err != nil {
			j.right.close()
			return err
		}
		if chunk == nil {
			break
		}
		j.out.addBuild(chunk)
	}
	if err := j.right.close(); err != nil {
		return err
	}
	return j.left.open()
}

func (j *nlJoinOp) NextBatch() (*Batch, error) { return j.out.nextBatch(j.joinNext) }

// joinNext reports the matches of the next left rows to out, stopping
// at the first row that takes them past BatchSize — that bounds the
// buffered pairs by one batch plus the right side. A failing left row
// keeps none of its matches; the error waits in pendErr until the rows
// before it have been handed out.
func (j *nlJoinOp) joinNext() (bool, error) {
	if j.pendErr != nil {
		return false, j.pendErr
	}
	o := &j.out
	chunk := o.chunk
	if j.li == j.ln {
		var err error
		if chunk, err = j.left.nextChunk(); err != nil || chunk == nil {
			return false, err
		}
		j.li, j.ln = 0, chunk.Len()
	}
	// The last refill's pairs are all handed out: start over, on the
	// same chunk while it has rows left.
	o.setProbe(chunk)
	for ; j.li < j.ln && len(o.pi) < BatchSize; j.li++ {
		v, p := o.probeAt(j.li)
		if j.eq != nil && o.keys {
			j.matchLanes(v, p)
			continue
		}
		mark := len(o.pi)
		o.loadProbe(p)
		for b := int32(0); b < o.bn; b++ {
			keep, err := expr.EvalBool(j.cond, o.loadBuild(b))
			if err != nil {
				o.pi, o.bi = o.pi[:mark], o.bi[:mark]
				j.pendErr = err
				return true, nil
			}
			if keep {
				o.add(p, b)
			}
		}
	}
	return true, nil
}

// matchLanes pairs the left row at v (p to out) with every right row
// equal on all eq columns; NULLs equal nothing.
func (j *nlJoinOp) matchLanes(v int, p int32) {
	o := &j.out
build:
	for b := 0; b < int(o.bn); b++ {
		for _, e := range j.eq {
			lv, rv := o.vecs[e.l], &o.bcols[e.r]
			if lv.IsNullAt(v) || rv.IsNullAt(b) || e.str && lv.S[v] != rv.S[b] || !e.str && lv.I[v] != rv.I[b] {
				continue build
			}
		}
		o.add(p, int32(b))
	}
}

func (j *nlJoinOp) Close() error {
	j.out.reset(false)
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
