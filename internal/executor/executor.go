// Package executor runs located physical query execution plans over the
// simulated geo-distributed cluster. One operator tree serves every
// execution: BatchOperators (Open / NextBatch / Close) exchanging
// columnar batches. SHIP operators are exchanges that serialize the
// stream into wire frames, move them through the simulated WAN and
// charge the message cost model via the run's ledger, which is how
// the plan-quality experiments (Figures 6g/6h) measure execution cost.
// Every exchange runs its producing fragment on its own goroutine
// behind a bounded channel, so a plan's per-site fragments overlap.
package executor

import (
	"context"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
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

// Run executes a located physical plan with no observer and the
// default options, and materializes the result.
func Run(p *plan.Node, c *cluster.Cluster) ([]expr.Row, *RunStats, error) {
	return RunParallelOpts(context.Background(), p, c, nil, ExecOptions{})
}

// RunParallelOpts executes a located physical plan under a caller
// context, an observer (nil disables reporting) and explicit execution
// options, and materializes the result. Every exchange producer runs
// on its own goroutine. The first error, a producer's or the consumer
// tree's, cancels the run: the other producers stop at their next scan
// batch, frame send, wire sleep or retry backoff, and the call returns
// that error only after all of them have exited, so no goroutine or
// ledger entry is left dangling. Cancelling ctx does the same. The
// observer receives the execution counter and latency histogram of the
// run, a compliance audit record per exchange, and per-operator actuals
// when it carries a PlanProfile. Run statistics come from a private
// ledger scope, so concurrent executions over one Cluster each report
// exactly their own transfers.
func RunParallelOpts(ctx context.Context, p *plan.Node, c *cluster.Cluster, o *obs.Observer, opt ExecOptions) ([]expr.Row, *RunStats, error) {
	m := o.Reg()
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	env := &execEnv{c: c, scope: c.NewRun(), ctx: ctx, cancel: cancel, obsv: o, opt: opt}
	root, err := build(p, env, nil)
	if err != nil {
		finishExec(m, t0, err)
		return nil, nil, err
	}
	env.start()
	rows, err := env.collect(root)
	cancel()
	env.wg.Wait()
	if err != nil {
		finishExec(m, t0, err)
		return nil, nil, err
	}
	stats := scopeStats(env.scope, int64(len(rows)))
	finishExec(m, t0, nil)
	return rows, stats, nil
}

// collect drains the root operator into a row slice. An error cancels
// the run before Close drains the exchanges, so no producer finishes
// its shipment for a result nobody will read; after a clean end of
// stream Close drains every exchange to completion, and a producer that
// fails meanwhile fails the run. Either way the run's first error wins.
func (e *execEnv) collect(op BatchOperator) ([]expr.Row, error) {
	if err := op.Open(); err != nil {
		return nil, e.fail(err)
	}
	var out []expr.Row
	for {
		b, err := op.NextBatch()
		if err != nil {
			err = e.fail(err)
			op.Close()
			return nil, err
		}
		if b == nil {
			break
		}
		out = append(out, b.Rows()...)
		b.Release()
	}
	op.Close()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return nil, e.err
	}
	return out, nil
}

// execEnv is the per-execution state an operator tree is built under
// and its exchanges share: the cluster, the per-run accounting scope,
// the cancellation context scans and exchanges honor, the observer and
// the execution options.
type execEnv struct {
	c      *cluster.Cluster
	scope  *cluster.RunScope
	ctx    context.Context
	cancel context.CancelFunc
	obsv   *obs.Observer
	opt    ExecOptions
	// producers are the registered exchange producers, wg the group
	// the run waits on before returning.
	producers []*exchangeProducer
	wg        sync.WaitGroup
	mu        sync.Mutex
	err       error // the run's first error
}

// fail records err unless an earlier error was recorded, cancels the
// run and returns the first error.
func (e *execEnv) fail(err error) error {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	err = e.err
	e.mu.Unlock()
	e.cancel()
	return err
}

// start launches every exchange producer on its own goroutine. Every
// fragment of a successful run runs exactly once and to completion, so
// eager start changes overlap, not semantics.
func (e *execEnv) start() {
	for _, p := range e.producers {
		e.wg.Add(1)
		go func(p *exchangeProducer) {
			defer e.wg.Done()
			defer close(p.ch)
			if err := p.run(); err != nil {
				p.err = e.fail(err)
			}
		}(p)
	}
}

// build compiles a plan node into an operator tree. Expression binding
// happens here, on the building goroutine, before any producer starts —
// bound expressions are only read during execution. need marks the
// output columns of n its consumers read (nil: all of them); only the
// table and index reads act on it. When the observer carries a
// PlanProfile every operator is wrapped to collect per-node actuals.
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
	var op BatchOperator
	switch n.Kind {
	case plan.TableScan, plan.Scan:
		op, err = newScan(n, env, need)
	case plan.IndexScan:
		op, err = newIndexScan(n, env, need)
	case plan.IndexLookupJoin:
		op, err = newIndexLookupJoin(n, children[0], env, need)
	case plan.FilterExec, plan.Filter:
		op = newFilter(children[0], bound[0], colTypes(n.Children[0]), env.opt)
	case plan.ProjectExec, plan.Project:
		op = newProject(n, children[0], bound, env.opt)
	case plan.HashJoin:
		op, err = newHashJoin(n, children[0], children[1])
	case plan.NLJoin, plan.Join:
		op, err = newNLJoin(n, children[0], children[1])
	case plan.HashAgg, plan.Aggregate:
		op, err = newHashAgg(n, children[0], env.opt)
	case plan.SortExec, plan.Sort:
		op, err = newSort(n, children[0], env.opt)
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
// as the column indexes of each side (either operand order), and the
// residual conjuncts bound against the concatenated schema.
func equiKeys(n *plan.Node, what string) (lk, rk []int, residual expr.Expr, err error) {
	lres := resolver(n.Children[0])
	rres := resolver(n.Children[1])
	index := func(c *expr.Col, res expr.Resolver) (int, bool) {
		b, err := expr.Bind(c, res)
		if err != nil {
			return 0, false
		}
		return b.(*expr.Col).Index, true
	}
	var rest []expr.Expr
	for _, c := range expr.Conjuncts(n.Pred) {
		if cmp, ok := c.(*expr.Cmp); ok && cmp.Op == expr.EQ {
			lc, lok := cmp.L.(*expr.Col)
			rc, rok := cmp.R.(*expr.Col)
			if lok && rok {
				if l, ok := index(lc, lres); ok {
					if r, ok := index(rc, rres); ok {
						lk, rk = append(lk, l), append(rk, r)
						continue
					}
				}
				// Reversed sides.
				if l, ok := index(rc, lres); ok {
					if r, ok := index(lc, rres); ok {
						lk, rk = append(lk, l), append(rk, r)
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

// --- join output ----------------------------------------------------------

// pairOut is the output side hashJoinOp and nlJoinOp share: the operator
// appends its build side chunk by chunk into column vectors, reports
// matches of the current probe chunk's rows as (probe row, build row)
// index pairs, and nextBatch gathers them column-wise into the pooled
// output batch's own vectors, BatchSize at a time. No row is built.
type pairOut struct {
	*joinBufs
	types          []expr.Type // output schema: lTypes then rTypes
	lTypes, rTypes []expr.Type
	bn             int32       // build rows
	chunk          *Batch      // current probe chunk
	r, rows        int         // its next row to match, its row count
	vecs           []*expr.Vec // column scratch; the probe chunk's vectors
	pos            int         // next pair to hand out
	// err is a failure found mid-refill: the pairs found before it are
	// handed out first.
	err error

	// scratch is the one concatenated row a join predicate is evaluated
	// over: loadProbe and loadBuild fill the columns it reads (lneed,
	// rneed) from the vectors.
	scratch      expr.Row
	lneed, rneed []int
}

// newPairOut sizes the emitter for join node n; pred is the bound
// predicate it evaluates over loadBuild's row (nil: none).
func newPairOut(n *plan.Node, pred expr.Expr) pairOut {
	lw, rw := len(n.Children[0].Cols), len(n.Children[1].Cols)
	o := pairOut{types: append(colTypes(n.Children[0]), colTypes(n.Children[1])...)}
	o.lTypes, o.rTypes = o.types[:lw:lw], o.types[lw:]
	o.vecs = make([]*expr.Vec, max(lw, rw))
	o.scratch = make(expr.Row, lw+rw)
	for _, c := range expr.Columns(pred) {
		if c.Index < lw {
			o.lneed = append(o.lneed, c.Index)
		} else {
			o.rneed = append(o.rneed, c.Index-lw)
		}
	}
	return o
}

// joinBufs is a join's run storage, from joinPool: its build side's
// vectors in arrival order, its pending pairs (pi indexes the probe
// vectors) and, for the hash join, its index and key hashes.
type joinBufs struct {
	bcols         []expr.Vec
	pi, bi        []int32
	hashes, phash []uint64 // build rows' and the probe chunk's key hashes
	heads, next   []int32
}

// maxPooledBytes caps what a pooled buffer may hold, a join's run
// storage or a wire frame: a larger one is dropped, not kept.
const maxPooledBytes = 16 << 20

var joinPool = sync.Pool{New: func() any { return new(joinBufs) }}

// open takes run storage from the pool (a reopened join keeps its own)
// and empties both sides.
func (o *pairOut) open() {
	if o.joinBufs == nil {
		o.joinBufs = joinPool.Get().(*joinBufs)
	}
	o.bcols = slices.Grow(o.bcols[:0], len(o.rTypes))[:len(o.rTypes)]
	for c, t := range o.rTypes {
		o.bcols[c].Reset(t, 0)
	}
	o.bn, o.chunk, o.r, o.rows, o.err = 0, nil, 0, 0, nil
	o.pi, o.bi, o.pos = o.pi[:0], o.bi[:0], 0
}

// release puts the run storage back in the pool with its string lanes
// cleared, so it pins no value of the run, unless the run's build side
// took more than maxPooledBytes (8 bytes a value, hash and chain link).
func (o *pairOut) release() {
	b := o.joinBufs
	o.joinBufs, o.chunk = nil, nil
	if b == nil || int(o.bn)*(len(b.bcols)+2)*8 > maxPooledBytes {
		return
	}
	for c := range b.bcols {
		clear(b.bcols[c].S)
	}
	joinPool.Put(b)
}

// bindCols binds chunk to a side's column types and leaves its vectors
// in vecs.
func bindCols(chunk *Batch, types []expr.Type, vecs []*expr.Vec) error {
	d := chunk.Data()
	if err := d.Bind(types); err != nil {
		return err
	}
	for c := range types {
		v, ok := d.ColVec(c)
		if !ok {
			return fmt.Errorf("executor: join input column %d not produced", c)
		}
		vecs[c] = v
	}
	return nil
}

// addBuild appends the chunk's (selected) rows to the build side.
func (o *pairOut) addBuild(chunk *Batch) error {
	if err := bindCols(chunk, o.rTypes, o.vecs); err != nil {
		return err
	}
	for c := range o.bcols {
		o.bcols[c].AppendGather(o.vecs[c], chunk.Sel())
	}
	o.bn += int32(chunk.Len())
	return nil
}

// probeAt maps position r of the probe chunk to its index in the
// chunk's vectors (pre-selection), the index pairs take.
func (o *pairOut) probeAt(r int) int32 {
	if sel := o.chunk.Sel(); sel != nil {
		return sel[r]
	}
	return int32(r)
}

func (o *pairOut) add(p, b int32) {
	o.pi = append(o.pi, p)
	o.bi = append(o.bi, b)
}

// loadProbe puts probe row p into the scratch row.
func (o *pairOut) loadProbe(p int32) {
	for _, c := range o.lneed {
		o.scratch[c] = o.vecs[c].Value(int(p))
	}
}

// loadBuild puts build row b behind the loaded probe row and returns
// the scratch row, valid until the next load.
func (o *pairOut) loadBuild(b int32) expr.Row {
	lw := len(o.lTypes)
	for _, c := range o.rneed {
		o.scratch[lw+c] = o.bcols[c].Value(int(b))
	}
	return o.scratch
}

// refill starts the pairs over with the matches of the next probe rows:
// the current chunk's while it has rows left, else those of the chunk
// next returns (nil at end of stream, when refill reports false). It
// stops after the first row that leaves BatchSize pairs pending, so at
// most BatchSize plus one row's matches are. An error from match ends
// the refill and waits in err until the pairs before it are handed out.
func (o *pairOut) refill(next func() (*Batch, error), match func(p int32) error) (bool, error) {
	if o.err != nil {
		return false, o.err
	}
	o.pi, o.bi, o.pos = o.pi[:0], o.bi[:0], 0
	if o.r == o.rows {
		chunk, err := next()
		if err != nil || chunk == nil {
			return false, err
		}
		if err := bindCols(chunk, o.lTypes, o.vecs); err != nil {
			return false, err
		}
		o.chunk, o.r, o.rows = chunk, 0, chunk.Len()
	}
	for ; o.r < o.rows && len(o.pi) < BatchSize; o.r++ {
		if err := match(o.probeAt(o.r)); err != nil {
			o.err = err
			break
		}
	}
	return true, nil
}

// nextBatch fills one batch with the next BatchSize pairs, refilling
// from next and match whenever the pairs run dry. An error discards the
// rows gathered so far, so what a consumer saw before it is whole
// batches.
func (o *pairOut) nextBatch(next func() (*Batch, error), match func(p int32) error) (*Batch, error) {
	b := NewBatch()
	d := b.Data()
	lw, n := len(o.lTypes), 0
	d.StartCols(len(o.types), 0)
	for c, t := range o.types {
		d.OwnCol(c).Reset(t, 0)
	}
	for n < BatchSize {
		if o.pos == len(o.pi) {
			more, err := o.refill(next, match)
			if err != nil {
				b.Release()
				return nil, err
			}
			if !more {
				break
			}
			continue
		}
		k := min(BatchSize-n, len(o.pi)-o.pos)
		pi, bi := o.pi[o.pos:o.pos+k], o.bi[o.pos:o.pos+k]
		o.pos += k
		n += k
		for c := 0; c < lw; c++ {
			d.OwnCol(c).AppendGather(o.vecs[c], pi)
		}
		for c := range o.bcols {
			d.OwnCol(lw+c).AppendGather(&o.bcols[c], bi)
		}
	}
	if n == 0 {
		b.Release()
		return nil, nil
	}
	d.SetLen(n)
	return b, nil
}

// --- hash join ----------------------------------------------------------

// hashJoinOp joins a probe stream (left) against a hash index over the
// right child's rows, both consumed a batch at a time, on key vectors:
// its equi-keys are bare columns, hashing reads them directly, and
// hash-collision rechecks compare lanes. It also runs every NL join
// whose condition is column equalities alone (newNLJoin).
type hashJoinOp struct {
	probe, build feed
	residual     expr.Expr // bound against concatenated schema

	lkeys, rkeys []int       // probe and build key columns
	bKeys        []*expr.Vec // build key columns (into out.bcols)
	pKeys        []*expr.Vec // probe key columns of the current chunk
	eqMode       []keyEqMode

	// The index, in out's run storage once the build side is in: hashes
	// holds each build row's key hash, heads each bucket's first row
	// (-1: none; a power of two of buckets, mask selecting one) and next
	// the bucket's following row, so a bucket lists its rows, and a key
	// its matches, in arrival order; phash the probe chunk's hashes.
	mask uint64

	// pending is the first probe chunk, peeked at Open (to skip the
	// index build when the probe side is provably empty) and replayed on
	// the first NextBatch.
	pending *Batch
	out     pairOut
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

func newHashJoin(n *plan.Node, left, right BatchOperator) (BatchOperator, error) {
	lk, rk, res, err := equiKeys(n, "hash join")
	if err != nil {
		return nil, err
	}
	return newKeyJoin(n, left, right, lk, rk, res), nil
}

// newKeyJoin builds the hash join of n on left columns lk equal to
// right columns rk, keeping the pairs residual (nil: none) holds for.
func newKeyJoin(n *plan.Node, left, right BatchOperator, lk, rk []int, residual expr.Expr) *hashJoinOp {
	j := &hashJoinOp{probe: feed{src: left}, build: feed{src: right}, residual: residual, lkeys: lk, rkeys: rk}
	j.out = newPairOut(n, residual)
	j.pKeys, j.bKeys = make([]*expr.Vec, len(lk)), make([]*expr.Vec, len(rk))
	for i, l := range lk {
		j.eqMode = append(j.eqMode, keyMode(j.out.lTypes[l], j.out.rTypes[rk[i]]))
	}
	return j
}

// noKey is the hash of a row with a NULL key, never indexed nor probed;
// every other hash has its top bit clear.
const noKey = ^uint64(0)

var strSeed = maphash.MakeSeed() // hashes live for one run

// hashKeys sets hs[i], for each row i of sel (each row of hs when sel is
// nil), to the hash of row i of the key columns, noKey when one is
// NULL. Each column is hashed a lane at a time as its key pair's mode
// reads it, so keys recheck finds equal hash equal: the int64, the
// float64's bits (a DOUBLE is never −0, expr.Double), the string, else
// Value.Hash; each folded in with one 64×64→128-bit multiply.
func hashKeys(hs []uint64, keys []*expr.Vec, modes []keyEqMode, sel []int32) {
	n := len(hs)
	if sel != nil {
		n = len(sel)
	}
	clear(hs)
	for k, v := range keys {
		for j := 0; j < n; j++ {
			i := j
			if sel != nil {
				i = int(sel[j])
			}
			h := hs[i]
			if h == noKey || v.IsNullAt(i) {
				hs[i] = noKey
				continue
			}
			var x uint64
			switch modes[k] {
			case eqInt:
				x = uint64(v.I[i])
			case eqFloat:
				x = math.Float64bits(vecFloat(v, i))
			case eqStr:
				x = maphash.String(strSeed, v.S[i])
			default:
				x = v.Value(i).Hash()
			}
			hi, lo := bits.Mul64(h^x, 0x9e3779b97f4a7c15)
			hs[i] = (hi ^ lo) &^ (1 << 63)
		}
	}
}

func (j *hashJoinOp) Open() error {
	j.out.open()
	for i, r := range j.rkeys {
		j.bKeys[i] = &j.out.bcols[r]
	}
	// Peek the first probe chunk before building: when the probe side is
	// provably empty, the join produces nothing and the index build is
	// wasted work. The build side is still opened and closed (Ship
	// inputs materialize at Open, so transfer accounting is unchanged);
	// only the draining and indexing are skipped.
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
	if j.pending != nil {
		if err := j.buildTable(); err != nil {
			return err
		}
	}
	return j.build.close()
}

// buildTable drains the build feed, then indexes its rows in reverse,
// each at the front of its bucket, in as many buckets as rows (rounded
// up to a power of two). NULL keys never match and are left out.
func (j *hashJoinOp) buildTable() error {
	for {
		chunk, err := j.build.nextChunk()
		if err != nil {
			return err
		}
		if chunk == nil {
			break
		}
		if err := j.out.addBuild(chunk); err != nil {
			return err
		}
	}
	o, n, size := &j.out, int(j.out.bn), 1
	for size < n {
		size <<= 1
	}
	o.heads = slices.Grow(o.heads[:0], size)[:size]
	for b := range o.heads {
		o.heads[b] = -1
	}
	o.next = slices.Grow(o.next[:0], n)[:n]
	o.hashes = slices.Grow(o.hashes[:0], n)[:n]
	hashKeys(o.hashes, j.bKeys, j.eqMode, nil)
	j.mask = uint64(size - 1)
	for i := n - 1; i >= 0; i-- {
		if h := o.hashes[i]; h != noKey {
			b := h & j.mask
			o.next[i], o.heads[b] = o.heads[b], int32(i)
		}
	}
	return nil
}

func (j *hashJoinOp) NextBatch() (*Batch, error) { return j.out.nextBatch(j.nextProbe, j.match) }

// nextProbe returns the peeked chunk first, then the probe side's, and
// hashes its key columns over its selection.
func (j *hashJoinOp) nextProbe() (chunk *Batch, err error) {
	if chunk, j.pending = j.pending, nil; chunk == nil {
		if chunk, err = j.probe.nextChunk(); chunk == nil || err != nil {
			return nil, err
		}
	}
	o := &j.out
	if err := bindCols(chunk, o.lTypes, o.vecs); err != nil {
		return nil, err
	}
	for k, c := range j.lkeys {
		j.pKeys[k] = o.vecs[c]
	}
	n := chunk.Data().Len()
	o.phash = slices.Grow(o.phash[:0], n)[:n]
	hashKeys(o.phash, j.pKeys, j.eqMode, chunk.Sel())
	return chunk, nil
}

// match reports probe row p's pairs: the build rows of its bucket with
// its hash and equal keys for which the residual holds. The residual runs
// before the key recheck (its errors surface first); the pairs found
// before a failing one are kept.
func (j *hashJoinOp) match(p int32) error {
	o := &j.out
	h := o.phash[p]
	if h == noKey {
		return nil
	}
	if j.residual != nil {
		o.loadProbe(p)
	}
	for b := o.heads[h&j.mask]; b >= 0; b = o.next[b] {
		if o.hashes[b] != h {
			continue
		}
		if j.residual != nil {
			keep, err := expr.EvalBool(j.residual, o.loadBuild(b))
			if err != nil {
				return err
			}
			if !keep {
				continue
			}
		}
		eq, err := j.recheck(int(p), int(b))
		if err != nil {
			return err
		}
		if eq {
			o.add(p, b)
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
			if vecFloat(pv, p) != vecFloat(bv, b) {
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

func (j *hashJoinOp) Close() error {
	j.out.release()
	j.pending = nil
	return j.probe.close()
}

// --- nested-loop join ---------------------------------------------------

// nlJoinOp materializes its right input at Open and streams the left:
// each left row is paired with every right row and kept when the join
// condition, evaluated over pairOut's one scratch row, holds. No
// candidate pair is built to find that out.
type nlJoinOp struct {
	left, right feed
	cond        expr.Expr
	out         pairOut
}

// newNLJoin builds the NL join of n: on the hash join when its condition
// is column equalities alone, on either order of two integer-class or
// two string columns, where = cannot fail and the hash join's output
// order (left rows in order, each with its matches in right arrival
// order) is the nested loop's; else on nlJoinOp.
func newNLJoin(n *plan.Node, left, right BatchOperator) (BatchOperator, error) {
	var cond expr.Expr
	if n.Pred != nil {
		bound, err := expr.Bind(n.Pred, resolver(n))
		if err != nil {
			return nil, fmt.Errorf("executor: nl join bind: %w", err)
		}
		cond = bound
	}
	if lk, rk := typedEq(cond, colTypes(n.Children[0]), colTypes(n.Children[1])); lk != nil {
		return newKeyJoin(n, left, right, lk, rk, nil), nil
	}
	return newNLLoop(n, left, right, cond), nil
}

// newNLLoop builds the nested loop of n over the bound condition cond
// (nil: a cross join).
func newNLLoop(n *plan.Node, left, right BatchOperator, cond expr.Expr) *nlJoinOp {
	return &nlJoinOp{left: feed{src: left}, right: feed{src: right}, cond: cond, out: newPairOut(n, cond)}
}

// typedEq reads cond as a conjunction of left column = right column
// conjuncts over lanes on which = cannot fail, both integer-class or
// both strings, and returns the columns of each side; nil if it is not
// one.
func typedEq(cond expr.Expr, lTypes, rTypes []expr.Type) (lk, rk []int) {
	lw := len(lTypes)
	for _, c := range expr.Conjuncts(cond) {
		cmp, ok := c.(*expr.Cmp)
		if !ok || cmp.Op != expr.EQ {
			return nil, nil
		}
		lc, lok := cmp.L.(*expr.Col)
		rc, rok := cmp.R.(*expr.Col)
		if !lok || !rok {
			return nil, nil
		}
		l, r := lc.Index, rc.Index
		if l > r {
			l, r = r, l
		}
		if l >= lw || r < lw {
			return nil, nil // both columns on one side
		}
		if mode := keyMode(lTypes[l], rTypes[r-lw]); mode != eqInt && mode != eqStr {
			return nil, nil
		}
		lk, rk = append(lk, l), append(rk, r-lw)
	}
	return lk, rk
}

func (j *nlJoinOp) Open() error {
	j.out.open()
	if err := j.right.open(); err != nil {
		return err
	}
	for {
		chunk, err := j.right.nextChunk()
		if err != nil {
			return err
		}
		if chunk == nil {
			break
		}
		if err := j.out.addBuild(chunk); err != nil {
			return err
		}
	}
	if err := j.right.close(); err != nil {
		return err
	}
	return j.left.open()
}

func (j *nlJoinOp) NextBatch() (*Batch, error) { return j.out.nextBatch(j.left.nextChunk, j.match) }

// match pairs left row p with every right row the condition holds for.
// A failing pair takes back the row's matches: what is handed out
// before the error is the matches of the rows before it.
func (j *nlJoinOp) match(p int32) error {
	o := &j.out
	mark := len(o.pi)
	o.loadProbe(p)
	for b := int32(0); b < o.bn; b++ {
		keep, err := expr.EvalBool(j.cond, o.loadBuild(b))
		if err != nil {
			o.pi, o.bi = o.pi[:mark], o.bi[:mark]
			return err
		}
		if keep {
			o.add(p, b)
		}
	}
	return nil
}

func (j *nlJoinOp) Close() error {
	j.out.release()
	return j.left.close()
}

// --- hash aggregate -----------------------------------------------------

// hashAggOp groups its input and folds each row into per-group
// accumulator lanes, consuming its input a batch at a time: the group
// key columns and the aggregate arguments (each a bare column or a
// kernel) are evaluated a chunk at a time, every row gets its dense
// group id, and the accumulators update their group lanes straight from
// the argument vectors. Group identity is the binary expr.AppendKey
// encoding and groups are numbered densely in first-appearance order,
// which is the order the groups are emitted in, as vector batches.
type hashAggOp struct {
	node     *plan.Node
	feed     feed
	keyCols  []int          // group-by columns
	args     []expr.Expr    // bound aggregate arguments (nil for COUNT(*))
	argCols  []int          // >= 0: the argument is that bare column
	argKerns []*expr.Kernel // the argument's kernel otherwise
	inTypes  []expr.Type
	outTypes []expr.Type

	lookup   map[string]int32 // AppendKey encoding -> dense group id
	groups   int32
	keyOut   []expr.Vec // group key values, by group id
	accs     []*accCol  // per aggregate: typed group-slot lanes
	pos      int32      // next group to hand out
	iota     []int32    // 0, 1, 2, …: the selection of a run of groups
	keyVecs  []*expr.Vec
	argVecs  []*expr.Vec
	argDense []bool // the argument vector is a kernel's, dense over the selection
	gids     []int32
	keyBuf   []byte
}

func newHashAgg(n *plan.Node, src BatchOperator, opt ExecOptions) (BatchOperator, error) {
	res := resolver(n.Children[0])
	op := &hashAggOp{node: n, feed: feed{src: src}, inTypes: colTypes(n.Children[0]), outTypes: colTypes(n)}
	for _, g := range n.GroupBy {
		bound, err := expr.Bind(g, res)
		if err != nil {
			return nil, fmt.Errorf("executor: group-by bind %s: %w", g, err)
		}
		op.keyCols = append(op.keyCols, bound.(*expr.Col).Index)
	}
	for _, a := range n.Aggs {
		op.accs = append(op.accs, &accCol{fn: a.Fn})
		op.argCols = append(op.argCols, -1)
		op.argKerns = append(op.argKerns, nil)
		op.args = append(op.args, nil)
		if a.Arg == nil {
			continue
		}
		bound, err := expr.Bind(a.Arg, res)
		if err != nil {
			return nil, fmt.Errorf("executor: aggregate bind %s: %w", a.Arg, err)
		}
		i := len(op.args) - 1
		op.args[i] = bound
		if c, ok := bound.(*expr.Col); ok {
			op.argCols[i] = c.Index
		} else {
			op.argKerns[i] = opt.kernel(bound, op.inTypes)
		}
	}
	op.keyOut = make([]expr.Vec, len(op.keyCols))
	op.keyVecs = make([]*expr.Vec, len(op.keyCols))
	op.argVecs = make([]*expr.Vec, len(op.args))
	op.argDense = make([]bool, len(op.args))
	return op, nil
}

func (a *hashAggOp) Open() error {
	if err := a.feed.open(); err != nil {
		return err
	}
	a.start()
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
	if len(a.keyCols) == 0 && a.groups == 0 {
		a.newGroup("")
	}
	return nil
}

// start empties the groups.
func (a *hashAggOp) start() {
	a.lookup = make(map[string]int32)
	a.groups, a.pos = 0, 0
	for i := range a.keyOut {
		a.keyOut[i].Reset(a.outTypes[i], 0)
	}
	for _, acc := range a.accs {
		acc.reset()
	}
}

// newGroup registers a group and grows every accumulator's lanes by one
// slot; the new dense group id is returned.
func (a *hashAggOp) newGroup(key string) int32 {
	gid := a.groups
	a.groups++
	a.lookup[key] = gid
	for _, acc := range a.accs {
		acc.grow()
	}
	return gid
}

// absorbChunk evaluates all key and argument columns of the chunk at
// once, assigns every row its dense group id, and lets each accumulator
// update its typed group lanes straight from the argument vector — no
// per-row Value boxing.
func (a *hashAggOp) absorbChunk(chunk *Batch) error {
	d := chunk.Data()
	if err := d.Bind(a.inTypes); err != nil {
		return err
	}
	sel := chunk.Sel()
	n := chunk.Len()
	for i, c := range a.keyCols {
		v, ok := d.ColVec(c)
		if !ok {
			return fmt.Errorf("executor: group-by column %d not produced", c)
		}
		a.keyVecs[i] = v
	}
	for i := range a.args {
		switch {
		case a.argCols[i] >= 0:
			v, ok := d.ColVec(a.argCols[i])
			if !ok {
				return fmt.Errorf("executor: aggregate column %d not produced", a.argCols[i])
			}
			a.argVecs[i], a.argDense[i] = v, false
		case a.argKerns[i] != nil:
			v, err := a.argKerns[i].EvalVec(d, sel)
			if err != nil {
				return err
			}
			a.argVecs[i], a.argDense[i] = v, true
		}
	}
	if cap(a.gids) < n {
		a.gids = make([]int32, n)
	}
	a.gids = a.gids[:n]
	if len(a.keyCols) == 0 {
		// A global aggregation has one group: no key to encode or look up.
		if a.groups == 0 {
			a.newGroup("")
		}
		clear(a.gids)
	} else {
		a.assignGroups(sel)
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
	return nil
}

// assignGroups gives every row of the chunk its dense group id in
// a.gids by its encoded key, registering groups — and their key values
// — on first appearance.
func (a *hashAggOp) assignGroups(sel []int32) {
	for r := range a.gids {
		vi := r
		if sel != nil {
			vi = int(sel[r])
		}
		a.keyBuf = a.keyBuf[:0]
		for _, v := range a.keyVecs {
			a.keyBuf = v.AppendKeyAt(a.keyBuf, vi)
		}
		gid, ok := a.lookup[string(a.keyBuf)]
		if !ok {
			gid = a.newGroup(string(a.keyBuf))
			one := [1]int32{int32(vi)}
			for i, v := range a.keyVecs {
				a.keyOut[i].AppendGather(v, one[:])
			}
		}
		a.gids[r] = gid
	}
}

// NextBatch emits the next BatchSize groups: key columns gathered from
// the groups' key values, aggregate columns from the accumulators.
func (a *hashAggOp) NextBatch() (*Batch, error) {
	k := min(int32(BatchSize), a.groups-a.pos)
	if k <= 0 {
		return nil, nil
	}
	for int32(len(a.iota)) < a.pos+k {
		a.iota = append(a.iota, int32(len(a.iota)))
	}
	b := NewBatch()
	d := b.Data()
	nk := len(a.keyCols)
	d.StartCols(len(a.outTypes), int(k))
	for i := range a.keyOut {
		d.OwnCol(i).GatherFrom(&a.keyOut[i], a.iota[a.pos:a.pos+k])
	}
	for i, acc := range a.accs {
		v := d.OwnCol(nk + i)
		v.Reset(a.outTypes[nk+i], 0)
		for g := a.pos; g < a.pos+k; g++ {
			x, ok := acc.result(g)
			if !ok {
				b.Release()
				return nil, fmt.Errorf("executor: %s sums +Inf and -Inf in a group, which no DOUBLE holds", a.node.Aggs[i])
			}
			if !v.Append(x) {
				b.Release()
				return nil, fmt.Errorf("%w: %s yields %s, typed %s", expr.ErrLane, a.node.Aggs[i], x.T, v.T)
			}
		}
	}
	a.pos += k
	return b, nil
}

func (a *hashAggOp) Close() error {
	a.lookup = nil
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

// mergeMinMax updates the per-group best value row by row; the typed
// fast paths mirror Value.Compare.
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

// result is group g's aggregate, not ok for a float SUM or AVG of +Inf
// and −Inf (no DOUBLE): a failure, since AggPushdown's final SUM would
// skip it as a NULL partial and the answer hang on the plan.
func (a *accCol) result(g int32) (v expr.Value, ok bool) {
	switch a.fn {
	case expr.AggCount:
		return expr.NewInt(a.count[g]), true
	case expr.AggSum, expr.AggAvg:
		if a.count[g] == 0 {
			return expr.TypedNull(expr.TFloat), true
		}
		if a.fn == expr.AggSum && !a.floaty[g] {
			return expr.NewInt(a.sumI[g]), true
		}
		f := a.sumF[g]
		if a.fn == expr.AggAvg {
			f /= float64(a.count[g])
		}
		f, ok = expr.Double(f)
		return expr.NewFloat(f), ok
	case expr.AggMin, expr.AggMax:
		if !a.seen[g] {
			return expr.NullValue(), true
		}
		return a.best[g], true
	}
	return expr.NullValue(), true
}

// --- sort ---------------------------------------------------------------

// sortOp materializes its input column-wise, evaluates every sort key
// once per row through the key's kernel, and stably sorts a permutation
// over the key values, which NextBatch gathers the columns by, BatchSize
// rows at a time. NULLs sort first ascending, last descending.
type sortOp struct {
	child BatchOperator
	kerns []*expr.Kernel
	descs []bool
	types []expr.Type
	cols  []expr.Vec // the input, every batch appended
	perm  []int32
	pos   int
}

func newSort(n *plan.Node, child BatchOperator, opt ExecOptions) (BatchOperator, error) {
	res := resolver(n.Children[0])
	s := &sortOp{child: child, types: colTypes(n.Children[0])}
	s.cols = make([]expr.Vec, len(s.types))
	for _, k := range n.SortKeys {
		bound, err := expr.Bind(k.E, res)
		if err != nil {
			return nil, fmt.Errorf("executor: sort bind %s: %w", k.E, err)
		}
		s.kerns = append(s.kerns, opt.kernel(bound, s.types))
		s.descs = append(s.descs, k.Desc)
	}
	return s, nil
}

func (s *sortOp) Open() error {
	if err := s.child.Open(); err != nil {
		return err
	}
	for c := range s.cols {
		s.cols[c].Reset(s.types[c], 0)
	}
	nk, n := len(s.kerns), 0
	var vals []expr.Value // key k of row r at vals[r*nk+k]
	for {
		b, err := s.child.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		n += b.Len()
		vals, err = s.absorb(vals, b)
		b.Release()
		if err != nil {
			return err
		}
	}
	if err := s.child.Close(); err != nil {
		return err
	}
	perm := make([]int32, n)
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
	s.perm, s.pos = perm, 0
	return sortErr
}

// absorb appends one input batch's (selected) rows to the columns and
// their sort key values to vals.
func (s *sortOp) absorb(vals []expr.Value, b *Batch) ([]expr.Value, error) {
	d := b.Data()
	if err := d.Bind(s.types); err != nil {
		return vals, err
	}
	for c := range s.cols {
		v, ok := d.ColVec(c)
		if !ok {
			return vals, fmt.Errorf("executor: sort input column %d not produced", c)
		}
		s.cols[c].AppendGather(v, b.Sel())
	}
	nk, n := len(s.kerns), b.Len()
	base := len(vals)
	vals = slices.Grow(vals, n*nk)[:base+n*nk]
	for k, kern := range s.kerns {
		v, err := kern.EvalVec(d, b.Sel())
		if err != nil {
			return vals, fmt.Errorf("executor: sort eval: %w", err)
		}
		for r := 0; r < n; r++ {
			vals[base+r*nk+k] = v.Value(r)
		}
	}
	return vals, nil
}

func (s *sortOp) NextBatch() (*Batch, error) {
	k := min(BatchSize, len(s.perm)-s.pos)
	if k <= 0 {
		return nil, nil
	}
	b := NewBatch()
	d := b.Data()
	d.StartCols(len(s.cols), k)
	for c := range s.cols {
		d.OwnCol(c).GatherFrom(&s.cols[c], s.perm[s.pos:s.pos+k])
	}
	s.pos += k
	return b, nil
}

func (s *sortOp) Close() error {
	s.perm = nil
	for c := range s.cols {
		s.cols[c] = expr.Vec{}
	}
	return nil
}
