package executor

import (
	"fmt"
	"slices"
	"sync"

	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/plan"
)

// This file implements SHIP. A located plan splits at Ship boundaries
// into per-site fragments (see plan.SplitFragments); every Ship is an
// exchange whose producer drives the fragment below it and whose
// consumer is the operator the fragment above it reads. Every producer
// starts on its own goroutine before the root is opened and sends its
// frames through a bounded channel, so independent fragments overlap.
//
// Determinism: every exchange has exactly one producer and preserves
// its order, every fragment of a successful run runs exactly once and
// to completion, and fault verdicts are a pure function of (seed, edge,
// frame, attempt), so repeated runs emit the same rows in the same
// order, charge the run's ledger the same ShippedRows/ShippedBytes/
// ShipCost, retry the same sends and record the same audit log. Only
// wall-clock time differs.

// exchangeDepth bounds the frames buffered per exchange; producers run
// at most exchangeDepth×BatchSize rows ahead of their consumer.
const exchangeDepth = 4

// newExchange builds the Ship operator over src and registers its
// producer with the environment.
func newExchange(n *plan.Node, src BatchOperator, env *execEnv) BatchOperator {
	p := &exchangeProducer{node: n, src: src, env: env, ch: make(chan *frame, exchangeDepth)}
	env.producers = append(env.producers, p)
	return &exchangeOp{prod: p}
}

// exchangeProducer runs one plan fragment, feeding its Ship boundary: it
// drives the fragment's operator tree batch by batch, repacks the
// stream into BatchSize-row wire frames, charges the run's ledger the
// encoded size of each frame, applies the simulated wire delay, and
// hands the frames downstream in order. The consuming exchangeOp
// decodes them back into batches.
type exchangeProducer struct {
	node *plan.Node
	src  BatchOperator
	env  *execEnv
	// ch carries the frames; the producer closes it when it exits,
	// after setting err if it failed.
	ch  chan *frame
	err error
	// sent* accumulate what the producer actually delivered; only the
	// producer touches them. On a clean end of stream they become the
	// fragment's compliance audit record — a producer that errors out
	// mid-stream records nothing, keeping the audit log deterministic
	// (partial, interleaving-dependent deliveries never appear in it).
	sentRows, sentBytes, sentBatches int64
}

// run executes the fragment and, on a clean end of stream, records its
// audit entry.
func (p *exchangeProducer) run() error {
	if err := p.produce(); err != nil {
		return err
	}
	if a := p.env.obsv.AuditSink(); a != nil {
		rec := auditRecFor(p.node)
		rec.Rows, rec.Bytes, rec.Batches = p.sentRows, p.sentBytes, p.sentBatches
		a.Record(rec)
	}
	return nil
}

func (p *exchangeProducer) produce() (err error) {
	if err := p.src.Open(); err != nil {
		return err
	}
	defer func() {
		// Closing drains the fragment's own input exchanges: after a
		// failure, cancel the run first so they stop at once.
		if err != nil {
			err = p.env.fail(err)
		}
		p.src.Close()
	}()
	c, from, to := p.env.c, p.node.FromLoc, p.node.ToLoc
	ship := p.env.scope.OpenShipment(from, to)
	// The start-up cost α (one round trip) is paid when the connection
	// opens; per-frame sends below pay the bandwidth part.
	if err := c.SleepWire(p.env.ctx, c.Net.Alpha(from, to)); err != nil {
		return err
	}
	types := colTypes(p.node)
	s := shipperPool.Get().(*shipper)
	defer s.release()
	pend := &s.pend
	frameIdx := 0
	flush := func() error {
		f := framePool.Get().(*frame)
		f.b = s.enc.EncodeCols(f.b[:0], pend.cols, pend.n)
		// The resilient shipping path injects faults, retries with
		// backoff, and charges the shipment only when the frame lands,
		// so retried runs keep ledger parity with a fault-free one.
		if err := p.env.scope.ShipBatch(p.env.ctx, ship, from, to, frameIdx, int64(pend.n), int64(len(f.b))); err != nil {
			return err
		}
		frameIdx++
		p.sentRows += int64(pend.n)
		p.sentBytes += int64(len(f.b))
		p.sentBatches++
		pend.n = 0
		return p.deliver(f)
	}
	for {
		b, err := p.src.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			if pend.n > 0 {
				return flush()
			}
			return nil
		}
		err = pend.bind(b, types)
		for off, n := 0, b.Len(); err == nil && off < n; {
			take := min(BatchSize-pend.n, n-off)
			pend.add(b, off, take)
			off += take
			if pend.n == BatchSize {
				err = flush()
			}
		}
		b.Release()
		if err != nil {
			return err
		}
	}
}

// frame is one encoded wire frame, from framePool to its consumer,
// which puts it back once decoded.
type frame struct{ b []byte }

var framePool = sync.Pool{New: func() any { return new(frame) }}

// putFrame pools a frame nothing reads any more, unless it is too big.
func putFrame(f *frame) {
	if cap(f.b) <= maxPooledBytes {
		framePool.Put(f)
	}
}

// shipper is a producer's encoding scratch, pooled: the encoder and the
// frame being packed, both bounded by a frame of BatchSize rows.
type shipper struct {
	enc  network.WireEncoder
	pend framePacker
}

var shipperPool = sync.Pool{New: func() any { return new(shipper) }}

// release pools the scratch, holding no value of the run: the packed
// strings are cleared up to capacity (a short last frame leaves an
// earlier one's past its length), and so are the encoder's dictionary
// and the columns last read.
func (s *shipper) release() {
	for c := range s.pend.cols {
		clear(s.pend.cols[c].S[:cap(s.pend.cols[c].S)])
	}
	clear(s.pend.src)
	s.pend.n = 0
	s.enc.DropValues()
	shipperPool.Put(s)
}

// framePacker holds the frame an exchange producer is filling from its
// fragment's batches, BatchSize rows to the frame whatever sizes they
// arrive in: each batch appends column-wise to cols, and the frame is
// encoded from those vectors — no row is built to ship it.
type framePacker struct {
	n    int
	cols []expr.Vec
	src  []*expr.Vec // scratch: the arriving batch's columns
	iota []int32     // scratch: 0, 1, 2, … for ranges of a dense batch
}

// bind binds b to the stream's column types and leaves its columns in
// src.
func (f *framePacker) bind(b *Batch, types []expr.Type) error {
	d := b.Data()
	if err := d.Bind(types); err != nil {
		return err
	}
	w := d.Width()
	if f.n == 0 {
		f.cols = slices.Grow(f.cols[:0], w)[:w]
		f.src = slices.Grow(f.src[:0], w)[:w]
	}
	for c := range f.src {
		v, ok := d.ColVec(c)
		if !ok {
			return fmt.Errorf("executor: shipped column %d not produced", c)
		}
		f.src[c] = v
	}
	return nil
}

// add appends rows [off, off+take) of b's selection, bound by bind, to
// the frame.
func (f *framePacker) add(b *Batch, off, take int) {
	sel := b.Sel()
	if sel == nil && take < b.Len() {
		for len(f.iota) < off+take {
			f.iota = append(f.iota, int32(len(f.iota)))
		}
		sel = f.iota
	}
	if sel != nil {
		sel = sel[off : off+take]
	}
	for c, v := range f.src {
		p := &f.cols[c]
		if f.n == 0 {
			p.Reset(v.T, 0)
		}
		p.AppendGather(v, sel)
	}
	f.n += take
}

// deliver hands one landed frame to the consumer, stopping at a
// cancelled context.
func (p *exchangeProducer) deliver(f *frame) error {
	ctx := p.env.ctx
	select {
	case p.ch <- f:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// exchangeOp is the consuming side of an exchange: a batch operator
// decoding the producer's wire frames back into batches, in order, at
// the destination site.
type exchangeOp struct {
	prod *exchangeProducer
}

// Open does nothing: the producer is already running.
func (e *exchangeOp) Open() error { return nil }

func (e *exchangeOp) NextBatch() (*Batch, error) {
	f, ok := <-e.prod.ch
	if !ok {
		return nil, e.prod.err
	}
	// Frames decode straight into column vectors: downstream kernels run
	// on the decoded lanes with no row materialization. The decode copies
	// every string out of the frame, so the frame goes back to the pool
	// to be encoded into again.
	b := NewBatch()
	err := network.DecodeBatchCols(f.b, b.Data())
	putFrame(f)
	if err != nil {
		b.Release()
		return nil, fmt.Errorf("executor: exchange frame decode: %w", err)
	}
	return b, nil
}

// Close drains what the consumer did not read, so an abandoned producer
// (e.g. under a LIMIT) still runs to completion and ships its whole
// fragment. After a failure the run's context is already cancelled and
// the producer stops at its next send or wire sleep.
func (e *exchangeOp) Close() error {
	for f := range e.prod.ch {
		putFrame(f)
	}
	return nil
}
