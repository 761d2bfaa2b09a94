package executor

import (
	"fmt"
	"slices"

	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/plan"
)

// This file implements SHIP. A located plan splits at Ship boundaries
// into per-site fragments (see plan.SplitFragments); every Ship is an
// exchange whose producer drives the fragment below it and whose
// consumer is the operator the fragment above it reads. The exchange
// mode decides where the producer runs:
//
//   - goroutine mode (RunParallel*): every producer starts on its own
//     goroutine before the root is opened and sends its frames through a
//     bounded channel, so independent fragments overlap;
//   - inline mode (Run, RunObservedOpts): the producer runs to completion
//     inside the consumer's Open, appending its frames to a slice the
//     consumer then decodes — no goroutine is started.
//
// Determinism: every exchange has exactly one producer and preserves
// its order, every fragment runs exactly once and to completion, and
// fault verdicts are a pure function of (seed, edge, frame, attempt),
// so both modes emit the same rows in the same order, charge the ledger
// the same ShippedRows/ShippedBytes/ShipCost, retry the same sends and
// record the same audit log. Only wall-clock time differs.

// exchangeDepth bounds the frames buffered per goroutine-mode exchange;
// producers run at most exchangeDepth×BatchSize rows ahead of their
// consumer.
const exchangeDepth = 4

// exchangeMsg is one hop over a goroutine-mode exchange: a serialized
// wire frame or a terminal error.
type exchangeMsg struct {
	frame []byte
	err   error
}

// newExchange builds the Ship operator over src, registering its
// producer with the environment in goroutine mode.
func newExchange(n *plan.Node, src BatchOperator, env *execEnv) BatchOperator {
	p := &exchangeProducer{node: n, src: src, env: env}
	if !env.inline {
		p.ch = make(chan exchangeMsg, exchangeDepth)
		env.producers = append(env.producers, p)
	}
	return &exchangeOp{prod: p}
}

// exchangeProducer runs one plan fragment, feeding its Ship boundary: it
// drives the fragment's operator tree batch by batch, repacks the
// stream into BatchSize-row wire frames, charges the cluster ledger the
// encoded size of each frame, applies the simulated wire delay, and
// hands the frames downstream in order. The consuming exchangeOp
// decodes them back into batches.
type exchangeProducer struct {
	node *plan.Node
	src  BatchOperator
	env  *execEnv
	enc  network.WireEncoder
	// ch carries the frames in goroutine mode (nil in inline mode, where
	// they collect in frames until the consumer decodes them).
	ch     chan exchangeMsg
	frames [][]byte
	// sent* accumulate what the producer actually delivered; only the
	// producer touches them. On a clean end of stream they become the
	// fragment's compliance audit record — a producer that errors out
	// mid-stream records nothing, keeping the audit log deterministic
	// (partial, interleaving-dependent deliveries never appear in it).
	sentRows, sentBytes, sentBatches int64
}

// run executes the fragment under its span and, on a clean end of
// stream, records its audit entry.
func (p *exchangeProducer) run() error {
	o := p.env.obsv
	sp := o.StartSpan("exec.fragment").
		Tag("from", p.node.FromLoc).Tag("to", p.node.ToLoc)
	err := p.produce()
	if sp.Enabled() {
		outcome := "ok"
		if err != nil {
			outcome = "error"
		}
		sp.TagInt("rows", p.sentRows).TagInt("batches", p.sentBatches).
			Tag("outcome", outcome).End()
	}
	if err != nil {
		return err
	}
	if a := o.AuditSink(); a != nil {
		rec := auditRecFor(p.node)
		rec.Rows, rec.Bytes, rec.Batches = p.sentRows, p.sentBytes, p.sentBatches
		a.Record(rec)
	}
	return nil
}

func (p *exchangeProducer) produce() error {
	if err := p.src.Open(); err != nil {
		return err
	}
	defer p.src.Close()
	c, from, to := p.env.c, p.node.FromLoc, p.node.ToLoc
	ship := p.env.scope.OpenShipment(from, to)
	// The start-up cost α (one round trip) is paid when the connection
	// opens; per-frame sends below pay the bandwidth part.
	c.SleepWire(c.Net.Alpha(from, to))
	cal := c.Calibrator()
	var pend framePacker
	frameIdx := 0
	flush := func() error {
		// The encoder reuses its buffer; the delivered frame must own
		// its bytes.
		buf := append([]byte(nil), pend.encode(&p.enc)...)
		if cal != nil {
			cal.ObserveEncoding(pend.width(), int64(len(buf)))
		}
		// The resilient shipping path injects faults, retries with
		// backoff, and charges the shipment only when the frame lands,
		// so retried runs keep ledger parity with a fault-free one.
		if err := p.env.scope.ShipBatch(p.env.ctx, ship, from, to, frameIdx, int64(pend.n), int64(len(buf))); err != nil {
			return err
		}
		frameIdx++
		p.sentRows += int64(pend.n)
		p.sentBytes += int64(len(buf))
		p.sentBatches++
		pend.n, pend.asRows = 0, false
		return p.deliver(buf)
	}
	for {
		b, err := p.src.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			if pend.n > 0 {
				if err := flush(); err != nil {
					return err
				}
			}
			if cal != nil {
				// One affine sample per completed shipment: total
				// encoded bytes against the modeled edge cost.
				cal.ObserveShip(from, to, p.sentBytes, c.Net.ShipCost(from, to, float64(p.sentBytes)))
			}
			return nil
		}
		for off, n := 0, b.Len(); off < n; {
			take := min(BatchSize-pend.n, n-off)
			pend.add(b, off, take)
			off += take
			if pend.n == BatchSize {
				if err := flush(); err != nil {
					b.Release()
					return err
				}
			}
		}
		b.Release()
	}
}

// framePacker holds the frame an exchange producer is filling from its
// fragment's batches, BatchSize rows to the frame whatever sizes they
// arrive in. Column-backed batches append column-wise to cols and the
// frame is encoded from those vectors — no row is built to ship it. A
// batch that cannot join them (row-backed, or a lane or NULL type the
// vectors so far do not have) turns the frame into rows, until it is
// flushed.
type framePacker struct {
	n      int
	cols   []expr.Vec
	asRows bool
	rows   []expr.Row
	src    []*expr.Vec // scratch: the arriving batch's columns
	iota   []int32     // scratch: 0, 1, 2, … for ranges of a dense batch
}

// add appends rows [off, off+take) of b's selection to the frame.
func (f *framePacker) add(b *Batch, off, take int) {
	if !f.asRows && !f.addCols(b, off, take) {
		f.asRows = true
		f.rows = append(f.rows[:0], colRows(f.cols, f.n)...)
	}
	if f.asRows {
		f.rows = append(f.rows, b.Rows()[off:off+take]...)
	}
	f.n += take
}

func (f *framePacker) addCols(b *Batch, off, take int) bool {
	d := b.Data()
	w := d.Width()
	if d.RowBacked() || f.n > 0 && w != len(f.cols) {
		return false
	}
	if f.n == 0 {
		f.cols = slices.Grow(f.cols[:0], w)[:w]
		f.src = slices.Grow(f.src[:0], w)[:w]
	}
	for c := range f.src {
		v, ok := d.ColVec(c)
		if p := &f.cols[c]; !ok || f.n > 0 && (p.T != v.T || p.Null != nil && v.Null != nil && p.NullT != v.NullT) {
			return false
		}
		f.src[c] = v
	}
	sel := b.Sel()
	if sel == nil && take < d.Len() {
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
		if p.Null == nil {
			p.NullT = v.NullT
		}
		p.AppendGather(v, sel)
	}
	return true
}

func (f *framePacker) encode(enc *network.WireEncoder) []byte {
	if f.asRows {
		return enc.Encode(f.rows)
	}
	return enc.EncodeCols(f.cols, f.n)
}

// width is the schema-estimate size of the frame's rows, fed to the
// calibrator as the estimated side of the encoding ratio.
func (f *framePacker) width() int64 {
	if f.asRows {
		return widthSum(f.rows)
	}
	var n int64
	for c := range f.cols {
		for i := 0; i < f.n; i++ {
			n += int64(f.cols[c].Value(i).Width())
		}
	}
	return n
}

func widthSum(rows []expr.Row) int64 {
	var n int64
	for _, r := range rows {
		n += int64(r.Width())
	}
	return n
}

// deliver hands one landed frame to the consumer; both modes stop at a
// cancelled context.
func (p *exchangeProducer) deliver(frame []byte) error {
	ctx := p.env.ctx
	if p.ch == nil {
		p.frames = append(p.frames, frame)
		return ctx.Err()
	}
	select {
	case p.ch <- exchangeMsg{frame: frame}:
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
	next int // inline mode: the next frame to decode
	done bool
}

// Open runs the producer in inline mode, materializing the whole
// shipment; in goroutine mode the producer is already running.
func (e *exchangeOp) Open() error {
	if e.prod.ch != nil {
		return nil
	}
	return e.prod.run()
}

func (e *exchangeOp) NextBatch() (*Batch, error) {
	if e.done {
		return nil, nil
	}
	var frame []byte
	if p := e.prod; p.ch == nil {
		if e.next == len(p.frames) {
			e.done = true
			return nil, nil
		}
		frame, p.frames[e.next] = p.frames[e.next], nil
		e.next++
	} else {
		msg, ok := <-p.ch
		if !ok || msg.err != nil {
			e.done = true
			return nil, msg.err
		}
		frame = msg.frame
	}
	// Frames decode straight into column vectors: downstream kernels run
	// on the decoded lanes with no row materialization, and the row view
	// (when an operator does need it) reproduces the encoded tuples exactly.
	b := NewBatch()
	if err := network.DecodeBatchCols(frame, b.Data()); err != nil {
		b.Release()
		e.done = true
		return nil, fmt.Errorf("executor: exchange frame decode: %w", err)
	}
	return b, nil
}

// Close drops what the consumer did not read. In goroutine mode that
// means draining the channel, so an abandoned producer (e.g. under a
// LIMIT) still runs to completion and ships exactly what the inline
// mode, which materializes every shipment at Open, ships.
func (e *exchangeOp) Close() error {
	if e.prod.ch != nil {
		for range e.prod.ch {
		}
	}
	e.prod.frames = nil
	e.done = true
	return nil
}
