package executor

import (
	"testing"

	"cgdqp/internal/expr"
	"cgdqp/internal/plan"
)

// vecSrc replays prebuilt column batches as an operator, copying each
// into a pooled batch the way a scan hands out resident pages.
type vecSrc struct {
	chunks []*expr.Batch
	pos    int
}

func (s *vecSrc) Open() error  { s.pos = 0; return nil }
func (s *vecSrc) Close() error { return nil }

func (s *vecSrc) NextBatch() (*Batch, error) {
	if s.pos == len(s.chunks) {
		return nil, nil
	}
	src := s.chunks[s.pos]
	s.pos++
	b := NewBatch()
	d := b.Data()
	d.StartCols(src.Width(), src.Len())
	for c := 0; c < src.Width(); c++ {
		v, _ := src.ColVec(c)
		d.OwnCol(c).CopyFrom(v)
	}
	return b, nil
}

// keyedChunks builds n rows of (key, payload) in BatchSize chunks, row
// i keyed i % keys.
func keyedChunks(tb testing.TB, types []expr.Type, n, keys int) []*expr.Batch {
	var out []*expr.Batch
	for lo := 0; lo < n; lo += BatchSize {
		var rows []expr.Row
		for i := lo; i < min(lo+BatchSize, n); i++ {
			pay := expr.NewFloat(float64(i) / 4)
			if types[1] == expr.TDate {
				pay = expr.NewDate(int64(i))
			}
			rows = append(rows, expr.Row{expr.NewInt(int64((i * 7) % keys)), pay})
		}
		b := &expr.Batch{}
		fillCols(tb, b, rows, types)
		out = append(out, b)
	}
	return out
}

// BenchmarkHashJoin joins 18,000 probe rows against 4,500 build rows on
// an integer key, each probe row matching one build row: the shape of
// lineitem ⋈ orders in the warm_exec workload. One iteration builds,
// opens, drains and closes the operator, as a run does.
func BenchmarkHashJoin(b *testing.B) {
	lTypes := []expr.Type{expr.TInt, expr.TFloat}
	rTypes := []expr.Type{expr.TInt, expr.TDate}
	c := joinCase{lTypes: lTypes, rTypes: rTypes,
		cond: expr.NewCmp(expr.EQ, expr.NewCol("a", "c0"), expr.NewCol("b", "c0"))}
	node := c.node(plan.HashJoin)
	probe := &vecSrc{chunks: keyedChunks(b, lTypes, 18_000, 4_500)}
	build := &vecSrc{chunks: keyedChunks(b, rTypes, 4_500, 4_500)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, err := newHashJoin(node, probe, build)
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		if err := op.Open(); err != nil {
			b.Fatal(err)
		}
		for {
			out, err := op.NextBatch()
			if err != nil {
				b.Fatal(err)
			}
			if out == nil {
				break
			}
			rows += out.Len()
			out.Release()
		}
		op.Close()
		if rows != 18_000 {
			b.Fatalf("%d rows, want 18,000", rows)
		}
	}
}
