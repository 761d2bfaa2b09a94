package sched

import (
	"context"
	"sync"
	"time"
)

// task is one admitted query moving through the scheduler.
type task struct {
	srv    *Server
	req    Request
	ctx    context.Context
	cancel context.CancelFunc

	// Weighted-fair queueing state: a task's virtual finish time is the
	// virtual clock at admission plus 1/weight, so heavier queries sort
	// as if they had arrived earlier; seq breaks ties FIFO.
	vft float64
	seq uint64

	enq       time.Time
	queueWait time.Duration
	heapIdx   int // position in the wait queue, -1 once popped

	once sync.Once
	done chan struct{}
	resp *Response
	err  error
}

// taskHeap is the wait queue, a min-heap on (vft, seq).
type taskHeap []*task

func (h taskHeap) Len() int { return len(h) }

func (h taskHeap) Less(i, j int) bool {
	if h[i].vft != h[j].vft {
		return h[i].vft < h[j].vft
	}
	return h[i].seq < h[j].seq
}

func (h taskHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}

func (h *taskHeap) Push(x any) {
	t := x.(*task)
	t.heapIdx = len(*h)
	*h = append(*h, t)
}

func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.heapIdx = -1
	*h = old[:n-1]
	return t
}
