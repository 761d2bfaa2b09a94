package store

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// PoolStats is a point-in-time snapshot of buffer-pool traffic,
// exported as the cgdqp_store_* metrics.
type PoolStats struct {
	Hits       int64 // page requests served from memory
	Misses     int64 // page requests that went to the pager
	Evictions  int64 // frames recycled to stay within budget
	Writebacks int64 // dirty frames flushed on eviction or checkpoint
	Resident   int64 // frames currently held
	DecodeHits int64 // page scans served from a frame's cached decode
}

// frameKey addresses one page of one table file.
type frameKey struct {
	file *tableFile
	page uint32
}

// frame is one resident page: the buffer, a pin count that fences
// eviction, a dirty flag that forces a writeback before recycling, and
// the columnar decode its scans share (nil until a scan of the resident
// page fills it; dropped whenever the bytes may change or the frame is
// recycled).
type frame struct {
	key   frameKey
	buf   []byte
	pins  int
	dirty bool
	elem  *list.Element
	dec   atomic.Pointer[pageDecode]
}

// Pool is the shared pin/unpin LRU buffer pool. One pool serves every
// site engine so the configured byte budget is global; the budget is
// rounded down to whole frames (minimum one). Pinned frames are never
// evicted — if every frame is pinned the pool grows past its budget
// rather than deadlocking, and shrinks back as pins drain.
type Pool struct {
	mu           sync.Mutex
	budgetFrames int
	frames       map[frameKey]*frame
	lru          *list.List // front = most recently used

	hits, misses, evictions, writebacks, decodeHits atomic.Int64
}

// DefaultPoolBytes is the buffer budget used when none is configured.
const DefaultPoolBytes = 64 << 20

// NewPool creates a buffer pool with the given byte budget.
func NewPool(budgetBytes int64) *Pool {
	if budgetBytes <= 0 {
		budgetBytes = DefaultPoolBytes
	}
	n := int(budgetBytes / PageSize)
	if n < 1 {
		n = 1
	}
	return &Pool{budgetFrames: n, frames: map[frameKey]*frame{}, lru: list.New()}
}

// Pin returns the frame holding page pg of tf, reading it from the
// pager on a miss (zeroed for the caller to fill when create is set and
// the pager lacks the page); hit reports that the page was already
// resident. The frame stays resident until the matching Unpin.
//
// A read of a table with more pages than the pool has frames would
// flush every other table through the LRU on each pass (sequential
// flooding). Its misses enter at the cold end and its hits stay where
// they are, so it cycles through the frames it already holds, and keeps
// a fixed subset of itself resident, as MRU would. Appends and tables
// that fit keep LRU placement.
func (p *Pool) Pin(tf *tableFile, pg uint32, create bool) (fr *frame, hit bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	cold := !create && tf.pages > uint32(p.budgetFrames)
	if fr, ok := p.frames[frameKey{tf, pg}]; ok {
		p.hits.Add(1)
		fr.pins++
		if !cold {
			p.lru.MoveToFront(fr.elem)
		}
		return fr, true, nil
	}
	p.misses.Add(1)
	fr, err = p.allocFrame(frameKey{tf, pg}, cold)
	if err != nil {
		return nil, false, err
	}
	switch {
	case pg < tf.pages:
		err = tf.readPage(pg, fr.buf)
	case !create:
		err = fmt.Errorf("store: page %d of %s does not exist", pg, tf.path)
	default:
		clear(fr.buf)
	}
	if err != nil {
		p.dropFrame(fr)
		return nil, false, err
	}
	fr.pins = 1
	return fr, false, nil
}

// allocFrame carves out a frame for key at the LRU's front (its back
// when cold), first evicting least recently used unpinned frames until
// the pool is below budget; the last evicted frame, list element
// included, is reused. Caller holds p.mu.
func (p *Pool) allocFrame(key frameKey, cold bool) (*frame, error) {
	var fr *frame
	for e := p.lru.Back(); e != nil && len(p.frames) >= p.budgetFrames; {
		cand := e.Value.(*frame)
		e = e.Prev()
		if cand.pins > 0 {
			continue
		}
		if cand.dirty {
			if err := cand.key.file.writePage(cand.key.page, cand.buf); err != nil {
				if fr != nil {
					p.lru.Remove(fr.elem)
				}
				return nil, err
			}
			p.writebacks.Add(1)
		}
		p.evictions.Add(1)
		delete(p.frames, cand.key)
		if fr != nil {
			p.lru.Remove(fr.elem)
		}
		fr = cand
	}
	if fr == nil {
		fr = &frame{buf: make([]byte, PageSize)}
		fr.elem = p.lru.PushFront(fr)
	}
	if cold {
		p.lru.MoveToBack(fr.elem)
	} else {
		p.lru.MoveToFront(fr.elem)
	}
	fr.key = key
	fr.pins = 0
	fr.dirty = false
	fr.dec.Store(nil)
	p.frames[key] = fr
	return fr, nil
}

// dropFrame discards a frame whose fill failed. Caller holds p.mu.
func (p *Pool) dropFrame(fr *frame) {
	delete(p.frames, fr.key)
	p.lru.Remove(fr.elem)
}

// Unpin releases a pinned frame, recording whether the caller dirtied
// it; a dirtied frame's cached decode no longer matches its bytes and
// is dropped.
func (p *Pool) Unpin(fr *frame, dirty bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if dirty {
		fr.dirty = true
		fr.dec.Store(nil)
	}
	if fr.pins > 0 {
		fr.pins--
	}
}

// FlushFile writes back every dirty unpinned frame of tf. It reports
// whether ALL of tf's dirty frames were flushed (a concurrently pinned
// dirty frame stays resident and blocks WAL truncation this round).
func (p *Pool) FlushFile(tf *tableFile) (bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	all := true
	for _, fr := range p.frames {
		if fr.key.file != tf || !fr.dirty {
			continue
		}
		if fr.pins > 0 {
			all = false
			continue
		}
		if err := tf.writePage(fr.key.page, fr.buf); err != nil {
			return false, err
		}
		p.writebacks.Add(1)
		fr.dirty = false
	}
	return all, nil
}

// DropFile evicts every frame of tf, flushing dirty ones when flush is
// set — used when a table file closes.
func (p *Pool) DropFile(tf *tableFile, flush bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for key, fr := range p.frames {
		if key.file != tf {
			continue
		}
		if fr.dirty && flush {
			if err := tf.writePage(key.page, fr.buf); err != nil {
				return err
			}
			p.writebacks.Add(1)
		}
		delete(p.frames, key)
		p.lru.Remove(fr.elem)
	}
	return nil
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	resident := int64(len(p.frames))
	p.mu.Unlock()
	return PoolStats{
		Hits:       p.hits.Load(),
		Misses:     p.misses.Load(),
		Evictions:  p.evictions.Load(),
		Writebacks: p.writebacks.Load(),
		Resident:   resident,
		DecodeHits: p.decodeHits.Load(),
	}
}
