package core

import (
	"sync"
	"sync/atomic"

	"medley/internal/ebr"
)

// Slab is a structure's grow-only node storage: fixed-size chunks that
// never move, so node i stays at one address for the life of the slab,
// found through a directory that only grows. A node is addressed by a
// uint32 index, so that a Word can link it, and holds no Go pointer of its
// own if N holds none: for uint64 keys and values the collector has
// nothing to mark in a slab but its chunks. Index 0 is never handed out: a
// structure's nil. The zero Slab is ready to use.
//
// The embedded Slots hands the indexes out and takes back the ones a
// structure unlinks. Get grows the directory before it returns an index
// the directory does not cover yet, and a reader reaches an index only
// through a link published after that, so the directory it loads covers
// the index.
type Slab[N any] struct {
	Slots
	mu  sync.Mutex // serializes growth
	dir atomic.Pointer[[]*[SlabChunk]N]
}

// SlabChunk is how many nodes one slab chunk holds: 24 KB of 24-byte
// nodes, 40 KB of 40-byte ones, each a size class or a page multiple of
// its own.
const SlabChunk = 1 << slabChunkBits

const slabChunkBits = 10

// At is node i.
func (s *Slab[N]) At(i uint32) *N {
	return &(*s.dir.Load())[i>>slabChunkBits][i&(SlabChunk-1)]
}

// Get hands out the index of a node no thread can reach: never used, or
// unlinked and past its grace period. The caller initializes the node
// before publishing it.
func (s *Slab[N]) Get(tx *Tx) uint32 {
	i := s.get(tx)
	s.cover(i)
	return i
}

// cover grows the directory, if it must, to reach index i.
func (s *Slab[N]) cover(i uint32) {
	if c := int(i>>slabChunkBits) + 1; c > s.Chunks() {
		s.mu.Lock()
		GrowChunks(&s.dir, c)
		s.mu.Unlock()
	}
}

// Take hands out the next index of run, a bulk loader's private run of
// never-used indexes: no Tx, no cache and no pool between them. The run
// claims slotSegment indexes of the shared frontier at a time. A run
// moved to another slab gives its unused tail back first
// (SlotRun.Release).
func (s *Slab[N]) Take(run *SlotRun) uint32 {
	if run.s != &s.Slots {
		run.Release()
		run.s = &s.Slots
	}
	i := run.take(&s.Slots)
	s.cover(i)
	return i
}

// Chunks is how many chunks the slab has grown to; for tests and
// diagnostics.
func (s *Slab[N]) Chunks() int {
	if d := s.dir.Load(); d != nil {
		return len(*d)
	}
	return 0
}

// Slots hands out the indexes of a Slab and takes back the ones its
// structure's operations unlink.
//
// Every registered transaction context gets its own cache of indexes, so
// the hot path takes no lock: a never-used index comes from the cache's
// current segment, claimed from the shared frontier slotSegment at a time
// (one atomic add, and under contention still one per segment), and an
// unlinked index comes back through EBR. A bulk loader holds a SlotRun of
// its own, and any other caller without a Tx (a bare Put) draws its
// segments through a sync.Pool.
//
// An unlinked index is reused only after an EBR grace period, so only a Tx
// with an EBR handle (Tx.SetSMR) recycles what it unlinks: every thread
// that may still hold the index from a traversal holds a critical section
// of the same domain. An index unlinked without one is never reused.
// Reuse needs no more than the grace period: the Words in a recycled node
// are Init'ed, which advances their counters, so no witness taken in its
// previous life validates.
type Slots struct {
	next   atomic.Uint32
	mu     sync.Mutex // serializes cache registration
	caches atomic.Pointer[[]*slotCache]
	bare   sync.Pool // *slotSpan for callers without a Tx
}

// slotSegment is how many never-used indexes one claim on the frontier
// takes.
const slotSegment = 64

// maxSlot bounds the index space: a structure keeps up to two payload bits
// beside an index (mhash: Michael's mark; nmbst: an edge's flag and tag).
const maxSlot = 1 << 30

// slotSpan is a claimed range [lo, hi) of never-used indexes.
type slotSpan struct{ lo, hi uint32 }

func (s *Slots) claim() slotSpan {
	hi := s.next.Add(slotSegment)
	if hi > maxSlot {
		panic("medley: slab index space exhausted")
	}
	return slotSpan{max(hi-slotSegment, 1), hi} // index 0 is nil
}

// take hands out the span's next index, claiming a segment when it is
// spent.
func (sp *slotSpan) take(s *Slots) uint32 {
	if sp.lo == sp.hi {
		*sp = s.claim()
	}
	i := sp.lo
	sp.lo++
	return i
}

// SlotRun is one bulk loader's run of never-used indexes of one slab
// (Slab.Take). The zero SlotRun is empty and bound to no slab. A run is
// owned by one goroutine.
type SlotRun struct {
	s *Slots
	slotSpan
}

// Release gives the run's unused indexes back to its slab's frontier when
// nothing has been claimed past them since, and empties the run. A load
// that is one shard's only claimant thus hands out exactly one index a
// key; a tail some later claim stands above stays unused for good.
func (r *SlotRun) Release() {
	if r.s != nil && r.lo < r.hi {
		r.s.next.CompareAndSwap(r.hi, r.lo)
	}
	*r = SlotRun{}
}

// get hands out an index for Slab.Get.
func (s *Slots) get(tx *Tx) uint32 {
	if tx == nil {
		sp, _ := s.bare.Get().(*slotSpan)
		if sp == nil {
			sp = new(slotSpan)
		}
		i := sp.take(s)
		s.bare.Put(sp)
		return i
	}
	c := s.cacheOf(tx)
	c.gets++
	i, ok := pop(&c.free)
	if ok {
		c.hits++
	} else {
		i = c.span.take(s)
	}
	if tx.InTx() {
		c.fresh = append(c.fresh, i)
	}
	return i
}

// Put returns an index that was never published (an insert whose node lost
// its race and is no longer needed) for immediate reuse.
func (s *Slots) Put(tx *Tx, i uint32) {
	if tx == nil {
		return
	}
	c := s.cacheOf(tx)
	c.free = append(c.free, i)
	for j := len(c.fresh) - 1; j >= 0; j-- {
		if c.fresh[j] == i {
			c.fresh[j] = c.fresh[len(c.fresh)-1]
			c.fresh = c.fresh[:len(c.fresh)-1]
			break
		}
	}
}

// Retire takes back index i, which the caller has just unlinked. critical
// says whether that unlink was a critical CAS — as a linearizing CAS always
// is, and a helping one inside the speculation interval — which takes
// effect only if the transaction commits: so then does the retirement.
// Otherwise the unlink has happened and the index goes to EBR at the Tx's
// next settle, or, outside transactions, a batch at a time.
func (s *Slots) Retire(tx *Tx, i uint32, critical bool) {
	if tx == nil || tx.smr == nil {
		return // no grace period to wait out: never reused
	}
	c := s.cacheOf(tx)
	c.retires++
	if critical && tx.InTx() {
		c.pending = append(c.pending, i)
		return
	}
	c.ready = append(c.ready, i)
	if !tx.InTx() && len(c.ready) >= slotSegment {
		c.ship()
	}
}

// cacheOf is tx's cache, registered on first use. The index is by tid,
// which is unique only within a manager; a Tx of another manager whose tid
// is taken finds its cache among its own pools.
func (s *Slots) cacheOf(tx *Tx) *slotCache {
	tid := tx.desc.tid
	if cs := s.caches.Load(); cs != nil && tid < len(*cs) {
		if c := (*cs)[tid]; c != nil && c.tx == tx {
			return c
		}
	}
	for _, c := range tx.pools {
		if c.s == s {
			return c
		}
	}
	c := &slotCache{s: s, tx: tx}
	tx.pools = append(tx.pools, c)
	s.mu.Lock()
	defer s.mu.Unlock()
	var cs []*slotCache
	if p := s.caches.Load(); p != nil {
		cs = append(cs, *p...)
	}
	for len(cs) <= tid {
		cs = append(cs, nil)
	}
	if cs[tid] == nil {
		cs[tid] = c
		s.caches.Store(&cs)
	}
	return c
}

// slotCache is one Tx's indexes of one Slots. Single-owner: only the
// owning goroutine gets from or recycles into it, because EBR flushes run
// on the retiring handle's goroutine.
type slotCache struct {
	s       *Slots
	tx      *Tx
	free    []uint32 // grace period elapsed
	span    slotSpan // never used
	fresh   []uint32 // handed out to the open transaction
	pending []uint32 // unlinked by the open transaction's critical CASes
	ready   []uint32 // unlinked; not yet in EBR limbo

	freeBatches []*slotBatch

	gets, hits, retires uint64 // owner-only; flushed per settle
}

// slotBatch is a settle's worth of retired indexes riding through EBR limbo
// as one entry that weighs its length.
type slotBatch struct{ idx []uint32 }

// ship sends the ready indexes to EBR limbo as one batch.
func (c *slotCache) ship() {
	b, ok := pop(&c.freeBatches)
	if !ok {
		b = &slotBatch{}
	}
	// Swap: the batch takes the filled slice, the cache keeps its spare.
	b.idx, c.ready = c.ready, b.idx[:0]
	c.tx.smr.RetireBatch(c, b, len(b.idx))
}

// Recycle implements ebr.Pool: the batch's grace period has elapsed. It
// runs on the owning goroutine.
func (c *slotCache) Recycle(obj any) {
	b := obj.(*slotBatch)
	c.free = append(c.free, b.idx...)
	b.idx = b.idx[:0]
	c.freeBatches = append(c.freeBatches, b)
}

// settle closes the Tx's transaction, or run of bare operations: a commit
// makes the transaction's unlinks real; an abort's never happened, and
// neither did its links. A node the aborted transaction took was published
// only as the new word of its own installs, which helpers never follow
// (they finalize an install and use the word it leaves), so its index is
// nobody's and goes straight back to free. On a Tx with an EBR handle the
// counters fold into the owner's StatShard, a few single-writer stores a
// settle rather than an atomic add a get.
func (c *slotCache) settle(tx *Tx, committed bool) {
	if committed {
		c.ready = append(c.ready, c.pending...)
	} else {
		c.free = append(c.free, c.fresh...)
	}
	c.fresh = c.fresh[:0]
	c.pending = c.pending[:0]
	if len(c.ready) > 0 {
		c.ship()
	}
	if tx.smr != nil {
		shard := tx.desc.shard
		bumpN(&shard.PoolGets, c.gets)
		bumpN(&shard.PoolHits, c.hits)
		bumpN(&shard.PoolRetires, c.retires)
	}
	c.gets, c.hits, c.retires = 0, 0, 0
}

var _ ebr.Pool = (*slotCache)(nil)
