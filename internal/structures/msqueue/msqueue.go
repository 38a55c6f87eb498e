// Package msqueue implements the Michael & Scott nonblocking FIFO queue
// (PODC 1996), NBTC-transformed so enqueue and dequeue compose into Medley
// transactions. The queue is the paper's example of an abstraction beyond
// sets and mappings that transactional-transform methodologies (boosting,
// LFTT) cannot easily handle — a single-linked FIFO has no obvious inverse
// operation — but that NBTC supports mechanically.
//
// Nodes live in the queue's core.Slab and every link — head, tail and a
// node's next — is a core.Word holding a slab index (0 for none). A
// dequeue retires the old dummy at its linearizing CAS, as the original
// frees it: neither head nor tail names it once the head has moved past
// it, because a dequeue first helps a tail that lags on the dummy forward.
// The dummy's index is reused after an EBR grace period by a Tx with an
// SMR handle (Tx.SetSMR), and never by one without.
package msqueue

import (
	"medley/internal/core"
)

type node[V any] struct {
	val  V
	next core.Word
}

// Queue is an NBTC-transformed Michael & Scott queue.
type Queue[V any] struct {
	head core.Word // the current dummy
	tail core.Word
	mgr  *core.TxManager
	slab core.Slab[node[V]]
}

// New creates an empty queue attached to mgr.
func New[V any](mgr *core.TxManager) *Queue[V] {
	q := &Queue[V]{mgr: mgr}
	dummy := q.slab.Get(nil)
	q.head.Init(dummy)
	q.tail.Init(dummy)
	return q
}

// Manager returns the TxManager this queue participates in.
func (q *Queue[V]) Manager() *core.TxManager { return q.mgr }

// Enqueue appends val. Its linearization point is the CAS that links the
// new node after the last node; the tail-advancing CAS is post-critical
// cleanup, deferred to commit inside a transaction exactly as the paper
// prescribes.
func (q *Queue[V]) Enqueue(tx *core.Tx, val V) {
	tx.OpStart()
	i := q.slab.Get(tx)
	n := q.slab.At(i)
	n.val = val
	n.next.Init(0) // advances the counter a recycled node's link carries
	for {
		t, _ := q.tail.NbtcLoad(tx)
		tn := q.slab.At(t)
		next, _ := tn.next.NbtcLoad(tx)
		if next != 0 {
			// Tail is lagging; advance it. This is helping work: before our
			// speculation interval it executes immediately, and if next is
			// our own speculative node the interval has already begun and
			// the advance is (conservatively) critical.
			q.tail.NbtcCAS(tx, t, next, false, false)
			continue
		}
		if tn.next.NbtcCAS(tx, 0, i, true, true) {
			core.DeferWordCAS(tx, &q.tail, t, i, nil, 0)
			return
		}
	}
}

// Dequeue removes and returns the oldest value. An empty-queue outcome is
// read-only; its linearizing load is the observation that the dummy's next
// is 0, which joins the read set. A successful dequeue linearizes at the
// head-advancing CAS, and retires the old dummy with it.
func (q *Queue[V]) Dequeue(tx *core.Tx) (V, bool) {
	tx.OpStart()
	var zero V
	for {
		h, hw := q.head.NbtcLoad(tx)
		next, nw := q.slab.At(h).next.NbtcLoad(tx)
		if next == 0 {
			// Empty. Witness both the head identity and its empty successor:
			// together they certify emptiness at a single instant.
			tx.AddToReadSet(hw)
			tx.AddToReadSet(nw)
			return zero, false
		}
		if t, _ := q.tail.NbtcLoad(tx); t == h {
			// The tail lags on the dummy about to go: help it forward
			// first, so that once the head moves nothing names the dummy.
			q.tail.NbtcCAS(tx, h, next, false, false)
			continue
		}
		v := q.slab.At(next).val
		if q.head.NbtcCAS(tx, h, next, true, true) {
			q.slab.Retire(tx, h, true)
			return v, true
		}
	}
}

// Peek returns the oldest value without removing it (read-only).
func (q *Queue[V]) Peek(tx *core.Tx) (V, bool) {
	tx.OpStart()
	var zero V
	h, hw := q.head.NbtcLoad(tx)
	next, nw := q.slab.At(h).next.NbtcLoad(tx)
	tx.AddToReadSet(hw)
	tx.AddToReadSet(nw)
	if next == 0 {
		return zero, false
	}
	return q.slab.At(next).val, true
}

// Len counts elements; not linearizable, for tests and diagnostics.
func (q *Queue[V]) Len() int {
	n := 0
	for c := q.slab.At(q.head.Load()).next.Load(); c != 0; c = q.slab.At(c).next.Load() {
		n++
	}
	return n
}

// Drain pops every element non-transactionally and returns them in FIFO
// order; for tests and diagnostics.
func (q *Queue[V]) Drain() []V {
	var out []V
	for {
		v, ok := q.Dequeue(nil)
		if !ok {
			return out
		}
		out = append(out, v)
	}
}
