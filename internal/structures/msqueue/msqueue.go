// Package msqueue implements the Michael & Scott nonblocking FIFO queue
// (PODC 1996), NBTC-transformed so enqueue and dequeue compose into Medley
// transactions. The queue is the paper's example of an abstraction beyond
// sets and mappings that transactional-transform methodologies (boosting,
// LFTT) cannot easily handle — a single-linked FIFO has no obvious inverse
// operation — but that NBTC supports mechanically.
package msqueue

import (
	"medley/internal/core"
)

type node[V any] struct {
	val  V
	next core.CASObj[*node[V]]
}

// Queue is an NBTC-transformed Michael & Scott queue.
type Queue[V any] struct {
	head core.CASObj[*node[V]] // points at the current dummy
	tail core.CASObj[*node[V]]
	mgr  *core.TxManager
}

// New creates an empty queue attached to mgr.
func New[V any](mgr *core.TxManager) *Queue[V] {
	q := &Queue[V]{mgr: mgr}
	dummy := &node[V]{}
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
	n := &node[V]{val: val}
	for {
		t, _ := q.tail.NbtcLoad(tx)
		next, _ := t.next.NbtcLoad(tx)
		if next != nil {
			// Tail is lagging; advance it. This is helping work: before our
			// speculation interval it executes immediately, and if next is
			// our own speculative node the interval has already begun and
			// the advance is (conservatively) critical.
			q.tail.NbtcCAS(tx, t, next, false, false)
			continue
		}
		if t.next.NbtcCAS(tx, nil, n, true, true) {
			tail := t
			tx.Defer(func() {
				q.tail.CAS(tail, n)
			})
			return
		}
	}
}

// Dequeue removes and returns the oldest value. An empty-queue outcome is
// read-only; its linearizing load is the observation that the dummy's next
// is nil, which joins the read set. A successful dequeue linearizes at the
// head-advancing CAS.
func (q *Queue[V]) Dequeue(tx *core.Tx) (V, bool) {
	tx.OpStart()
	var zero V
	for {
		h, hw := q.head.NbtcLoad(tx)
		next, nw := h.next.NbtcLoad(tx)
		if next == nil {
			// Empty. Witness both the head identity and its nil successor:
			// together they certify emptiness at a single instant.
			tx.AddToReadSet(hw)
			tx.AddToReadSet(nw)
			return zero, false
		}
		if q.head.NbtcCAS(tx, h, next, true, true) {
			// If the tail still points at the removed dummy (single-element
			// queue), help it forward after commit so non-transactional
			// peers never chase a removed node.
			tx.Defer(func() {
				q.tail.CAS(h, next)
			})
			return next.val, true
		}
	}
}

// Peek returns the oldest value without removing it (read-only).
func (q *Queue[V]) Peek(tx *core.Tx) (V, bool) {
	tx.OpStart()
	var zero V
	h, hw := q.head.NbtcLoad(tx)
	next, nw := h.next.NbtcLoad(tx)
	tx.AddToReadSet(hw)
	tx.AddToReadSet(nw)
	if next == nil {
		return zero, false
	}
	return next.val, true
}

// Len counts elements; not linearizable, for tests and diagnostics.
func (q *Queue[V]) Len() int {
	n := 0
	for c := q.head.Load().next.Load(); c != nil; c = c.next.Load() {
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
