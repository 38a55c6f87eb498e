// Package mhash implements Michael's lock-free list-based set and chained
// hash table (SPAA 2002), NBTC-transformed per Figure 2 of the Medley paper
// so that operations compose into Medley transactions.
//
// Keys are uint64 (the paper's microbenchmarks use 8-byte integer keys and
// values); values are generic. A put on an existing key replaces the node —
// marking the victim's next pointer with the replacement spliced behind it
// in a single linearizing CAS, exactly as in the paper's Figure 2.
package mhash

import (
	"unsafe"

	"medley/internal/core"
)

// ref is the content of a list link: a successor pointer with Michael's
// logical-deletion mark in its low bit, one word as in the paper. Packing
// both into one CASObj value preserves the algorithm's key property that a
// marked node's link can no longer change (every CAS expects an unmarked
// link); packing them into 8 bytes makes the value cell behind every link
// 16 bytes rather than 24.
//
// The marked form of a link to n is the address one byte inside n. That is
// an interior pointer, so the collector keeps n alive through it exactly as
// it does through the unmarked form, and it is only ever built and undone
// with unsafe.Add — never by way of a uintptr. A marked link to nothing
// cannot be nil+1 (the collector and checkptr reject small integers posing
// as pointers), so it points one byte inside markedNil instead.
type ref[V any] struct{ p unsafe.Pointer }

// markedNil is the object a marked nil link points into. Only its address
// is used; it is a word so that the address is even.
var markedNil uint64

// link is the unmarked link to n (the zero ref for a nil n).
func link[V any](n *node[V]) ref[V] { return ref[V]{unsafe.Pointer(n)} }

// marked is the marked link to n.
func marked[V any](n *node[V]) ref[V] {
	base := unsafe.Pointer(n)
	if n == nil {
		base = unsafe.Pointer(&markedNil)
	}
	return ref[V]{unsafe.Add(base, 1)}
}

// mark reports whether the link carries the logical-deletion mark.
func (r ref[V]) mark() bool { return uintptr(r.p)&1 != 0 }

// node is the successor the link names, marked or not.
func (r ref[V]) node() *node[V] {
	if !r.mark() {
		return (*node[V])(r.p)
	}
	base := unsafe.Add(r.p, -1)
	if base == unsafe.Pointer(&markedNil) {
		return nil
	}
	return (*node[V])(base)
}

// node is a list cell. key and val are immutable after insertion; updates
// replace the node.
//
// Nodes are pool-recycled under core pooling: a node is retired (into the
// unlinking Tx's NodePool) at its successful physical unlink — never at the
// logical delete — so a recycled node is unreachable from the list, and any
// thread still holding it from an earlier traversal is covered by the EBR
// grace period. resetNode runs post-grace and clears the value and the
// embedded link cell (generation-bumped) so stale witnesses can never
// validate against a reused node.
type node[V any] struct {
	key  uint64
	val  V
	next core.CASObj[ref[V]]
}

// ResetForReuse implements core.Resettable: runs post-grace when the node
// is recycled.
func (n *node[V]) ResetForReuse() {
	var zero V
	n.key = 0
	n.val = zero
	core.ResetSlot(&n.next)
}

// pool returns tx's node pool for this element type (nil when pooling is
// off; every NodePool method is nil-receiver safe).
func pool[V any](tx *core.Tx) *core.NodePool[node[V]] {
	return core.PoolOf[node[V]](tx)
}

// newNode sources a node, recycling when possible. The link cell is
// (re)initialized via InitTx, which reuses a resident recycled cell in
// place with a bumped generation — and allocates none for a fresh node at
// the tail of its chain, whose link is the zero ref.
func newNode[V any](tx *core.Tx, key uint64, val V, next ref[V]) *node[V] {
	n := pool[V](tx).Get()
	if n == nil {
		n = &node[V]{}
	}
	n.key = key
	n.val = val
	n.next.InitTx(tx, next)
	return n
}

// chain is one NBTC-transformed Michael list (a sorted set keyed by uint64)
// and nothing but its head link: 8 bytes, which is what a Map pays per
// bucket. Every list operation is a method of chain.
type chain[V any] struct {
	head core.CASObj[ref[V]]
}

// List is a chain usable on its own, attached to a TxManager.
type List[V any] struct {
	chain[V]
	mgr *core.TxManager
}

// NewList creates an empty list attached to mgr.
func NewList[V any](mgr *core.TxManager) *List[V] {
	return &List[V]{mgr: mgr}
}

// Manager returns the TxManager this list participates in.
func (l *List[V]) Manager() *core.TxManager { return l.mgr }

// findResult carries the postcondition of find: prev is the link whose
// value is {curr, unmarked}; curr is the first node with key >= the search
// key (nil at end of list); next is curr's observed successor. prevWitness
// and currWitness are the read evidence for the loads of prev and
// curr.next respectively.
type findResult[V any] struct {
	prev        *core.CASObj[ref[V]]
	curr        *node[V]
	next        *node[V]
	found       bool
	prevWitness core.ReadWitness
	currWitness core.ReadWitness
}

// find locates key from the list head, unlinking marked nodes it passes
// (Michael's helping). Unlinks go through NbtcCAS with no lin/pub flags:
// outside a speculation interval they execute immediately as in the
// original algorithm; inside one (i.e., after this transaction has seen its
// own speculative value) they are treated as critical, which is the
// conservative instrumentation the paper describes.
func (l *chain[V]) find(tx *core.Tx, key uint64) findResult[V] {
retry:
	for {
		prev := &l.head
		cr, prevW := prev.NbtcLoad(tx)
		curr := cr.node()
		for {
			if curr == nil {
				return findResult[V]{prev: prev, prevWitness: prevW}
			}
			nr, currW := curr.next.NbtcLoad(tx)
			next := nr.node()
			if nr.mark() {
				// curr is logically deleted; unlink it. Its successor may be
				// a replacement node carrying the same key. The
				// unlinking thread retires the node: commit-gated inside a
				// transaction (a critical unlink takes effect only then),
				// straight to EBR limbo outside one.
				if !prev.NbtcCAS(tx, link(curr), link(next), false, false) {
					continue retry
				}
				pool[V](tx).Retire(curr)
				curr = next
				continue
			}
			if curr.key >= key {
				return findResult[V]{
					prev: prev, curr: curr, next: next,
					found:       curr.key == key,
					prevWitness: prevW, currWitness: currW,
				}
			}
			prev = &curr.next
			prevW = currW
			curr = next
		}
	}
}

// Get returns the value bound to key. Its linearizing load is the load of
// curr.next when the key is present (the word a committed replace or remove
// must change) and the load of prev when absent (the word an insert into
// the gap must change); the corresponding witness joins the read set.
func (l *chain[V]) Get(tx *core.Tx, key uint64) (V, bool) {
	tx.OpStart()
	r := l.find(tx, key)
	if r.found {
		tx.AddToReadSet(r.currWitness)
		return r.curr.val, true
	}
	tx.AddToReadSet(r.prevWitness)
	var zero V
	return zero, false
}

// Contains reports whether key is present, with the same read evidence as
// Get.
func (l *chain[V]) Contains(tx *core.Tx, key uint64) bool {
	_, ok := l.Get(tx, key)
	return ok
}

// Put binds key to val, inserting or replacing. It returns the previous
// value, if any. The linearization point is a single CAS in both paths:
// marking the victim's next with the replacement spliced in (update), or
// linking the new node (insert).
func (l *chain[V]) Put(tx *core.Tx, key uint64, val V) (V, bool) {
	tx.OpStart()
	var nn *node[V]
	for {
		r := l.find(tx, key)
		if r.found {
			curr, next, prev := r.curr, r.next, r.prev
			nn = reuseNode(tx, nn, key, val, link(next))
			if curr.next.NbtcCAS(tx, link(next), marked(nn), true, true) {
				// Unlink (and retire) the replaced node post-commit; if the
				// unlink CAS fails, a later find unlinks and retires it on
				// our behalf.
				core.DeferCASRetire(tx, prev, link(curr), link(nn), pool[V](tx), curr)
				return curr.val, true
			}
		} else {
			nn = reuseNode(tx, nn, key, val, link(r.curr))
			if r.prev.NbtcCAS(tx, link(r.curr), link(nn), true, true) {
				var zero V
				return zero, false
			}
		}
	}
}

// reuseNode initializes (or re-targets, on a retried attempt) the
// operation's private not-yet-published node.
func reuseNode[V any](tx *core.Tx, n *node[V], key uint64, val V, next ref[V]) *node[V] {
	if n == nil {
		return newNode(tx, key, val, next)
	}
	n.next.InitTx(tx, next)
	return n
}

// Insert adds key only if absent, returning false when the key already
// exists. A failed insert is a read-only outcome whose evidence is the
// observation of the existing node.
func (l *chain[V]) Insert(tx *core.Tx, key uint64, val V) bool {
	tx.OpStart()
	var nn *node[V]
	for {
		r := l.find(tx, key)
		if r.found {
			tx.AddToReadSet(r.currWitness)
			if nn != nil {
				pool[V](tx).Put(nn) // never published: immediate reuse
			}
			return false
		}
		nn = reuseNode(tx, nn, key, val, link(r.curr))
		if r.prev.NbtcCAS(tx, link(r.curr), link(nn), true, true) {
			return true
		}
	}
}

// Remove deletes key, returning the removed value. A failed remove (key
// absent) is a read-only outcome witnessed on prev. The linearization point
// of a successful remove is the marking CAS on curr.next.
func (l *chain[V]) Remove(tx *core.Tx, key uint64) (V, bool) {
	tx.OpStart()
	for {
		r := l.find(tx, key)
		if !r.found {
			tx.AddToReadSet(r.prevWitness)
			var zero V
			return zero, false
		}
		curr, next, prev := r.curr, r.next, r.prev
		if curr.next.NbtcCAS(tx, link(next), marked(next), true, true) {
			core.DeferCASRetire(tx, prev, link(curr), link(next), pool[V](tx), curr)
			return curr.val, true
		}
	}
}

// Len counts unmarked nodes; it is not linearizable and is intended for
// tests and diagnostics.
func (l *chain[V]) Len() int {
	n := 0
	for c := l.head.Load().node(); c != nil; {
		nr := c.next.Load()
		if !nr.mark() {
			n++
		}
		c = nr.node()
	}
	return n
}

// Range invokes fn over a non-linearizable snapshot of unmarked nodes in
// ascending key order, stopping if fn returns false. For tests and
// diagnostics.
func (l *chain[V]) Range(fn func(key uint64, val V) bool) {
	for c := l.head.Load().node(); c != nil; {
		nr := c.next.Load()
		if !nr.mark() {
			if !fn(c.key, c.val) {
				return
			}
		}
		c = nr.node()
	}
}
