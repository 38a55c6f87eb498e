// Package mhash implements Michael's lock-free list-based set and chained
// hash table (SPAA 2002), NBTC-transformed per Figure 2 of the Medley paper
// so that operations compose into Medley transactions.
//
// Keys are uint64 (the paper's microbenchmarks use 8-byte integer keys and
// values); values are generic. A put on an existing key replaces the node —
// marking the victim's next link with the replacement spliced behind it in
// a single linearizing CAS, exactly as in the paper's Figure 2.
package mhash

import "medley/internal/core"

// A link is the payload of a core.Word: the slab index of the node it
// leads to (0 for none) above Michael's logical-deletion mark in bit 0. One
// word holds both, as in the paper, so a marked node's link can no longer
// change: every CAS expects an unmarked link.
func link(i uint32) uint32    { return i << 1 }
func deleted(i uint32) uint32 { return i<<1 | 1 }
func target(l uint32) uint32  { return l >> 1 }
func isDeleted(l uint32) bool { return l&1 != 0 }

// node is a list cell. key and val are immutable while the node is linked;
// updates replace the node. Nodes live in the map's core.Slab and hold
// no pointer of their own: for V = uint64 a store is invisible to the
// collector.
//
// A node's index is retired at its successful physical unlink — never at
// the logical delete — so a recycled node is unreachable from the table,
// and any thread still holding its index from an earlier traversal is
// covered by the EBR grace period (core.Slots).
type node[V any] struct {
	key  uint64
	val  V
	next core.Word
}

// newNode takes a slot and fills it; next is Init'ed, which advances the
// counter a recycled slot's link carries.
func (m *Map[V]) newNode(tx *core.Tx, key uint64, val V, next uint32) uint32 {
	i := m.slab.Get(tx)
	n := m.slab.At(i)
	n.key = key
	n.val = val
	n.next.Init(next)
	return i
}

// findResult carries the postcondition of find: prev is the word whose
// payload is link(curr); curr is the first node with key >= the search key
// (0 at end of chain); next is curr's observed successor. prevWitness and
// currWitness are the read evidence for the loads of prev and curr.next.
type findResult struct {
	prev        *core.Word
	curr, next  uint32
	found       bool
	prevWitness core.ReadWitness
	currWitness core.ReadWitness
}

// find locates key from its bucket's head, unlinking marked nodes it passes
// (Michael's helping). Unlinks go through NbtcCAS with no lin/pub flags:
// outside a speculation interval they execute immediately as in the
// original algorithm; inside one (i.e., after this transaction has seen its
// own speculative value) they are treated as critical, which is the
// conservative instrumentation the paper describes.
func (m *Map[V]) find(tx *core.Tx, key uint64) findResult {
retry:
	for {
		prev := m.bucket(key)
		cl, prevW := prev.NbtcLoad(tx)
		curr := target(cl)
		for {
			if curr == 0 {
				return findResult{prev: prev, prevWitness: prevW}
			}
			cn := m.slab.At(curr)
			nl, currW := cn.next.NbtcLoad(tx)
			next := target(nl)
			if isDeleted(nl) {
				// curr is logically deleted; unlink it. Its successor may be
				// a replacement node carrying the same key. The unlinking
				// thread retires the node: commit-gated when the unlink is
				// critical, at once otherwise.
				if !prev.NbtcCAS(tx, link(curr), link(next), false, false) {
					continue retry
				}
				m.slab.Retire(tx, curr, tx.InSpeculation())
				curr = next
				continue
			}
			if cn.key >= key {
				return findResult{
					prev: prev, curr: curr, next: next,
					found:       cn.key == key,
					prevWitness: prevW, currWitness: currW,
				}
			}
			prev = &cn.next
			prevW = currW
			curr = next
		}
	}
}

// Get returns the value bound to key. Its linearizing load is the load of
// curr.next when the key is present (the word a committed replace or remove
// must change) and the load of prev when absent (the word an insert into
// the gap must change); the corresponding witness joins the read set.
func (m *Map[V]) Get(tx *core.Tx, key uint64) (V, bool) {
	tx.OpStart()
	r := m.find(tx, key)
	if r.found {
		tx.AddToReadSet(r.currWitness)
		return m.slab.At(r.curr).val, true
	}
	tx.AddToReadSet(r.prevWitness)
	var zero V
	return zero, false
}

// Contains reports whether key is present, with the same read evidence as
// Get.
func (m *Map[V]) Contains(tx *core.Tx, key uint64) bool {
	_, ok := m.Get(tx, key)
	return ok
}

// Put binds key to val, inserting or replacing. It returns the previous
// value, if any. The linearization point is a single CAS in both paths:
// marking the victim's next with the replacement spliced in (update), or
// linking the new node (insert).
//
// Outside a transaction Put takes its node whether it inserts or
// replaces, so it fills it first and, when key's bucket is empty, links
// it with the insert's own CAS of the head from empty, without a find:
// one CAS for a key a bulk load puts into an empty bucket.
func (m *Map[V]) Put(tx *core.Tx, key uint64, val V) (V, bool) {
	var nn uint32
	if !tx.InTx() {
		nn = m.slab.Get(tx)
	}
	return m.put(tx, key, val, nn)
}

// PutRun is a bare Put (Put outside any transaction) whose node is the
// next of run, a bulk loader's private run of never-used slots
// (core.Slab.Take); kv.ShardedStore.Load finds it through
// kv.RunPutter.
func (m *Map[V]) PutRun(run *core.SlotRun, key uint64, val V) {
	m.put(nil, key, val, m.slab.Take(run))
}

// put is Put with nn, unless 0, a slot of the bare operation's own that
// no thread can reach yet.
func (m *Map[V]) put(tx *core.Tx, key uint64, val V, nn uint32) (V, bool) {
	var zero V
	if nn != 0 {
		n := m.slab.At(nn)
		n.key = key
		n.val = val
		n.next.Init(0)
		if m.bucket(key).CAS(link(0), link(nn)) {
			return zero, false
		}
	}
	tx.OpStart()
	for {
		r := m.find(tx, key)
		if r.found {
			nn = m.prepare(tx, nn, key, val, link(r.next))
			cn := m.slab.At(r.curr)
			if cn.next.NbtcCAS(tx, link(r.next), deleted(nn), true, true) {
				// Unlink (and retire) the replaced node post-commit; if the
				// unlink CAS fails, a later find unlinks and retires it on
				// our behalf.
				core.DeferWordCAS(tx, r.prev, link(r.curr), link(nn), &m.slab.Slots, r.curr)
				return cn.val, true
			}
		} else {
			nn = m.prepare(tx, nn, key, val, link(r.curr))
			if r.prev.NbtcCAS(tx, link(r.curr), link(nn), true, true) {
				return zero, false
			}
		}
	}
}

// prepare fills (or re-targets, on a retried attempt) the operation's
// private not-yet-published node.
func (m *Map[V]) prepare(tx *core.Tx, n uint32, key uint64, val V, next uint32) uint32 {
	if n == 0 {
		return m.newNode(tx, key, val, next)
	}
	m.slab.At(n).next.Init(next)
	return n
}

// Insert adds key only if absent, returning false when the key already
// exists. A failed insert is a read-only outcome whose evidence is the
// observation of the existing node.
func (m *Map[V]) Insert(tx *core.Tx, key uint64, val V) bool {
	tx.OpStart()
	var nn uint32
	for {
		r := m.find(tx, key)
		if r.found {
			tx.AddToReadSet(r.currWitness)
			if nn != 0 {
				m.slab.Put(tx, nn) // never published: immediate reuse
			}
			return false
		}
		nn = m.prepare(tx, nn, key, val, link(r.curr))
		if r.prev.NbtcCAS(tx, link(r.curr), link(nn), true, true) {
			return true
		}
	}
}

// Remove deletes key, returning the removed value. A failed remove (key
// absent) is a read-only outcome witnessed on prev. The linearization point
// of a successful remove is the marking CAS on curr.next.
func (m *Map[V]) Remove(tx *core.Tx, key uint64) (V, bool) {
	tx.OpStart()
	for {
		r := m.find(tx, key)
		if !r.found {
			tx.AddToReadSet(r.prevWitness)
			var zero V
			return zero, false
		}
		cn := m.slab.At(r.curr)
		if cn.next.NbtcCAS(tx, link(r.next), deleted(r.next), true, true) {
			core.DeferWordCAS(tx, r.prev, link(r.curr), link(r.next), &m.slab.Slots, r.curr)
			return cn.val, true
		}
	}
}

// chainRange invokes fn over a non-linearizable snapshot of the unmarked
// nodes of the chain at head, in ascending key order, stopping (and
// returning false) if fn returns false.
func (m *Map[V]) chainRange(head *core.Word, fn func(key uint64, val V) bool) bool {
	for i := target(head.Load()); i != 0; {
		n := m.slab.At(i)
		nl := n.next.Load()
		if !isDeleted(nl) && !fn(n.key, n.val) {
			return false
		}
		i = target(nl)
	}
	return true
}
