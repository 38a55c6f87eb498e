// Package rotatingskip implements an NBTC-transformed variant of the
// rotating skiplist of Dick, Fekete and Gramoli (CCPE 2016).
//
// The defining property of the rotating skiplist — and the one that makes
// its NBTC transform trivial once the data level is transformed — is that
// no CAS is ever performed on index levels: all synchronization happens on
// the bottom-level linked list, while the index is maintained by background
// "rotation" work that readers treat purely as a hint. We preserve exactly
// that split: the data level is a Michael-style lock-free sorted list with
// the same immediately identifiable linearization points as mhash, and the
// index is an immutable sorted sample of the list, rebuilt off the critical
// path (amortized by update count, or by a background maintenance goroutine
// standing in for the original's wheel rotation). Searches binary-search
// the index for a starting hint and fall back to the list head whenever
// the hint has died.
//
// Nodes live in the list's core.Slab and a link is a core.Word holding a
// slab index and Michael's mark, as in mhash; whoever unlinks a node
// retires it, and its index is reused after an EBR grace period by a Tx
// with an SMR handle (Tx.SetSMR). The index snapshot outlives any grace
// period, so an entry may name a slot that has since been reused: an
// entry records the incarnation of the node it sampled, and a search takes
// it as its start only if that incarnation is still the slot's after it
// has loaded the node's level-0 link unmarked (see startFrom).
package rotatingskip

import (
	"sort"
	"sync/atomic"
	"time"

	"medley/internal/core"
)

// A link is the payload of a core.Word: the slab index of the node it
// leads to (0 for none) above Michael's logical-deletion mark in bit 0.
func link(i uint32) uint32    { return i << 1 }
func deleted(i uint32) uint32 { return i<<1 | 1 }
func target(l uint32) uint32  { return l >> 1 }
func isDeleted(l uint32) bool { return l&1 != 0 }

// node is a list node. key and val are fixed while the node is linked. inc
// is the slot's incarnation: advanced each time the slot is handed out,
// before anything else of the node is written.
type node[V any] struct {
	key  uint64
	val  V
	inc  atomic.Uint32
	next core.Word
}

// indexEntry samples one live node at rebuild time: its key, its slot and
// the slot's incarnation then.
type indexEntry struct {
	key      uint64
	idx, inc uint32
}

// List is an NBTC-transformed rotating skiplist mapping uint64 keys to V.
type List[V any] struct {
	head core.Word
	mgr  *core.TxManager
	slab core.Slab[node[V]]

	index       atomic.Pointer[[]indexEntry]
	updates     atomic.Uint64 // modifications since last rebuild
	rebuildMask uint64        // rebuild when updates & mask == 0
	sampleEvery int
}

// New creates an empty list attached to mgr. The index is resampled every
// 256 updates, taking every 8th node, mirroring the density of a two-level
// skiplist wheel.
func New[V any](mgr *core.TxManager) *List[V] {
	l := &List[V]{mgr: mgr, rebuildMask: 255, sampleEvery: 8}
	empty := make([]indexEntry, 0)
	l.index.Store(&empty)
	return l
}

// Manager returns the TxManager this list participates in.
func (l *List[V]) Manager() *core.TxManager { return l.mgr }

// StartGuardedMaintenance launches a background goroutine that rebuilds
// the index every interval, standing in for the rotating skiplist's
// background wheel rotation, each rebuild wrapped in guard. A rebuild
// traverses nodes that concurrent transactions unlink and recycle, so it
// must hold a critical section of the EBR domain they retire into: guard
// brackets the call with an ebr.Handle's Enter/Exit. The returned stop
// function terminates the goroutine.
func (l *List[V]) StartGuardedMaintenance(interval time.Duration, guard func(func())) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				guard(l.Maintain)
			}
		}
	}()
	return func() { close(done) }
}

// Maintain rebuilds the index snapshot immediately. The caller holds an
// EBR critical section, as for any operation.
func (l *List[V]) Maintain() {
	var idx []indexEntry
	i := 0
	for c := target(l.head.Load()); c != 0; {
		n := l.slab.At(c)
		nl := n.next.Load()
		if !isDeleted(nl) {
			if i%l.sampleEvery == 0 {
				idx = append(idx, indexEntry{key: n.key, idx: c, inc: n.inc.Load()})
			}
			i++
		}
		c = target(nl)
	}
	l.index.Store(&idx)
}

// Cleanup is the core.Cleaner hook each update defers, not for callers: it
// counts a modification and amortizes index rebuilds.
func (l *List[V]) Cleanup(*core.Tx, *core.Word, uint64, uint64) {
	if l.updates.Add(1)&l.rebuildMask == 0 {
		l.Maintain()
	}
}

// newNode takes a slot and fills it: the incarnation first, so a search
// holding a stale entry for the slot sees the change before it can see
// any link of the new life (startFrom); Init advances the counter a
// recycled slot's link carries.
func (l *List[V]) newNode(tx *core.Tx, key uint64, val V, next uint32) uint32 {
	i := l.slab.Get(tx)
	n := l.slab.At(i)
	n.inc.Add(1)
	n.key = key
	n.val = val
	n.next.Init(next)
	return i
}

// startFrom picks the index hint: the Word to begin the level-0 search at.
// An entry is taken only if its node is the one sampled and still live:
// the slot's incarnation is the entry's before and after its link loads
// unmarked. Then the node was in the list at that load — the sampled
// incarnation was, and a node leaves only after its mark — so it is as
// good a start as any node a traversal reaches, and the caller's critical
// section keeps it from reuse from then on. A stale or dead entry falls
// back toward earlier entries and finally the head. The load goes through
// NbtcLoad, so a transaction's own speculative links are read rather than
// finalized.
func (l *List[V]) startFrom(tx *core.Tx, key uint64) *core.Word {
	idx := *l.index.Load()
	// Largest sampled key strictly below key (strictly, so the hint node
	// itself may be unlinked without hiding key).
	i := sort.Search(len(idx), func(i int) bool { return idx[i].key >= key })
	for i--; i >= 0; i-- {
		e := &idx[i]
		n := l.slab.At(e.idx)
		if n.inc.Load() != e.inc {
			continue
		}
		if nl, _ := n.next.NbtcLoad(tx); !isDeleted(nl) && n.inc.Load() == e.inc {
			return &n.next
		}
	}
	return &l.head
}

type findResult struct {
	prev       *core.Word
	curr, next uint32
	found      bool
	prevW      core.ReadWitness
	currW      core.ReadWitness
}

// find runs the Michael-style mark-aware search from the index hint,
// unlinking marked nodes it passes; the unlinking thread retires the node,
// commit-gated when the unlink is critical.
func (l *List[V]) find(tx *core.Tx, key uint64) findResult {
	start := l.startFrom(tx, key)
retry:
	for {
		prev := start
		cl, prevW := prev.NbtcLoad(tx)
		if isDeleted(cl) {
			// The hint died between selection and load; restart from head.
			start = &l.head
			continue retry
		}
		curr := target(cl)
		for {
			if curr == 0 {
				return findResult{prev: prev, prevW: prevW}
			}
			cn := l.slab.At(curr)
			nl, currW := cn.next.NbtcLoad(tx)
			next := target(nl)
			if isDeleted(nl) {
				if !prev.NbtcCAS(tx, link(curr), link(next), false, false) {
					continue retry
				}
				l.slab.Retire(tx, curr, tx.InSpeculation())
				curr = next
				continue
			}
			if cn.key >= key {
				return findResult{
					prev: prev, curr: curr, next: next,
					found: cn.key == key,
					prevW: prevW, currW: currW,
				}
			}
			prev = &cn.next
			prevW = currW
			curr = next
		}
	}
}

// Get returns the value bound to key (witness discipline as in mhash).
func (l *List[V]) Get(tx *core.Tx, key uint64) (V, bool) {
	tx.OpStart()
	r := l.find(tx, key)
	if r.found {
		tx.AddToReadSet(r.currW)
		return l.slab.At(r.curr).val, true
	}
	tx.AddToReadSet(r.prevW)
	var zero V
	return zero, false
}

// Contains reports presence with the same evidence as Get.
func (l *List[V]) Contains(tx *core.Tx, key uint64) bool {
	_, ok := l.Get(tx, key)
	return ok
}

// prepare fills (or re-targets, on a retried attempt) the operation's
// private not-yet-published node.
func (l *List[V]) prepare(tx *core.Tx, n uint32, key uint64, val V, next uint32) uint32 {
	if n == 0 {
		return l.newNode(tx, key, val, next)
	}
	l.slab.At(n).next.Init(next)
	return n
}

// Put binds key to val, inserting or replacing: one linearizing CAS on the
// list in either path, marking the victim's link with the replacement
// spliced behind it on update.
func (l *List[V]) Put(tx *core.Tx, key uint64, val V) (V, bool) {
	tx.OpStart()
	var nn uint32
	for {
		r := l.find(tx, key)
		if r.found {
			nn = l.prepare(tx, nn, key, val, link(r.next))
			cn := l.slab.At(r.curr)
			if cn.next.NbtcCAS(tx, link(r.next), deleted(nn), true, true) {
				// Unlink (and retire) the replaced node post-commit; if the
				// unlink CAS fails, a later find unlinks and retires it.
				core.DeferWordCAS(tx, r.prev, link(r.curr), link(nn), &l.slab.Slots, r.curr)
				tx.Defer(l, nil, 0, 0)
				return cn.val, true
			}
		} else {
			nn = l.prepare(tx, nn, key, val, link(r.curr))
			if r.prev.NbtcCAS(tx, link(r.curr), link(nn), true, true) {
				tx.Defer(l, nil, 0, 0)
				var zero V
				return zero, false
			}
		}
	}
}

// Insert adds key only if absent.
func (l *List[V]) Insert(tx *core.Tx, key uint64, val V) bool {
	tx.OpStart()
	var nn uint32
	for {
		r := l.find(tx, key)
		if r.found {
			tx.AddToReadSet(r.currW)
			if nn != 0 {
				l.slab.Put(tx, nn) // never published: immediate reuse
			}
			return false
		}
		nn = l.prepare(tx, nn, key, val, link(r.curr))
		if r.prev.NbtcCAS(tx, link(r.curr), link(nn), true, true) {
			tx.Defer(l, nil, 0, 0)
			return true
		}
	}
}

// Remove deletes key; the linearization point is the marking CAS.
func (l *List[V]) Remove(tx *core.Tx, key uint64) (V, bool) {
	tx.OpStart()
	for {
		r := l.find(tx, key)
		if !r.found {
			tx.AddToReadSet(r.prevW)
			var zero V
			return zero, false
		}
		cn := l.slab.At(r.curr)
		if cn.next.NbtcCAS(tx, link(r.next), deleted(r.next), true, true) {
			core.DeferWordCAS(tx, r.prev, link(r.curr), link(r.next), &l.slab.Slots, r.curr)
			tx.Defer(l, nil, 0, 0)
			return cn.val, true
		}
	}
}

// Len counts unmarked nodes; not linearizable, for tests.
func (l *List[V]) Len() int {
	n := 0
	l.Range(func(uint64, V) bool { n++; return true })
	return n
}

// Range iterates a non-linearizable ascending snapshot; for tests.
func (l *List[V]) Range(fn func(key uint64, val V) bool) {
	for c := target(l.head.Load()); c != 0; {
		n := l.slab.At(c)
		nl := n.next.Load()
		if !isDeleted(nl) && !fn(n.key, n.val) {
			return
		}
		c = target(nl)
	}
}
