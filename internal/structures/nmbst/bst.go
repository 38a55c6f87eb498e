// Package nmbst implements an NBTC-transformed lock-free external binary
// search tree in the style of Natarajan & Mittal (PPoPP 2014): an
// edge-based design in which deletion first flags the edge to the victim
// leaf, then freezes the sibling edge with a tag, and finally splices the
// sibling up to the grandparent.
//
// The BST is the paper's example of an operation with a distinct
// publication point: the flag CAS makes the deletion visible (other
// updaters may help complete it) before the splice CAS linearizes it. Under
// NBTC the speculation interval therefore spans from the flag (pubPt) to
// the splice (linPt), and all three CASes of a deletion commit atomically
// with the rest of the transaction.
//
// Like the original, the tree is leaf-oriented: internal nodes route, keys
// live in leaves, and every internal node has exactly two children. Nodes
// live in the tree's core.Slab and an edge is a core.Word, whose payload
// packs the child's slab index with the flag and tag bits as the original
// packs them into a pointer. A node the tree unlinks is reused after an EBR
// grace period by a Tx with an SMR handle (Tx.SetSMR), and never by one
// without.
package nmbst

import (
	"medley/internal/core"
)

// Key-space sentinels, mirroring the inf0/inf1/inf2 construction of the
// original: user keys must be at most MaxKey.
const (
	inf0 = ^uint64(0) - 2
	inf1 = ^uint64(0) - 1
	inf2 = ^uint64(0)
	// MaxKey is the largest user key the tree accepts.
	MaxKey = inf0 - 1
)

// An edge is the payload of a child Word: the slab index of the node it
// leads to above two protocol bits. flag marks an edge to a leaf being
// deleted; tag freezes a sibling edge while its subtree is spliced up.
// Every CAS that moves an edge expects it clean, so a flagged or tagged
// edge no longer changes.
const (
	tagBit  = 1
	flagBit = 2
)

func edgeTo(i uint32) uint32 { return i << 2 }
func target(e uint32) uint32 { return e >> 2 }
func flagged(e uint32) bool  { return e&flagBit != 0 }
func tagged(e uint32) bool   { return e&tagBit != 0 }

// node is a tree node. key, val and internal are fixed while the node is
// linked; only an internal node's edges are ever loaded or CAS'd.
//
// A node's index is retired when the operation that unlinks it succeeds —
// a replace its old leaf, a delete its leaf and that leaf's parent — and,
// inside a transaction, only if the transaction commits.
type node[V any] struct {
	key         uint64
	val         V
	internal    bool
	left, right core.Word
}

func (n *node[V]) child(k uint64) *core.Word {
	if k < n.key {
		return &n.left
	}
	return &n.right
}

// Tree is an NBTC-transformed external BST mapping uint64 keys (≤ MaxKey)
// to V.
type Tree[V any] struct {
	root uint32
	mgr  *core.TxManager
	slab core.Slab[node[V]]
}

// New creates an empty tree attached to mgr.
func New[V any](mgr *core.TxManager) *Tree[V] {
	t := &Tree[V]{mgr: mgr}
	var zero V
	leaf := func(k uint64) uint32 { return edgeTo(t.set(t.slab.Get(nil), k, zero, false, 0, 0)) }
	s := t.set(t.slab.Get(nil), inf1, zero, true, leaf(inf0), leaf(inf1))
	t.root = t.set(t.slab.Get(nil), inf2, zero, true, edgeTo(s), leaf(inf2))
	return t
}

// Manager returns the TxManager this tree participates in.
func (t *Tree[V]) Manager() *core.TxManager { return t.mgr }

// set fills node i, which no other thread can reach, and returns i. Init
// advances the counters a recycled node's edges carry, so no witness of
// its previous life validates.
func (t *Tree[V]) set(i uint32, key uint64, val V, internal bool, left, right uint32) uint32 {
	n := t.slab.At(i)
	n.key, n.val, n.internal = key, val, internal
	n.left.Init(left)
	n.right.Init(right)
	return i
}

// give returns node i, taken but never published, for immediate reuse.
func (t *Tree[V]) give(tx *core.Tx, i uint32) {
	if i != 0 {
		t.slab.Put(tx, i)
	}
}

// seekResult is the position of key: gp --gpEdge--> p --pEdge--> leaf, with
// the edges observed on gpEdge and pEdge and the witnessed load of pEdge
// (the linearizing load of read-only outcomes). gpEdge is nil when p is
// the root.
type seekResult struct {
	gpEdge *core.Word
	gpVal  uint32
	p      uint32
	pEdge  *core.Word
	pVal   uint32
	leaf   uint32
	pW     core.ReadWitness
	found  bool
}

// seek descends from the root to the leaf governing key, helping any
// foreign pending deletion it encounters (flagged or tagged edges), except
// a deletion identified by (ownP, ownLeaf), which belongs to the calling
// operation itself.
func (t *Tree[V]) seek(tx *core.Tx, key uint64, ownP, ownLeaf uint32) seekResult {
	for {
		r := seekResult{leaf: t.root}
		for n := t.slab.At(r.leaf); n.internal; n = t.slab.At(r.leaf) {
			r.gpEdge, r.gpVal = r.pEdge, r.pVal
			r.p, r.pEdge = r.leaf, n.child(key)
			r.pVal, r.pW = r.pEdge.NbtcLoad(tx)
			r.leaf = target(r.pVal)
		}
		if (flagged(r.pVal) || tagged(r.pVal)) && !(r.p == ownP && r.leaf == ownLeaf) {
			// A foreign deletion is pending at our destination; help it
			// finish and retry. (Tagged leaf edges occur transiently when
			// the sibling of a pending delete is itself a leaf.)
			if flagged(r.pVal) {
				t.helpDelete(tx, r.gpEdge, r.p, r.leaf)
			} else {
				t.helpTagged(tx, r.gpEdge, r.gpVal)
			}
			continue
		}
		r.found = t.slab.At(r.leaf).key == key
		return r
	}
}

// helpDelete completes a deletion whose flag is set on p's edge to leaf:
// freeze p's other edge with a tag, then splice the sibling into gp. Safe
// to run concurrently by any number of helpers; every CAS tolerates having
// already been done.
func (t *Tree[V]) helpDelete(tx *core.Tx, gpEdge *core.Word, p, leaf uint32) {
	if gpEdge == nil {
		return // flags directly under the root never happen: sentinels are never deleted
	}
	sv := freeze(tx, t.sibling(tx, p, leaf))
	// Splice: gp's edge to p becomes an edge to the frozen sibling.
	gpEdge.NbtcCAS(tx, edgeTo(p), edgeTo(target(sv)), false, false)
}

// helpTagged resolves an encountered tagged edge by re-running the
// deletion that owns it: the tag's owner flagged p's other edge, so locate
// that flag and help. gpEdge/gpVal address the tagged edge's parent edge.
func (t *Tree[V]) helpTagged(tx *core.Tx, gpEdge *core.Word, gpVal uint32) {
	p := target(gpVal)
	n := t.slab.At(p)
	if !n.internal {
		return // also p == 0: node 0 is never linked, so never internal
	}
	for _, e := range [2]*core.Word{&n.left, &n.right} {
		if v, _ := e.NbtcLoad(tx); flagged(v) && target(v) != 0 && !t.slab.At(target(v)).internal {
			t.helpDelete(tx, gpEdge, p, target(v))
			return
		}
	}
}

// sibling is p's edge that does not lead to leaf, reading through any
// installed descriptors.
func (t *Tree[V]) sibling(tx *core.Tx, p, leaf uint32) *core.Word {
	n := t.slab.At(p)
	if l, _ := n.left.NbtcLoad(tx); target(l) == leaf {
		return &n.right
	}
	return &n.left
}

// freeze tags the sibling edge e if it is clean — a flag (a competing
// deletion of the sibling leaf) freezes it just as well — and returns the
// frozen edge.
func freeze(tx *core.Tx, e *core.Word) uint32 {
	for {
		v, _ := e.NbtcLoad(tx)
		if flagged(v) || tagged(v) {
			return v
		}
		if e.NbtcCAS(tx, v, v|tagBit, false, false) {
			return v | tagBit
		}
	}
}

// Get returns the value bound to key; the witnessed load of the leaf edge
// is the linearization point (a committed replace or delete of that leaf
// must change the edge, and an insert of key must replace it with an
// internal node).
func (t *Tree[V]) Get(tx *core.Tx, key uint64) (V, bool) {
	tx.OpStart()
	r := t.seek(tx, key, 0, 0)
	tx.AddToReadSet(r.pW)
	if r.found {
		return t.slab.At(r.leaf).val, true
	}
	var zero V
	return zero, false
}

// Contains reports presence with the same evidence as Get.
func (t *Tree[V]) Contains(tx *core.Tx, key uint64) bool {
	_, ok := t.Get(tx, key)
	return ok
}

// Put binds key to val, inserting or replacing; one linearizing CAS on the
// leaf edge in either path. The new leaf, and the internal node an insert
// adds, are kept across attempts and given back if unused.
func (t *Tree[V]) Put(tx *core.Tx, key uint64, val V) (V, bool) {
	tx.OpStart()
	var nl, in uint32
	for {
		r := t.seek(tx, key, 0, 0)
		if nl == 0 {
			nl = t.set(t.slab.Get(tx), key, val, false, 0, 0)
		}
		if r.found {
			old := t.slab.At(r.leaf).val
			if r.pEdge.NbtcCAS(tx, edgeTo(r.leaf), edgeTo(nl), true, true) {
				// The replaced leaf is unreachable the moment the edge CAS
				// takes effect: at commit, inside a transaction.
				t.slab.Retire(tx, r.leaf, true)
				t.give(tx, in)
				return old, true
			}
			continue
		}
		if in == 0 {
			in = t.slab.Get(tx)
		}
		if t.insertAt(tx, r, key, nl, in) {
			var zero V
			return zero, false
		}
	}
}

// Insert adds key only if absent; a failed insert is a read-only outcome.
func (t *Tree[V]) Insert(tx *core.Tx, key uint64, val V) bool {
	tx.OpStart()
	var nl, in uint32
	for {
		r := t.seek(tx, key, 0, 0)
		if r.found {
			tx.AddToReadSet(r.pW)
			t.give(tx, nl)
			t.give(tx, in)
			return false
		}
		if nl == 0 {
			nl = t.set(t.slab.Get(tx), key, val, false, 0, 0)
			in = t.slab.Get(tx)
		}
		if t.insertAt(tx, r, key, nl, in) {
			return true
		}
	}
}

// insertAt replaces the reached leaf with internal node in, holding the old
// leaf and the new leaf nl in key order.
func (t *Tree[V]) insertAt(tx *core.Tx, r seekResult, key uint64, nl, in uint32) bool {
	var zero V
	if lk := t.slab.At(r.leaf).key; key < lk {
		t.set(in, lk, zero, true, edgeTo(nl), edgeTo(r.leaf))
	} else {
		t.set(in, key, zero, true, edgeTo(r.leaf), edgeTo(nl))
	}
	return r.pEdge.NbtcCAS(tx, edgeTo(r.leaf), edgeTo(in), true, true)
}

// Remove deletes key. Protocol: flag the leaf edge (publication point),
// freeze the sibling edge with a tag, splice the sibling into the
// grandparent (linearization point). All three CASes are critical inside a
// transaction and commit together.
func (t *Tree[V]) Remove(tx *core.Tx, key uint64) (V, bool) {
	tx.OpStart()
	var ownP, ownLeaf uint32
	var val V
	for {
		r := t.seek(tx, key, ownP, ownLeaf)
		if ownP == 0 {
			if !r.found {
				tx.AddToReadSet(r.pW)
				var zero V
				return zero, false
			}
			val = t.slab.At(r.leaf).val
			// Publication point: flag the edge to the victim leaf.
			if !r.pEdge.NbtcCAS(tx, edgeTo(r.leaf), edgeTo(r.leaf)|flagBit, false, true) {
				continue
			}
			ownP, ownLeaf = r.p, r.leaf
		} else if r.p != ownP || r.leaf != ownLeaf {
			// Our flagged leaf is no longer where we left it: some other
			// thread restructured around our flag (only possible outside a
			// transaction, where the flag is immediately visible). Nothing
			// is retired here — a racing deletion of the sibling leaf can
			// splice OUR flagged leaf up to the grandparent (dropping the
			// flag), in which case ownLeaf is still reachable and ownP was
			// retired by that racer; neither index is ever reused by us.
			return val, true
		}
		// Freeze the sibling edge, then splice (linearization point).
		sv := freeze(tx, t.sibling(tx, ownP, ownLeaf))
		if r.gpEdge.NbtcCAS(tx, edgeTo(ownP), edgeTo(target(sv)), true, true) {
			// The splice detaches both the victim leaf and its parent; the
			// leaf stays reachable only through the parent's frozen edge, so
			// they retire together, at commit inside a transaction.
			t.slab.Retire(tx, ownP, true)
			t.slab.Retire(tx, ownLeaf, true)
			return val, true
		}
		// Splice failed: the grandparent edge changed (e.g., another
		// deletion restructured above us). Re-seek and retry; the flag
		// keeps our victim frozen.
	}
}

// Len counts leaves with user keys; not linearizable, for tests.
func (t *Tree[V]) Len() int {
	n := 0
	t.Range(func(uint64, V) bool { n++; return true })
	return n
}

// Range iterates a non-linearizable snapshot of user entries in key order;
// for tests.
func (t *Tree[V]) Range(fn func(key uint64, val V) bool) {
	var walk func(i uint32) bool
	walk = func(i uint32) bool {
		n := t.slab.At(i)
		if !n.internal {
			return n.key > MaxKey || fn(n.key, n.val)
		}
		return walk(target(n.left.Load())) && walk(target(n.right.Load()))
	}
	walk(t.root)
}
