// Package fraserskip implements Fraser's CAS-based lock-free skiplist
// (Practical Lock-Freedom, Cambridge 2003), NBTC-transformed for Medley.
//
// Linearization follows Fraser's design: an operation linearizes on a
// single CAS at the bottom (level-0) list — linking a node in (insert),
// marking a node's level-0 successor (remove), or marking with a spliced
// replacement (put on an existing key, the same trick as Michael's hash
// table in the paper's Figure 2). All index-level (level > 0) work is
// performance-only: towers are built and torn down post-linearization, so
// the NBTC transform defers them to post-commit cleanup, and readers treat
// the index as a hint that is repaired en passant.
//
// Nodes live in the list's core.Slab. A level-0 link is a core.Word, the
// transactional object, holding a slab index and the deletion mark; an
// index link is a plain atomic word of the same shape, since level 0
// decides every operation and no transaction ever needs to validate a
// hint. A node's index links live in a tower: a slot of one of four tower
// slabs, by height class, so the half of the nodes that stand one level
// high carry none.
//
// Reclamation follows Fraser's own rule: a node is retired only once no
// link at any level names it. The node's remover and its tower builder
// each flag their end of the node's life (built, dead); whichever comes
// second tears the tower down — marks each index link, then searches
// Harris-style, unlinking every marked node on the path at every level,
// level 0 included — and retires the node and its tower. A marked index
// link never changes, and nothing links to a node whose builder is done,
// so after that search nothing names the node, and its slot is reused
// after an EBR grace period by a Tx with an SMR handle (Tx.SetSMR). Every
// search walks the index the same way, never past a marked node and never
// down from one, so every hop, index levels included, stays inside the
// nodes its critical section protects.
package fraserskip

import (
	"math/bits"
	"math/rand/v2"
	"sync/atomic"

	"medley/internal/core"
)

// MaxLevel matches the paper's experimental configuration ("each skiplist
// has up to 20 levels").
const MaxLevel = 20

// A link — a level-0 Word's payload or an index link — is the slab index
// of the node it leads to (0 for none) above the deletion mark in bit 0.
// At level 0 the mark is Michael's logical deletion; at an index level it
// means the node is being torn down there. Every CAS expects an unmarked
// link, so a marked link no longer changes.
func link(i uint32) uint32    { return i << 1 }
func deleted(i uint32) uint32 { return i<<1 | 1 }
func target(l uint32) uint32  { return l >> 1 }
func isDeleted(l uint32) bool { return l&1 != 0 }

// A node's state holds its height above two flags: built, set once its
// tower builder is done, and dead, set once its removal has committed.
const (
	built      = 1
	dead       = 2
	stateShift = 2
)

// node is a skiplist node. key, val, height and tower are fixed while the
// node is linked at any level.
type node[V any] struct {
	key   uint64
	val   V
	next  core.Word     // level 0
	state atomic.Uint32 // height<<stateShift | dead | built
	tower uint32        // its slot in the tower slab of its height class
}

func (n *node[V]) height() int { return int(n.state.Load() >> stateShift) }

// flag sets flag f in n's state and returns the state it replaced. It is
// a CAS loop, not atomic.Uint32.Or: go1.24.0 compiled a value-returning Or
// here into code that clobbered the caller's receiver.
func (n *node[V]) flag(f uint32) uint32 {
	for {
		old := n.state.Load()
		if n.state.CompareAndSwap(old, old|f) {
			return old
		}
	}
}

// List is an NBTC-transformed Fraser skiplist mapping uint64 keys to V.
type List[V any] struct {
	head uint32 // sentinel, full height, key ignored
	mgr  *core.TxManager
	slab core.Slab[node[V]]

	// Towers by height class: a node of height h has h-1 index links,
	// links[l-1] at level l.
	t1  core.Slab[[1]atomic.Uint32]            // height 2
	t3  core.Slab[[3]atomic.Uint32]            // heights 3-4
	t7  core.Slab[[7]atomic.Uint32]            // heights 5-8
	t19 core.Slab[[MaxLevel - 1]atomic.Uint32] // heights 9-20 and the head
}

// New creates an empty skiplist attached to mgr.
func New[V any](mgr *core.TxManager) *List[V] {
	s := &List[V]{mgr: mgr}
	var zero V
	s.head = s.newNode(nil, 0, zero, MaxLevel, 0)
	return s
}

// Manager returns the TxManager this skiplist participates in.
func (s *List[V]) Manager() *core.TxManager { return s.mgr }

// randomLevel draws a geometric(1/2) height in [1, MaxLevel].
func randomLevel() int {
	return bits.TrailingZeros64(rand.Uint64()|1<<(MaxLevel-1)) + 1
}

// links is node n's index links.
func (s *List[V]) links(n *node[V]) []atomic.Uint32 {
	switch h := n.height(); {
	case h == 1:
		return nil
	case h == 2:
		return s.t1.At(n.tower)[:]
	case h <= 4:
		return s.t3.At(n.tower)[:h-1]
	case h <= 8:
		return s.t7.At(n.tower)[:h-1]
	default:
		return s.t19.At(n.tower)[:h-1]
	}
}

// towerSlots is the slots of the tower slab for height h.
func (s *List[V]) towerSlots(h int) *core.Slots {
	switch {
	case h == 2:
		return &s.t1.Slots
	case h <= 4:
		return &s.t3.Slots
	case h <= 8:
		return &s.t7.Slots
	default:
		return &s.t19.Slots
	}
}

// newNode takes a slot, and a tower for a node taller than one level, and
// fills them; Init advances the counter a recycled slot's link carries.
func (s *List[V]) newNode(tx *core.Tx, key uint64, val V, h int, next uint32) uint32 {
	i := s.slab.Get(tx)
	n := s.slab.At(i)
	n.key, n.val = key, val
	n.state.Store(uint32(h) << stateShift)
	switch {
	case h == 1:
		n.tower = 0
	case h == 2:
		n.tower = s.t1.Get(tx)
	case h <= 4:
		n.tower = s.t3.Get(tx)
	case h <= 8:
		n.tower = s.t7.Get(tx)
	default:
		n.tower = s.t19.Get(tx)
	}
	lks := s.links(n)
	for l := range lks {
		lks[l].Store(0)
	}
	n.next.Init(next)
	return i
}

// give returns node i, taken but never published, for immediate reuse.
func (s *List[V]) give(tx *core.Tx, i uint32) {
	if i == 0 {
		return
	}
	if n := s.slab.At(i); n.height() > 1 {
		s.towerSlots(n.height()).Put(tx, n.tower)
	}
	s.slab.Put(tx, i)
}

// searchResult is the postcondition of search at level 0: pred's link held
// {curr, unmarked}; curr is the first node with key >= the search key (0
// at the end). predW / currW witness the loads of pred's and curr's
// level-0 links.
type searchResult struct {
	pred, curr, next uint32
	found            bool
	predW, currW     core.ReadWitness
}

// descend walks the index levels from the head toward key, down to level
// stop, and returns the last node it passed — the head or a node keyed
// below key — and the node its link at level stop led to when read,
// unmarked: 0, or the first node there keyed key or above. A node whose
// link at a level is marked is being torn down there and is unlinked
// Harris-style — its predecessor's link swings to its successor — before
// the walk goes on; a walk never passes it, and never descends from one:
// where its own predecessor's link is marked it restarts from the head.
// So every node it reaches was linked at that level when reached (towers
// have no holes, and a level is unlinked only after it is marked, top
// down), which keeps each hop inside what the caller's critical section
// protects, and after a walk no link on its path names a marked node.
func (s *List[V]) descend(key uint64, stop int) (pred, succ uint32) {
restart:
	for {
		pred = s.head
		for l := MaxLevel - 1; l >= stop; l-- {
			lk := &s.links(s.slab.At(pred))[l-1]
			for {
				cl := lk.Load()
				if isDeleted(cl) {
					continue restart
				}
				succ = target(cl)
				if succ == 0 {
					break
				}
				cn := s.slab.At(succ)
				if nl := s.links(cn)[l-1].Load(); isDeleted(nl) {
					lk.CompareAndSwap(cl, link(target(nl)))
					continue
				}
				if cn.key >= key {
					break
				}
				pred, lk = succ, &s.links(cn)[l-1]
			}
		}
		return pred, succ
	}
}

// search locates key. The index descent hands the level-0 stage a
// starting predecessor, linked at level 1 when reached. The level-0 stage
// is exact Michael-style traversal (the same discipline as mhash, whose
// anchors — bucket heads — are immortal): whenever the inherited anchor
// proves stale (its link is marked, or an unlink CAS fails), the walk
// restarts from the list head at level 0, which is immortal and therefore
// always converges. All loads go through NbtcLoad so a transaction
// observes its own speculative links; helper unlinks go through NbtcCAS
// with no lin/pub flags. A node is retired by its teardown, not by
// whoever unlinks it here.
func (s *List[V]) search(tx *core.Tx, key uint64) searchResult {
	anchor, _ := s.descend(key, 1)
retry:
	for attempt := 0; ; attempt++ {
		prev := anchor
		if attempt > 0 {
			prev = s.head // inherited anchor proved stale: immortal restart
		}
		pn := s.slab.At(prev)
		cl, prevW := pn.next.NbtcLoad(tx)
		if isDeleted(cl) {
			continue // the anchor itself is deleted; never the head
		}
		curr := target(cl)
		for {
			if curr == 0 {
				return searchResult{pred: prev, predW: prevW}
			}
			cn := s.slab.At(curr)
			nl, currW := cn.next.NbtcLoad(tx)
			if isDeleted(nl) {
				if !pn.next.NbtcCAS(tx, link(curr), link(target(nl)), false, false) {
					continue retry // lost an unlink race: restart from the head
				}
				curr = target(nl)
				continue
			}
			if cn.key >= key {
				return searchResult{
					pred: prev, curr: curr, next: target(nl),
					found: cn.key == key,
					predW: prevW, currW: currW,
				}
			}
			prev, pn, prevW = curr, cn, currW
			curr = target(nl)
		}
	}
}

// Get returns the value bound to key; see mhash for the witness discipline
// (curr's level-0 link when present, pred's when absent).
func (s *List[V]) Get(tx *core.Tx, key uint64) (V, bool) {
	tx.OpStart()
	r := s.search(tx, key)
	if r.found {
		tx.AddToReadSet(r.currW)
		return s.slab.At(r.curr).val, true
	}
	tx.AddToReadSet(r.predW)
	var zero V
	return zero, false
}

// Contains reports presence with the same evidence as Get.
func (s *List[V]) Contains(tx *core.Tx, key uint64) bool {
	_, ok := s.Get(tx, key)
	return ok
}

// prepare fills (or re-targets, on a retried attempt) the operation's
// private not-yet-published node.
func (s *List[V]) prepare(tx *core.Tx, n uint32, key uint64, val V, next uint32) uint32 {
	if n == 0 {
		return s.newNode(tx, key, val, randomLevel(), next)
	}
	s.slab.At(n).next.Init(next)
	return n
}

// Put binds key to val, inserting or replacing; returns the prior value if
// any. One linearizing CAS on the level-0 list in either path.
func (s *List[V]) Put(tx *core.Tx, key uint64, val V) (V, bool) {
	tx.OpStart()
	var nn uint32
	for {
		r := s.search(tx, key)
		if r.found {
			nn = s.prepare(tx, nn, key, val, link(r.next))
			cn := s.slab.At(r.curr)
			if cn.next.NbtcCAS(tx, link(r.next), deleted(nn), true, true) {
				tx.Defer(s, nil, uint64(r.curr), uint64(nn))
				return cn.val, true
			}
		} else {
			nn = s.prepare(tx, nn, key, val, link(r.curr))
			if s.slab.At(r.pred).next.NbtcCAS(tx, link(r.curr), link(nn), true, true) {
				tx.Defer(s, nil, 0, uint64(nn))
				var zero V
				return zero, false
			}
		}
	}
}

// Insert adds key only if absent; a failed insert is a read-only outcome.
func (s *List[V]) Insert(tx *core.Tx, key uint64, val V) bool {
	tx.OpStart()
	var nn uint32
	for {
		r := s.search(tx, key)
		if r.found {
			tx.AddToReadSet(r.currW)
			s.give(tx, nn)
			return false
		}
		nn = s.prepare(tx, nn, key, val, link(r.curr))
		if s.slab.At(r.pred).next.NbtcCAS(tx, link(r.curr), link(nn), true, true) {
			tx.Defer(s, nil, 0, uint64(nn))
			return true
		}
	}
}

// Remove deletes key; the linearization point is the marking CAS on the
// victim's level-0 link.
func (s *List[V]) Remove(tx *core.Tx, key uint64) (V, bool) {
	tx.OpStart()
	for {
		r := s.search(tx, key)
		if !r.found {
			tx.AddToReadSet(r.predW)
			var zero V
			return zero, false
		}
		cn := s.slab.At(r.curr)
		if cn.next.NbtcCAS(tx, link(r.next), deleted(r.next), true, true) {
			tx.Defer(s, nil, uint64(r.curr), 0)
			return cn.val, true
		}
	}
}

// Cleanup is the core.Cleaner hook the list's updates defer, not for
// callers: it kills node victim (removed or replaced) and builds node n's
// tower (inserted); 0 names neither.
func (s *List[V]) Cleanup(tx *core.Tx, _ *core.Word, victim, n uint64) {
	if victim != 0 {
		s.kill(tx, uint32(victim))
	}
	if n != 0 {
		s.buildTower(tx, uint32(n))
	}
}

// kill is post-commit cleanup for a removed or replaced node: flag it dead,
// and tear it down if its builder is done.
func (s *List[V]) kill(tx *core.Tx, i uint32) {
	if s.slab.At(i).flag(dead)&built != 0 {
		s.teardown(tx, i)
	}
}

// buildTower links a committed node into index levels 1..height-1, bottom
// up, then flags it built, tearing it down if it died meanwhile. Purely
// performance work: the first level it fails to link in four attempts
// ends the tower there, so a node linked at a level is linked at every
// level below it.
func (s *List[V]) buildTower(tx *core.Tx, i uint32) {
	n := s.slab.At(i)
	lks := s.links(n)
build:
	for l := 1; l <= len(lks); l++ {
		for attempt := 0; ; attempt++ {
			if attempt == 4 || n.state.Load()&dead != 0 {
				break build
			}
			pred, succ, ok := s.indexPosition(l, n.key)
			if !ok {
				break build
			}
			lks[l-1].Store(link(succ)) // nobody reaches n at level l yet
			if s.links(s.slab.At(pred))[l-1].CompareAndSwap(link(succ), link(i)) {
				break
			}
		}
	}
	if n.flag(built)&dead != 0 {
		s.teardown(tx, i)
	}
}

// teardown retires node i, dead and built: it marks the tower's links top
// down, unlinks the node at every level with a descent and a level-0
// search, and retires the node and its tower. Nothing links to a node
// whose builder is done, a marked link never changes, and a swing past a
// marked node only ever reaches its successor, so after the search no link
// at any level names the node.
func (s *List[V]) teardown(tx *core.Tx, i uint32) {
	n := s.slab.At(i)
	lks := s.links(n)
	for l := len(lks) - 1; l >= 0; l-- {
		for {
			x := lks[l].Load()
			if isDeleted(x) || lks[l].CompareAndSwap(x, x|1) {
				break
			}
		}
	}
	s.search(tx, n.key) // outside any transaction: unlinks marked nodes at once
	if h := n.height(); h > 1 {
		s.towerSlots(h).Retire(tx, n.tower, false)
	}
	s.slab.Retire(tx, i, false)
}

// indexPosition finds (pred, succ) for key at index level l: succ is what
// pred's link held when the walk read it, so a CAS expecting it links a
// node in key order (a fresh load could return a node inserted since,
// keyed below key). It reports false if a node with the SAME key occupies
// the position. The same-key refusal is load-bearing: it keeps every index link strictly
// key-increasing, so no cycle can ever form even when the tower builds of
// a replaced node and its replacement race (a same-key back-link between
// the two would otherwise wedge search forever), and a teardown's descent
// meets its node wherever it is linked.
func (s *List[V]) indexPosition(l int, key uint64) (pred, succ uint32, ok bool) {
	pred, succ = s.descend(key, l)
	if succ != 0 && s.slab.At(succ).key == key {
		return 0, 0, false
	}
	return pred, succ, true
}

// Len counts unmarked level-0 nodes; not linearizable, for tests.
func (s *List[V]) Len() int {
	n := 0
	s.Range(func(uint64, V) bool { n++; return true })
	return n
}

// Range iterates a non-linearizable ascending snapshot; for tests.
func (s *List[V]) Range(fn func(key uint64, val V) bool) {
	for c := target(s.slab.At(s.head).next.Load()); c != 0; {
		n := s.slab.At(c)
		nl := n.next.Load()
		if !isDeleted(nl) && !fn(n.key, n.val) {
			return
		}
		c = target(nl)
	}
}
