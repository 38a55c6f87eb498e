// Package plainskip is Fraser's CAS-based lock-free skiplist WITHOUT the
// NBTC transform: the "Original" baseline of the paper's Figure 10 latency
// study. It shares the algorithmic skeleton of internal/structures/
// fraserskip but has no transactional instrumentation whatsoever — no
// witnesses, no speculation tracking, no Tx parameter — so the latency gap
// between the two isolates the cost of the transform itself.
//
// Note for readers comparing against the paper: in C++ the transform's raw
// cost is widening every CAS word to 128 bits; in this Go port the plain
// structure links pointers to immutable {node, mark} refs (the idiomatic
// GC-safe design), and the transformed one links 32-bit slab indexes in
// one-word core.Words, so the measured gap is the NBTC bookkeeping net of
// the transformed structure's cheaper links.
package plainskip

import (
	"math/bits"
	"math/rand/v2"
	"sync/atomic"
)

const maxLevel = 20

// ref is a link: successor plus logical-deletion mark, immutable.
type ref[V any] struct {
	node *node[V]
	mark bool
}

type node[V any] struct {
	key  uint64
	val  V
	lvl  int
	dead atomic.Bool
	next []atomic.Pointer[ref[V]]
}

func (n *node[V]) load(l int) ref[V] {
	p := n.next[l].Load()
	if p == nil {
		return ref[V]{}
	}
	return *p
}

func (n *node[V]) cas(l int, old, new ref[V]) bool {
	cur := n.next[l].Load()
	if cur == nil {
		var zero ref[V]
		if old != zero {
			return false
		}
		return n.next[l].CompareAndSwap(nil, &new)
	}
	if *cur != old {
		return false
	}
	return n.next[l].CompareAndSwap(cur, &new)
}

// List is a plain lock-free skiplist mapping uint64 keys to V.
type List[V any] struct {
	head *node[V]
}

// New creates an empty skiplist.
func New[V any]() *List[V] {
	return &List[V]{head: &node[V]{lvl: maxLevel, next: make([]atomic.Pointer[ref[V]], maxLevel)}}
}

func randomLevel() int {
	return bits.TrailingZeros64(rand.Uint64()|1<<(maxLevel-1)) + 1
}

type pos[V any] struct {
	pred, curr, next *node[V]
	found            bool
}

func (s *List[V]) search(key uint64) pos[V] {
	pred := s.head
	// Best-effort index descent (one repair attempt per dead tower; level 0
	// is authoritative).
	for l := maxLevel - 1; l >= 1; l-- {
		for {
			cr := pred.load(l)
			c := cr.node
			if c == nil {
				break
			}
			if c.dead.Load() || c.load(0).mark {
				sr := c.load(l)
				if pred.cas(l, ref[V]{c, false}, ref[V]{sr.node, false}) {
					continue
				}
			}
			if c.key < key {
				pred = c
				continue
			}
			break
		}
	}
	// Exact level-0 stage; stale anchors restart from the immortal head.
	for attempt := 0; ; attempt++ {
		prev := pred
		if attempt > 0 {
			prev = s.head
		}
		cr := prev.load(0)
		if cr.mark {
			continue
		}
		curr := cr.node
		ok := true
		for ok {
			if curr == nil {
				return pos[V]{pred: prev}
			}
			nr := curr.load(0)
			if nr.mark {
				if prev.cas(0, ref[V]{curr, false}, ref[V]{nr.node, false}) {
					curr = nr.node
					continue
				}
				ok = false
				break
			}
			if curr.key >= key {
				return pos[V]{pred: prev, curr: curr, next: nr.node, found: curr.key == key}
			}
			prev = curr
			curr = nr.node
		}
	}
}

// Get returns the value bound to key.
func (s *List[V]) Get(key uint64) (V, bool) {
	r := s.search(key)
	if r.found {
		return r.curr.val, true
	}
	var zero V
	return zero, false
}

// Put binds key to val, inserting or replacing.
func (s *List[V]) Put(key uint64, val V) (V, bool) {
	n := &node[V]{key: key, val: val, lvl: randomLevel()}
	n.next = make([]atomic.Pointer[ref[V]], n.lvl)
	for {
		r := s.search(key)
		if r.found {
			n.next[0].Store(&ref[V]{r.next, false})
			if r.curr.cas(0, ref[V]{r.next, false}, ref[V]{n, true}) {
				r.curr.dead.Store(true)
				s.search(key)
				s.buildTower(n, key)
				return r.curr.val, true
			}
		} else {
			n.next[0].Store(&ref[V]{r.curr, false})
			if r.pred.cas(0, ref[V]{r.curr, false}, ref[V]{n, false}) {
				s.buildTower(n, key)
				var zero V
				return zero, false
			}
		}
	}
}

// Insert adds key only if absent.
func (s *List[V]) Insert(key uint64, val V) bool {
	n := &node[V]{key: key, val: val, lvl: randomLevel()}
	n.next = make([]atomic.Pointer[ref[V]], n.lvl)
	for {
		r := s.search(key)
		if r.found {
			return false
		}
		n.next[0].Store(&ref[V]{r.curr, false})
		if r.pred.cas(0, ref[V]{r.curr, false}, ref[V]{n, false}) {
			s.buildTower(n, key)
			return true
		}
	}
}

// Remove deletes key.
func (s *List[V]) Remove(key uint64) (V, bool) {
	for {
		r := s.search(key)
		if !r.found {
			var zero V
			return zero, false
		}
		if r.curr.cas(0, ref[V]{r.next, false}, ref[V]{r.next, true}) {
			r.curr.dead.Store(true)
			s.search(key)
			return r.curr.val, true
		}
	}
}

func (s *List[V]) buildTower(n *node[V], key uint64) {
	for l := 1; l < n.lvl; l++ {
		for attempt := 0; attempt < 4; attempt++ {
			if n.dead.Load() {
				return
			}
			pred, succ := s.indexPosition(l, key, n)
			if pred == nil {
				break
			}
			n.next[l].Store(&ref[V]{succ, false})
			if pred.cas(l, ref[V]{succ, false}, ref[V]{n, false}) {
				break
			}
		}
	}
}

func (s *List[V]) indexPosition(l int, key uint64, self *node[V]) (*node[V], *node[V]) {
	pred := s.head
	for lvl := maxLevel - 1; lvl >= l; lvl-- {
		for {
			cr := pred.load(lvl)
			c := cr.node
			if c == nil || c == self || c.key >= key {
				break
			}
			pred = c
		}
	}
	cr := pred.load(l)
	if cr.node == self {
		return nil, nil
	}
	if cr.node != nil && cr.node.key == key {
		// Refuse same-key positions: keeps index links strictly
		// key-increasing so racing tower builds of a replace chain can
		// never form a cycle.
		return nil, nil
	}
	return pred, cr.node
}

// Len counts live entries; not linearizable, for tests.
func (s *List[V]) Len() int {
	n := 0
	cr := s.head.load(0)
	for c := cr.node; c != nil; {
		nr := c.load(0)
		if !nr.mark {
			n++
		}
		c = nr.node
	}
	return n
}

// Range iterates a non-linearizable ascending snapshot, stopping if fn
// returns false.
func (s *List[V]) Range(fn func(key uint64, val V) bool) {
	cr := s.head.load(0)
	for c := cr.node; c != nil; {
		nr := c.load(0)
		if !nr.mark {
			if !fn(c.key, c.val) {
				return
			}
		}
		c = nr.node
	}
}
