package onefile

// This file provides the two data structures the paper runs on OneFile: a
// sequential chained hash table (Section 6.1: "In OneFile, we use a
// sequential chained hash table parallelized using STM") and a sequential
// skiplist derived from Fraser's STM skiplist. All mutable fields are
// Words; the structures themselves contain no synchronization.

import "math/bits"

// HashMap is a sequential chained hash table over STM words.
type HashMap struct {
	stm     *STM
	buckets []Word[*hmNode]
	shift   uint // 64 - log2(len(buckets))
}

type hmNode struct {
	key  uint64
	val  Word[uint64]
	next Word[*hmNode]
}

// NewHashMap creates a table with at least nBuckets buckets on the given
// STM (use PSTM.STM for the persistent flavor).
func NewHashMap(stm *STM, nBuckets int) *HashMap {
	n := 1
	for n < nBuckets {
		n <<= 1
	}
	return &HashMap{stm: stm, buckets: make([]Word[*hmNode], n), shift: uint(64 - bits.Len(uint(n-1)))}
}

// STM returns the STM instance this map runs on.
func (m *HashMap) STM() *STM { return m.stm }

// bucket is Fibonacci hashing on the product's top bits — the bucket
// function of the Medley table it is compared with (mhash.Map.hash), so the
// two walk chains of the same length over the same keys.
func (m *HashMap) bucket(key uint64) *Word[*hmNode] {
	return &m.buckets[key*0x9E3779B97F4A7C15>>m.shift]
}

// Get looks up key inside tx.
func (m *HashMap) Get(tx *Tx, key uint64) (uint64, bool) {
	for n := Read(tx, m.bucket(key)); n != nil; n = Read(tx, &n.next) {
		if n.key == key {
			return Read(tx, &n.val), true
		}
	}
	return 0, false
}

// Put inserts or replaces key inside tx, returning the prior value if any.
func (m *HashMap) Put(tx *Tx, key uint64, val uint64) (uint64, bool) {
	b := m.bucket(key)
	for n := Read(tx, b); n != nil; n = Read(tx, &n.next) {
		if n.key == key {
			old := Read(tx, &n.val)
			Write(tx, &n.val, val)
			return old, true
		}
	}
	nn := &hmNode{key: key}
	nn.val.Init(val)
	nn.next.Init(Read(tx, b))
	Write(tx, b, nn)
	return 0, false
}

// Insert adds key only if absent.
func (m *HashMap) Insert(tx *Tx, key uint64, val uint64) bool {
	b := m.bucket(key)
	for n := Read(tx, b); n != nil; n = Read(tx, &n.next) {
		if n.key == key {
			return false
		}
	}
	nn := &hmNode{key: key}
	nn.val.Init(val)
	nn.next.Init(Read(tx, b))
	Write(tx, b, nn)
	return true
}

// Remove deletes key inside tx.
func (m *HashMap) Remove(tx *Tx, key uint64) (uint64, bool) {
	b := m.bucket(key)
	var prev *hmNode
	for n := Read(tx, b); n != nil; n = Read(tx, &n.next) {
		if n.key == key {
			v := Read(tx, &n.val)
			succ := Read(tx, &n.next)
			if prev == nil {
				Write(tx, b, succ)
			} else {
				Write(tx, &prev.next, succ)
			}
			return v, true
		}
		prev = n
	}
	return 0, false
}

// Load inserts or replaces key without a transaction. It is for
// quiescent bulk population — post-crash recovery rebuilding a structure
// from the durable image — where paying the transactional (and, on a
// persistent STM, device) write path would be wrong: the data is already
// durable. Not safe concurrently with transactions.
func (m *HashMap) Load(key, val uint64) {
	b := m.bucket(key)
	for n := b.load().val; n != nil; n = n.next.load().val {
		if n.key == key {
			n.val.Init(val)
			return
		}
	}
	nn := &hmNode{key: key}
	nn.val.Init(val)
	nn.next.Init(b.load().val)
	b.Init(nn)
}

// Range iterates all entries in one read transaction. The body must be
// side-effect free on restart; fn returning false stops the iteration.
func (m *HashMap) Range(fn func(key, val uint64) bool) {
	type pair struct{ k, v uint64 }
	var out []pair
	_ = m.stm.ReadTx(func(tx *Tx) error {
		out = out[:0]
		for i := range m.buckets {
			for n := Read(tx, &m.buckets[i]); n != nil; n = Read(tx, &n.next) {
				out = append(out, pair{n.key, Read(tx, &n.val)})
			}
		}
		return nil
	})
	for _, p := range out {
		if !fn(p.k, p.v) {
			return
		}
	}
}

// Len counts entries in a read transaction.
func (m *HashMap) Len() int {
	total := 0
	_ = m.stm.ReadTx(func(tx *Tx) error {
		total = 0
		for i := range m.buckets {
			for n := Read(tx, &m.buckets[i]); n != nil; n = Read(tx, &n.next) {
				total++
			}
		}
		return nil
	})
	return total
}

// Skiplist is a sequential skiplist over STM words (Fraser's STM skiplist
// shape: per-level forward pointers, all accesses transactional).
type Skiplist struct {
	stm  *STM
	head *slNode
}

const slMaxLevel = 20

type slNode struct {
	key   uint64
	val   Word[uint64]
	level int
	next  []Word[*slNode]
}

// NewSkiplist creates an empty skiplist on the given STM.
func NewSkiplist(stm *STM) *Skiplist {
	h := &slNode{level: slMaxLevel, next: make([]Word[*slNode], slMaxLevel)}
	return &Skiplist{stm: stm, head: h}
}

// STM returns the STM instance this skiplist runs on.
func (s *Skiplist) STM() *STM { return s.stm }

// slRandomLevel derives a deterministic-ish geometric level from the key
// (sequential structure: no concurrency concerns, just distribution).
func slRandomLevel(key uint64) int {
	x := key*0x9E3779B97F4A7C15 + 0x7F4A7C15
	x ^= x >> 33
	l := 1
	for x&1 == 1 && l < slMaxLevel {
		l++
		x >>= 1
	}
	return l
}

// search fills preds/succs for key at every level.
func (s *Skiplist) search(tx *Tx, key uint64, preds, succs []*slNode) *slNode {
	p := s.head
	for l := slMaxLevel - 1; l >= 0; l-- {
		c := Read(tx, &p.next[l])
		for c != nil && c.key < key {
			p = c
			c = Read(tx, &p.next[l])
		}
		preds[l] = p
		succs[l] = c
	}
	if c := succs[0]; c != nil && c.key == key {
		return c
	}
	return nil
}

// Get looks up key inside tx.
func (s *Skiplist) Get(tx *Tx, key uint64) (uint64, bool) {
	p := s.head
	for l := slMaxLevel - 1; l >= 0; l-- {
		c := Read(tx, &p.next[l])
		for c != nil && c.key < key {
			p = c
			c = Read(tx, &p.next[l])
		}
		if c != nil && c.key == key {
			return Read(tx, &c.val), true
		}
	}
	return 0, false
}

// Put inserts or replaces key inside tx.
func (s *Skiplist) Put(tx *Tx, key uint64, val uint64) (uint64, bool) {
	var preds, succs [slMaxLevel]*slNode
	if n := s.search(tx, key, preds[:], succs[:]); n != nil {
		old := Read(tx, &n.val)
		Write(tx, &n.val, val)
		return old, true
	}
	s.insertAt(tx, key, val, preds[:], succs[:])
	return 0, false
}

// Insert adds key only if absent.
func (s *Skiplist) Insert(tx *Tx, key uint64, val uint64) bool {
	var preds, succs [slMaxLevel]*slNode
	if s.search(tx, key, preds[:], succs[:]) != nil {
		return false
	}
	s.insertAt(tx, key, val, preds[:], succs[:])
	return true
}

func (s *Skiplist) insertAt(tx *Tx, key, val uint64, preds, succs []*slNode) {
	lvl := slRandomLevel(key)
	n := &slNode{key: key, level: lvl, next: make([]Word[*slNode], lvl)}
	n.val.Init(val)
	for l := 0; l < lvl; l++ {
		n.next[l].Init(succs[l])
		Write(tx, &preds[l].next[l], n)
	}
}

// Remove deletes key inside tx.
func (s *Skiplist) Remove(tx *Tx, key uint64) (uint64, bool) {
	var preds, succs [slMaxLevel]*slNode
	n := s.search(tx, key, preds[:], succs[:])
	if n == nil {
		return 0, false
	}
	for l := 0; l < n.level; l++ {
		if succs[l] == n {
			Write(tx, &preds[l].next[l], Read(tx, &n.next[l]))
		}
	}
	return Read(tx, &n.val), true
}

// Load inserts or replaces key without a transaction; see HashMap.Load.
// Not safe concurrently with transactions.
func (s *Skiplist) Load(key, val uint64) {
	var preds [slMaxLevel]*slNode
	p := s.head
	var succ0 *slNode
	for l := slMaxLevel - 1; l >= 0; l-- {
		c := p.next[l].load().val
		for c != nil && c.key < key {
			p = c
			c = p.next[l].load().val
		}
		preds[l] = p
		if l == 0 {
			succ0 = c
		}
	}
	if succ0 != nil && succ0.key == key {
		succ0.val.Init(val)
		return
	}
	lvl := slRandomLevel(key)
	n := &slNode{key: key, level: lvl, next: make([]Word[*slNode], lvl)}
	n.val.Init(val)
	for l := 0; l < lvl; l++ {
		n.next[l].Init(preds[l].next[l].load().val)
		preds[l].next[l].Init(n)
	}
}

// Range iterates all entries in one read transaction. The body must be
// side-effect free on restart; fn returning false stops the iteration.
func (s *Skiplist) Range(fn func(key, val uint64) bool) {
	type pair struct{ k, v uint64 }
	var out []pair
	_ = s.stm.ReadTx(func(tx *Tx) error {
		out = out[:0]
		for c := Read(tx, &s.head.next[0]); c != nil; c = Read(tx, &c.next[0]) {
			out = append(out, pair{c.key, Read(tx, &c.val)})
		}
		return nil
	})
	for _, p := range out {
		if !fn(p.k, p.v) {
			return
		}
	}
}

// Len counts entries in a read transaction.
func (s *Skiplist) Len() int {
	total := 0
	_ = s.stm.ReadTx(func(tx *Tx) error {
		total = 0
		for c := Read(tx, &s.head.next[0]); c != nil; c = Read(tx, &c.next[0]) {
			total++
		}
		return nil
	})
	return total
}
