// Package tdsl implements a transactional skiplist in the style of the
// transactional data structure library of Spiegelman, Golan-Gueta and
// Keidar (PLDI 2016), the blocking baseline of the paper's Figures 8 and 9.
//
// The concurrency-control shape matches the original:
//
//   - Reads are tracked only on semantically critical nodes — the node
//     proving presence, or the level-0 predecessor proving absence — so
//     read sets stay tiny compared to a word-based STM.
//   - Writes are buffered as a per-key overlay during the transaction.
//   - Commit is blocking two-phase: re-locate each written key, try-lock
//     its level-0 predecessor and (if present) the node itself in one
//     atomic sweep, validate the read set against per-node versions, apply
//     (link / mark / write value) with every changed node's version odd
//     until the whole apply is done, and unlock.
//
// Index levels above 0 are maintained with best-effort CAS as hints, the
// same discipline as the nonblocking skiplists in this repository; level 0
// is authoritative and modified only under locks.
package tdsl

import (
	"errors"
	"math/bits"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrAborted is returned by Commit when validation or locking failed; the
// caller retries the whole transaction.
var ErrAborted = errors.New("tdsl: transaction aborted")

const maxLevel = 20

type node struct {
	key     uint64
	val     atomic.Uint64 // written under lock; read lock-free by Get
	level   int
	lock    sync.Mutex
	version atomic.Uint64 // odd while a commit changes this node; +2 per change
	marked  atomic.Bool   // logically deleted
	next    []atomic.Pointer[node]
}

// Skiplist is one TDSL skiplist; transactions (Tx) may span several.
type Skiplist struct {
	head *node
	id   uint64 // global lock-ordering rank across skiplists
}

var nextSkiplistID atomic.Uint64

// New creates an empty TDSL skiplist.
func New() *Skiplist {
	h := &node{level: maxLevel, next: make([]atomic.Pointer[node], maxLevel)}
	return &Skiplist{head: h, id: nextSkiplistID.Add(1)}
}

func randomLevel() int {
	return bits.TrailingZeros64(rand.Uint64()|1<<(maxLevel-1)) + 1
}

// locate returns the level-0 predecessor and the node holding key (nil if
// absent), skipping marked nodes.
func (s *Skiplist) locate(key uint64) (pred, curr *node) {
	p := s.head
	for l := maxLevel - 1; l >= 1; l-- {
		for {
			c := p.next[l].Load()
			if c == nil || c.key >= key {
				break
			}
			if c.marked.Load() {
				// Index hint repair: best-effort CAS past dead towers.
				p.next[l].CompareAndSwap(c, c.next[l].Load())
				continue
			}
			p = c
		}
	}
	// Level 0 is authoritative: unlink marked nodes en passant (Michael-
	// style helping; safe because inserts take the predecessor's lock and
	// re-validate it unmarked, so a CAS race can only drop dead nodes).
	c := p.next[0].Load()
	for c != nil {
		if c.marked.Load() {
			succ := c.next[0].Load()
			if p.next[0].CompareAndSwap(c, succ) {
				c = succ
			} else {
				c = p.next[0].Load()
			}
			continue
		}
		if c.key >= key {
			break
		}
		p = c
		c = c.next[0].Load()
	}
	if c != nil && c.key == key {
		return p, c
	}
	return p, nil
}

// readEntry is a critical-node version witness.
type readEntry struct {
	n   *node
	ver uint64
}

// overlay is the buffered per-key outcome of a transaction.
type overlay struct {
	present bool
	val     uint64
}

type wkey struct {
	sl  *Skiplist
	key uint64
}

// Tx is a TDSL transaction spanning any number of skiplists. Not safe for
// concurrent use by multiple goroutines.
type Tx struct {
	reads  []readEntry
	writes map[wkey]overlay
}

// NewTx creates an empty transaction.
func NewTx() *Tx {
	return &Tx{writes: make(map[wkey]overlay)}
}

// Reset clears the transaction for reuse.
func (t *Tx) Reset() {
	t.reads = t.reads[:0]
	clear(t.writes)
}

// read records the current state of key with its semantic witness. The
// version witness makes this read consistent-or-aborted at commit
// validation; it is taken before the located node is re-checked, so a
// change that landed between the locate and the witness is located again.
func (t *Tx) read(sl *Skiplist, key uint64) (uint64, bool) {
	if ov, ok := t.writes[wkey{sl, key}]; ok {
		return ov.val, ov.present
	}
	for {
		pred, curr := sl.locate(key)
		if curr != nil {
			v := curr.version.Load()
			val := curr.val.Load()
			if curr.marked.Load() {
				continue
			}
			t.reads = append(t.reads, readEntry{curr, v})
			return val, true
		}
		v := pred.version.Load()
		if !adjacent(pred, nil, key, sl.head) {
			continue
		}
		t.reads = append(t.reads, readEntry{pred, v})
		return 0, false
	}
}

// Get returns the value bound to key in sl.
func (t *Tx) Get(sl *Skiplist, key uint64) (uint64, bool) { return t.read(sl, key) }

// Contains reports whether key is present in sl.
func (t *Tx) Contains(sl *Skiplist, key uint64) bool {
	_, ok := t.read(sl, key)
	return ok
}

// Put binds key to val in sl, returning the prior value if any.
func (t *Tx) Put(sl *Skiplist, key uint64, val uint64) (uint64, bool) {
	old, had := t.read(sl, key)
	t.writes[wkey{sl, key}] = overlay{present: true, val: val}
	return old, had
}

// Insert adds key only if absent.
func (t *Tx) Insert(sl *Skiplist, key uint64, val uint64) bool {
	if _, had := t.read(sl, key); had {
		return false
	}
	t.writes[wkey{sl, key}] = overlay{present: true, val: val}
	return true
}

// Remove deletes key, returning the removed value.
func (t *Tx) Remove(sl *Skiplist, key uint64) (uint64, bool) {
	old, had := t.read(sl, key)
	if had {
		t.writes[wkey{sl, key}] = overlay{present: false}
	}
	return old, had
}

// Commit applies the transaction atomically: lock, validate, apply,
// unlock. On ErrAborted the transaction had no effect and may be retried.
func (t *Tx) Commit() error {
	defer t.Reset()
	if len(t.writes) == 0 {
		// Read-only: validate versions.
		if !t.valid() {
			return ErrAborted
		}
		return nil
	}

	keys := make([]wkey, 0, len(t.writes))
	for k := range t.writes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].sl != keys[j].sl {
			return keys[i].sl.id < keys[j].sl.id
		}
		return keys[i].key < keys[j].key
	})

	type target struct {
		k          wkey
		pred, curr *node
	}
	locked := map[*node]bool{}
	var order []*node
	unlockAll := func() {
		for i := len(order) - 1; i >= 0; i-- {
			order[i].lock.Unlock()
		}
		order = order[:0]
		clear(locked)
	}
	tryLock := func(n *node) bool {
		if locked[n] {
			return true
		}
		if !n.lock.TryLock() {
			return false
		}
		locked[n] = true
		order = append(order, n)
		return true
	}

	var targets []target
	for attempt := 0; ; attempt++ {
		targets = targets[:0]
		ok := true
		for _, k := range keys {
			pred, curr := k.sl.locate(k.key)
			if !tryLock(pred) || (curr != nil && !tryLock(curr)) {
				ok = false
				break
			}
			// Re-validate adjacency under locks.
			if !adjacent(pred, curr, k.key, k.sl.head) {
				ok = false
				break
			}
			targets = append(targets, target{k: k, pred: pred, curr: curr})
		}
		if ok {
			break
		}
		unlockAll()
		if attempt > 8 {
			time.Sleep(time.Duration(rand.IntN(20)+1) * time.Microsecond)
		}
		if attempt > 64 {
			return ErrAborted
		}
	}

	// Validate the read set while holding all write locks.
	if !t.valid() {
		unlockAll()
		return ErrAborted
	}

	// Apply as a seqlock over the nodes this commit changes: each turns odd
	// before the first write and even after the last, so a lock-free read
	// that overlaps the apply fails validation instead of seeing half a
	// commit. An inserted node is born odd.
	changed := make(map[*node]bool, 2*len(targets))
	for _, tg := range targets {
		ov := t.writes[tg.k]
		if tg.curr != nil {
			changed[tg.curr] = true // update or remove
		}
		if (tg.curr == nil) == ov.present {
			changed[tg.pred] = true // insert or remove
		}
	}
	for n := range changed {
		n.version.Add(1)
	}
	for _, tg := range targets {
		ov := t.writes[tg.k]
		switch {
		case ov.present && tg.curr != nil: // value update
			tg.curr.val.Store(ov.val)
		case ov.present && tg.curr == nil: // insert
			lvl := randomLevel()
			n := &node{key: tg.k.key, level: lvl,
				next: make([]atomic.Pointer[node], lvl)}
			n.val.Store(ov.val)
			n.version.Store(1)
			changed[n] = true
			// Re-walk forward from the locked predecessor: earlier applies
			// of this very transaction may have inserted into the same gap.
			p := tg.pred
			for {
				c := p.next[0].Load()
				for c != nil && !c.marked.Load() && c.key < n.key {
					p = c
					c = c.next[0].Load()
				}
				n.next[0].Store(c)
				if p.next[0].CompareAndSwap(c, n) {
					break
				}
			}
			buildTower(tg.k.sl, n)
		case !ov.present && tg.curr != nil: // remove
			// Mark only; physical unlink is lock-free helping in locate.
			tg.curr.marked.Store(true)
		}
	}
	for n := range changed {
		n.version.Add(1)
	}
	unlockAll()
	return nil
}

// valid reports whether every critical node read still has the version
// the transaction saw, and saw it outside any commit's apply (even).
func (t *Tx) valid() bool {
	for _, re := range t.reads {
		if re.ver&1 != 0 || re.n.version.Load() != re.ver {
			return false
		}
	}
	return true
}

// adjacent verifies, under locks, that pred is live and that curr (when
// present) or the gap (when absent) still governs key at level 0.
func adjacent(pred, curr *node, key uint64, head *node) bool {
	if pred != head && (pred.marked.Load() || pred.key >= key) {
		return false
	}
	c := pred.next[0].Load()
	for c != nil && c.marked.Load() {
		c = c.next[0].Load()
	}
	if curr == nil {
		return c == nil || c.key > key
	}
	return c == curr && !curr.marked.Load()
}

// buildTower links n into index levels with best-effort CAS.
func buildTower(sl *Skiplist, n *node) {
	for l := 1; l < n.level; l++ {
		for attempt := 0; attempt < 2; attempt++ {
			if n.marked.Load() {
				return
			}
			pred, succ := indexPosition(sl, l, n)
			if pred == nil {
				break
			}
			n.next[l].Store(succ)
			if pred.next[l].CompareAndSwap(succ, n) {
				break
			}
		}
	}
}

func indexPosition(sl *Skiplist, l int, self *node) (*node, *node) {
	p := sl.head
	for lvl := maxLevel - 1; lvl >= l; lvl-- {
		for {
			c := p.next[lvl].Load()
			if c == nil || c == self || c.key >= self.key {
				break
			}
			p = c
		}
	}
	c := p.next[l].Load()
	if c == self {
		return nil, nil
	}
	if c != nil && c.key == self.key {
		// Same-key refusal, as in fraserskip.indexPosition: racing tower
		// builds across a remove/insert chain must never create a
		// same-key index link, which could form a cycle.
		return nil, nil
	}
	return p, c
}

// RunRetry executes body in a fresh transaction, committing with retry on
// ErrAborted. A non-nil error from body aborts without retry and is
// returned — if the reads it was derived from still validate; reads are
// not opaque, so an error from reads a concurrent commit has since
// changed is an abort, and is retried.
func RunRetry(body func(tx *Tx) error) error {
	tx := NewTx()
	for {
		tx.Reset()
		if err := body(tx); err != nil {
			if tx.valid() {
				return err
			}
			continue
		}
		err := tx.Commit()
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrAborted) {
			return err
		}
	}
}

// Len counts live nodes; not linearizable, for tests.
func (s *Skiplist) Len() int {
	n := 0
	for c := s.head.next[0].Load(); c != nil; c = c.next[0].Load() {
		if !c.marked.Load() {
			n++
		}
	}
	return n
}

// Range iterates a non-linearizable snapshot in key order; for tests.
func (s *Skiplist) Range(fn func(key uint64, val uint64) bool) {
	for c := s.head.next[0].Load(); c != nil; c = c.next[0].Load() {
		if !c.marked.Load() {
			if !fn(c.key, c.val.Load()) {
				return
			}
		}
	}
}
