// Package onefile implements a OneFile-style nonblocking software
// transactional memory (Ramalhete et al., DSN 2019), the STM baseline of
// the paper's Figures 7-9, in both transient and persistent flavors.
//
// The two properties of OneFile that the paper's analysis leans on are
// preserved exactly:
//
//   - Readers are invisible and keep NO read set: every transactional word
//     carries the global sequence number of the transaction that wrote it,
//     and a reader that began at sequence s restarts as soon as it meets a
//     word newer than s. A read-only transaction therefore costs almost
//     nothing — which is why OneFile wins at one or two threads on
//     read-mostly workloads (Fig. 7c/8c).
//   - Writers fully serialize on the global sequence: a write transaction
//     that loses the commit race re-executes its entire body. Throughput
//     cannot scale with threads, and large transactions (TPC-C, Fig. 9)
//     are punished by whole-body re-execution.
//
// Progress is lock-free via helping: the winning writer publishes its redo
// log before taking the sequence lock, so any thread can complete an
// in-flight commit. (The original is wait-free via per-thread announce
// arrays; lock-free helping preserves the performance shape at far less
// mechanism and is noted in DESIGN.md.)
package onefile

import "sync/atomic"

// pair is an immutable (value, sequence) version of a word.
type pair[T any] struct {
	val T
	seq uint64
}

// word is the type-erased view of a Word used by the redo log.
type word interface {
	applyAny(v any, commitSeq uint64)
	seqOf() uint64
}

// Word is a transactional memory word holding a T. All mutable state of a
// OneFile data structure must live in Words.
type Word[T any] struct {
	p atomic.Pointer[pair[T]]
}

// NewWord returns a Word initialized to v (sequence 0).
func NewWord[T any](v T) *Word[T] {
	w := &Word[T]{}
	w.p.Store(&pair[T]{val: v})
	return w
}

// Init sets an initial value on a zero Word before publication.
func (w *Word[T]) Init(v T) { w.p.Store(&pair[T]{val: v}) }

func (w *Word[T]) load() *pair[T] {
	p := w.p.Load()
	if p == nil {
		// Zero-value word: lazily install the zero pair.
		np := &pair[T]{}
		if w.p.CompareAndSwap(nil, np) {
			return np
		}
		return w.p.Load()
	}
	return p
}

func (w *Word[T]) seqOf() uint64 { return w.load().seq }

// applyAny installs v at commitSeq unless a same-or-newer version is
// already present; idempotent so that helpers may race.
func (w *Word[T]) applyAny(v any, commitSeq uint64) {
	tv := v.(T)
	for {
		cur := w.load()
		if cur.seq >= commitSeq {
			return
		}
		if w.p.CompareAndSwap(cur, &pair[T]{val: tv, seq: commitSeq}) {
			return
		}
	}
}

// desc is a published write transaction: its redo log and sequence window.
type desc struct {
	start  uint64 // sequence observed by the body (even)
	commit uint64 // start + 2
	writes map[word]any
	// persist is non-nil for persistent STM instances; called by the
	// applier with the redo log and commit sequence while the sequence
	// lock is held. The sequence lets the persister order device writes:
	// a stale applier (helped past, then scheduled out mid-persist) must
	// not clobber a newer commit's durable image.
	persist func(writes map[word]any, commitSeq uint64)
}

// restartSignal unwinds a transaction body whose snapshot became stale.
type restartSignal struct{}

// STM is one OneFile instance: a global sequence and an announce slot.
type STM struct {
	seq atomic.Uint64 // even: stable; odd: commit in progress
	cur atomic.Pointer[desc]

	// stats
	commits  atomic.Uint64
	restarts atomic.Uint64

	// persistHook, when set (persistent flavor), is invoked under the
	// sequence lock with each committing redo log and its commit sequence.
	persistHook func(writes map[word]any, commitSeq uint64)
}

// New creates a transient OneFile STM.
func New() *STM { return &STM{} }

// Tx is the per-execution transaction context passed to bodies.
type Tx struct {
	stm     *STM
	start   uint64
	writes  map[word]any
	writing bool
}

// Read returns w's value in the transaction's snapshot, restarting the
// body if the snapshot is stale. Reads of words written by this
// transaction return the pending value.
func Read[T any](tx *Tx, w *Word[T]) T {
	if tx.writing {
		if v, ok := tx.writes[w]; ok {
			return v.(T)
		}
	}
	p := w.load()
	if p.seq > tx.start {
		panic(restartSignal{})
	}
	return p.val
}

// Write buffers v as w's new value; only write transactions may call it.
func Write[T any](tx *Tx, w *Word[T], v T) {
	if !tx.writing {
		panic("onefile: Write inside a read-only transaction")
	}
	tx.writes[w] = v
}

// stableSeq waits (helping) until the sequence is even and returns it.
func (s *STM) stableSeq() uint64 {
	for {
		q := s.seq.Load()
		if q&1 == 0 {
			return q
		}
		s.help()
	}
}

// help completes an in-flight commit, if any.
func (s *STM) help() {
	d := s.cur.Load()
	if d == nil {
		return
	}
	if s.seq.Load() != d.start+1 {
		return
	}
	s.apply(d)
}

// apply installs d's redo log and releases the sequence lock. Idempotent.
func (s *STM) apply(d *desc) {
	if d.persist != nil {
		d.persist(d.writes, d.commit)
	}
	for w, v := range d.writes {
		w.applyAny(v, d.commit)
	}
	s.seq.CompareAndSwap(d.start+1, d.commit)
	s.cur.CompareAndSwap(d, nil)
}

// ReadTx runs a read-only body against a consistent snapshot, retrying
// internally on staleness. The body must be side-effect free on restart.
func (s *STM) ReadTx(body func(tx *Tx) error) error {
	for {
		tx := &Tx{stm: s, start: s.stableSeq()}
		err, restarted := runBody(body, tx)
		if restarted {
			s.restarts.Add(1)
			continue
		}
		return err
	}
}

// WriteTx runs a write body and commits its redo log atomically. The whole
// body re-executes if another writer commits first (OneFile's serialized
// writers). A body returning a non-nil error aborts with that error.
func (s *STM) WriteTx(body func(tx *Tx) error) error {
	for {
		start := s.stableSeq()
		tx := &Tx{stm: s, start: start, writes: make(map[word]any, 8), writing: true}
		err, restarted := runBody(body, tx)
		if restarted {
			s.restarts.Add(1)
			continue
		}
		if err != nil {
			return err
		}
		if len(tx.writes) == 0 {
			return nil // read-only body in a write tx: snapshot already consistent
		}
		d := &desc{start: start, commit: start + 2, writes: tx.writes, persist: s.persistHook}
		if !s.cur.CompareAndSwap(nil, d) {
			s.help()
			s.restarts.Add(1)
			continue
		}
		if !s.seq.CompareAndSwap(start, start+1) {
			// Another writer slipped in between our body and announce.
			s.cur.CompareAndSwap(d, nil)
			s.restarts.Add(1)
			continue
		}
		s.apply(d)
		s.commits.Add(1)
		return nil
	}
}

// runBody executes body, converting restart panics into a flag.
func runBody(body func(tx *Tx) error, tx *Tx) (err error, restarted bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(restartSignal); ok {
				restarted = true
				return
			}
			panic(r)
		}
	}()
	return body(tx), false
}

// Stats is a snapshot of STM counters.
type Stats struct {
	Seq      uint64
	Commits  uint64
	Restarts uint64
}

// Stats returns a snapshot of the STM's counters.
func (s *STM) Stats() Stats {
	return Stats{Seq: s.seq.Load(), Commits: s.commits.Load(), Restarts: s.restarts.Load()}
}
