package montage

import (
	"medley/internal/core"
)

// Index is the transient DRAM index a persistent store keeps its payload
// handles in: any Medley map (mhash.Map, fraserskip.List, ...) satisfies it
// with V = Entry[T].
type Index[V any] interface {
	Get(tx *core.Tx, key uint64) (V, bool)
	Put(tx *core.Tx, key uint64, val V) (V, bool)
	Insert(tx *core.Tx, key uint64, val V) bool
	Remove(tx *core.Tx, key uint64) (V, bool)
	Len() int
	Range(fn func(key uint64, val V) bool)
}

// Entry is what a persistent store keeps in its index: the decoded value
// (so reads never touch NVM) plus the payload block offset.
type Entry[V any] struct {
	Val V
	Off int
}

// Codec serializes values into payload words: Enc appends v's words to dst
// and returns the result, so a store encodes into one buffer per handle.
// Values in the paper's benchmarks are 8-byte integers (see U64Codec);
// richer values provide their own.
type Codec[V any] struct {
	Enc func(v V, dst []uint64) []uint64
	Dec func([]uint64) V
}

// U64Codec is the identity codec for uint64 values.
func U64Codec() Codec[uint64] {
	return Codec[uint64]{
		Enc: func(v uint64, dst []uint64) []uint64 { return append(dst, v) },
		Dec: func(w []uint64) uint64 { return w[0] },
	}
}

// PStore is a txMontage persistent map: a transient Medley index over
// epoch-tagged payloads in simulated NVM. All operations must run on a
// Handle whose transaction is open (ops compose transactionally and commit
// with epoch validation); a single op runs as h.Tx().RunRetry(op).
type PStore[V any] struct {
	sys   *System
	idx   Index[Entry[V]]
	codec Codec[V]
}

// NewPStore creates a persistent store over the given transient index.
func NewPStore[V any](sys *System, idx Index[Entry[V]], codec Codec[V]) *PStore[V] {
	return &PStore[V]{sys: sys, idx: idx, codec: codec}
}

// System returns the montage system backing this store.
func (p *PStore[V]) System() *System { return p.sys }

// Get returns the value bound to key. Reads are served entirely from the
// DRAM index (payloads are write-only during normal operation, exactly as
// in nbMontage).
func (p *PStore[V]) Get(h *Handle, key uint64) (V, bool) {
	e, ok := p.idx.Get(h.tx, key)
	return e.Val, ok
}

// Contains reports whether key is present.
func (p *PStore[V]) Contains(h *Handle, key uint64) bool {
	_, ok := p.Get(h, key)
	return ok
}

// Put binds key to val: a new payload is staged and the old one (if any)
// retired, all taking effect at commit.
func (p *PStore[V]) Put(h *Handle, key uint64, val V) (V, bool) {
	h.enc = p.codec.Enc(val, h.enc[:0])
	off, words := h.newPayload(key, h.enc)
	old, replaced := p.idx.Put(h.tx, key, Entry[V]{Val: val, Off: off})
	h.bear(off, words)
	if replaced {
		h.killPayload(old.Off)
	}
	return old.Val, replaced
}

// Insert adds key only if absent.
func (p *PStore[V]) Insert(h *Handle, key uint64, val V) bool {
	h.enc = p.codec.Enc(val, h.enc[:0])
	off, words := h.newPayload(key, h.enc)
	if p.idx.Insert(h.tx, key, Entry[V]{Val: val, Off: off}) {
		h.bear(off, words)
		return true
	}
	h.unstage(off)
	return false
}

// Remove deletes key, retiring its payload at commit.
func (p *PStore[V]) Remove(h *Handle, key uint64) (V, bool) {
	old, ok := p.idx.Remove(h.tx, key)
	if ok {
		h.killPayload(old.Off)
	}
	return old.Val, ok
}

// Len counts entries (not linearizable; tests and diagnostics).
func (p *PStore[V]) Len() int { return p.idx.Len() }

// Range iterates a non-linearizable snapshot of entries.
func (p *PStore[V]) Range(fn func(key uint64, val V) bool) {
	p.idx.Range(func(k uint64, e Entry[V]) bool { return fn(k, e.Val) })
}

// Recovered is one payload surviving a crash.
type Recovered struct {
	Key  uint64
	Data []uint64
	Off  int
}

// CrashAndRecover simulates a full-system crash and returns the surviving
// payloads: those born in a persisted epoch and not dead by it. It also
// resets the system's DRAM state (epoch clock, allocator, handles) the way
// a post-restart process would find it; the caller rebuilds indices from
// the result (see RebuildPStore).
func (s *System) CrashAndRecover() []Recovered {
	s.advMu.Lock()
	defer s.advMu.Unlock()
	s.Region.Crash()
	p := s.Region.Load(epochWord)
	s.persisted.Store(p)
	s.setEpoch(p + 1)
	s.mu.Lock()
	s.handles = nil // old threads disappear under the full-system-crash model
	s.mu.Unlock()

	var out []Recovered
	for i := range s.arenas {
		a := &s.arenas[i]
		a.mu.Lock()
		a.free = a.free[:0]
		highest := -1
		live := make([]bool, a.nBlocks)
		for b := 0; b < a.nBlocks; b++ {
			off := a.start + b*a.blockWords
			birth := s.Region.Load(off + hdrBirth)
			death := s.Region.Load(off + hdrDeath)
			if birth != 0 && birth <= p && (death == 0 || death > p) {
				if n := int(s.Region.Load(off + hdrLen)); n >= 0 && n <= a.blockWords-hdrWords {
					data := make([]uint64, n)
					for j := 0; j < n; j++ {
						data[j] = s.Region.Load(off + hdrWords + j)
					}
					out = append(out, Recovered{Key: s.Region.Load(off + hdrKey), Data: data, Off: off})
					live[b] = true
					highest = b
				}
			}
			if !live[b] && birth != 0 {
				// Occupied but not recovered (dead, or unborn by the
				// horizon): scrub so the block reads as free.
				s.Region.Store(off+hdrBirth, 0)
				s.Region.Store(off+hdrDeath, 0)
			}
		}
		// Resume bump allocation above the highest survivor; every
		// non-surviving block below that point is immediately reusable.
		a.bump = highest + 1
		for b := 0; b < a.bump; b++ {
			if !live[b] {
				a.free = append(a.free, freeBlock{off: a.start + b*a.blockWords, safe: 0})
			}
		}
		a.mu.Unlock()
	}
	return out
}

// RebuildPStore reconstructs a persistent store from recovered payloads
// over a fresh transient index, as post-crash recovery does for each
// structure.
func RebuildPStore[V any](sys *System, idx Index[Entry[V]], codec Codec[V], payloads []Recovered) *PStore[V] {
	p := NewPStore(sys, idx, codec)
	for _, r := range payloads {
		idx.Put(nil, r.Key, Entry[V]{Val: codec.Dec(r.Data), Off: r.Off})
	}
	return p
}
