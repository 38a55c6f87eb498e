package montage

import (
	"sync"
	"sync/atomic"

	"medley/internal/core"
)

// flushRange is a region span awaiting write-back at epoch end.
type flushRange struct {
	off, words int
	epoch      uint64
}

// Handle is a per-goroutine participant in the montage protocol. It tracks
// the epoch its current transaction runs in, announces activity for the
// advancer's grace period, and buffers payload write-back work per epoch.
type Handle struct {
	sys *System
	tx  *core.Tx

	txEpoch uint64
	active  atomic.Uint64 // epoch<<1 | 1 while a transaction or BeginOp section is open

	mu      sync.Mutex
	pending []flushRange

	staged []int    // payloads the open transaction allocated; released if it aborts
	enc    []uint64 // the codec's buffer for the value being written (PStore)

	// noPersist marks a handle whose payloads live in NVM but are never
	// epoch-tagged or written back: the "transient on NVM" configuration
	// of the paper's Figure 10b.
	noPersist bool
}

// Wrap attaches a Medley transaction context to this montage system,
// turning it into a txMontage context: every transaction begun on tx will
// load the epoch clock at Begin and validate that load at commit through
// the MCNS read set — the "one small change" of Section 4.4 — and the
// handle's cleanup work is coordinated with the epoch advancer.
func (s *System) Wrap(tx *core.Tx) *Handle {
	h := &Handle{sys: s, tx: tx}
	s.mu.Lock()
	s.handles = append(s.handles, h)
	s.mu.Unlock()
	tx.OnBegin(func(t *core.Tx) {
		e, w := s.epoch.NbtcLoad(t)
		h.txEpoch = uint64(e)
		h.active.Store(h.txEpoch<<1 | 1)
		t.AddToReadSet(w)
	})
	tx.OnFinish(h.finish)
	return h
}

// WrapTransient attaches a transaction context with persistence disabled:
// payload content is still allocated and written in simulated NVM (so the
// media write cost is paid) but nothing is epoch-tagged, validated or
// written back. This is the paper's Figure 10b configuration.
func (s *System) WrapTransient(tx *core.Tx) *Handle {
	h := &Handle{sys: s, tx: tx, noPersist: true}
	tx.OnFinish(h.finish)
	return h
}

// finish closes a transaction on h: an abort releases the payloads it
// staged (a commit gave them birth), and the handle stops announcing its
// epoch.
func (h *Handle) finish(_ *core.Tx, committed bool) {
	if !committed {
		for _, off := range h.staged {
			h.sys.release(off, 0)
		}
	}
	h.staged = h.staged[:0]
	h.active.Store(0)
}

// Tx returns the wrapped Medley transaction context.
func (h *Handle) Tx() *core.Tx { return h.tx }

// System returns the montage system this handle belongs to.
func (h *Handle) System() *System { return h.sys }

// addPending registers a region span for write-back when epoch e ends.
func (h *Handle) addPending(off, words int, e uint64) {
	h.mu.Lock()
	h.pending = append(h.pending, flushRange{off: off, words: words, epoch: e})
	h.mu.Unlock()
}

// drainUpTo removes all spans registered for epochs <= e and appends
// them to dst, so that the advancer can write them back from a buffer it
// reuses once h.mu is released: a handle registering work never waits
// out a write-back.
func (h *Handle) drainUpTo(e uint64, dst []flushRange) []flushRange {
	h.mu.Lock()
	defer h.mu.Unlock()
	kept := h.pending[:0]
	for _, rg := range h.pending {
		if rg.epoch <= e {
			dst = append(dst, rg)
		} else {
			kept = append(kept, rg)
		}
	}
	h.pending = kept
	return dst
}

// BeginOp opens a run of non-transactional operations on h, nbMontage's
// BEGIN_OP: it announces the epoch they run in, so the payloads they create
// and kill are stamped with an epoch the advancer cannot write back and
// record as persisted before EndOp. The announcement is re-checked against
// the clock (the advancer bumps the clock, then waits out every handle
// announcing an older epoch), so one of the two always sees the other. A
// transaction needs none of this: its commit validates its begin epoch.
// A persistence-off handle announces nothing.
func (h *Handle) BeginOp() {
	if h.noPersist {
		return
	}
	for {
		e := h.sys.Epoch()
		h.txEpoch = e
		h.active.Store(e<<1 | 1)
		if h.sys.Epoch() == e {
			return
		}
	}
}

// EndOp closes the run of operations BeginOp opened.
func (h *Handle) EndOp() { h.active.Store(0) }

// opEpoch returns the epoch this payload work belongs to: the announced
// one inside a transaction (its begin epoch, which commit validates) or a
// BeginOp section, else the current clock.
func (h *Handle) opEpoch() uint64 {
	if h.active.Load()&1 == 1 {
		return h.txEpoch
	}
	return h.sys.Epoch()
}

// newPayload stages a persistent payload for (key, data): the block is
// allocated and its content written immediately, but it is born — epoch
// stamped and scheduled for write-back — only if the caller defers its
// birth (bear) once the index holds it and the enclosing transaction
// commits; an abort releases it (finish). Returns the block offset and
// size in words.
func (h *Handle) newPayload(key uint64, data []uint64) (off, words int) {
	s := h.sys
	off, words = s.alloc(len(data))
	s.Region.Store(off+hdrKey, key)
	s.Region.Store(off+hdrLen, uint64(len(data)))
	for i, w := range data {
		s.Region.Store(off+hdrWords+i, w)
	}
	if h.tx.InTx() {
		h.staged = append(h.staged, off)
	}
	return off, words
}

// bear gives the staged payload at off, a block of words, birth when the
// enclosing transaction commits.
func (h *Handle) bear(off, words int) {
	h.tx.Defer(h, nil, uint64(off), h.opEpoch()<<32|uint64(words))
}

// unstage releases the last payload newPayload staged, which nothing
// links, at once: it was never born.
func (h *Handle) unstage(off int) {
	if h.tx.InTx() {
		h.staged = h.staged[:len(h.staged)-1]
	}
	h.sys.release(off, 0)
}

// killPayload retires the payload at off when the enclosing transaction
// commits: its death is stamped with the transaction's epoch, the header
// line is scheduled for write-back, and the block becomes reusable once
// that epoch persists.
func (h *Handle) killPayload(off int) {
	h.tx.Defer(h, nil, uint64(off), h.opEpoch()<<32)
}

// Cleanup is the core.Cleaner hook bear and killPayload defer, not for
// callers: ew is an epoch e above a block size in words. A size stamps the
// payload at off born in e, 0 stamps it dead in e.
func (h *Handle) Cleanup(_ *core.Tx, _ *core.Word, off, ew uint64) {
	s, o, e, words := h.sys, int(off), ew>>32, int(uint32(ew))
	if words != 0 {
		s.Region.Store(o+hdrBirth, e)
		if !h.noPersist {
			h.addPending(o, words, e)
		}
		s.payloadsBorn.Add(1)
		return
	}
	s.Region.Store(o+hdrDeath, e)
	if h.noPersist {
		s.release(o, 0)
	} else {
		h.addPending(o, hdrWords, e)
		s.release(o, e)
	}
	s.payloadsKilled.Add(1)
}
