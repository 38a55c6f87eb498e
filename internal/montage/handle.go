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

	// noPersist marks a handle whose payloads live in NVM but are never
	// epoch-tagged or written back: the "transient on NVM" configuration
	// of the paper's Figure 10b.
	noPersist bool
}

// Wrap attaches a Medley transaction context to this montage system,
// turning it into a txMontage context: every transaction begun on tx will
// observe the epoch at Begin and validate it at commit through the MCNS
// read set — the "one small change" of Section 4.4 — and the handle's
// cleanup work is coordinated with the epoch advancer.
func (s *System) Wrap(tx *core.Tx) *Handle {
	h := &Handle{sys: s, tx: tx}
	s.mu.Lock()
	s.handles = append(s.handles, h)
	s.mu.Unlock()
	tx.OnBegin(func(t *core.Tx) {
		e := s.epoch.Load()
		h.txEpoch = e
		h.active.Store(e<<1 | 1)
		t.AddReadCheck(func() bool { return s.epoch.Load() == e })
	})
	tx.OnFinish(func(*core.Tx, bool) {
		h.active.Store(0)
	})
	return h
}

// WrapTransient attaches a transaction context with persistence disabled:
// payload content is still allocated and written in simulated NVM (so the
// media write cost is paid) but nothing is epoch-tagged, validated or
// written back. This is the paper's Figure 10b configuration.
func (s *System) WrapTransient(tx *core.Tx) *Handle {
	h := &Handle{sys: s, tx: tx, noPersist: true}
	return h
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

// drainUpTo removes and returns all spans registered for epochs <= e.
func (h *Handle) drainUpTo(e uint64) []flushRange {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []flushRange
	kept := h.pending[:0]
	for _, rg := range h.pending {
		if rg.epoch <= e {
			out = append(out, rg)
		} else {
			kept = append(kept, rg)
		}
	}
	h.pending = kept
	return out
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
		e := h.sys.epoch.Load()
		h.txEpoch = e
		h.active.Store(e<<1 | 1)
		if h.sys.epoch.Load() == e {
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
	return h.sys.epoch.Load()
}

// newPayload stages a persistent payload for (key, data): the block is
// allocated and its content written immediately, but it is born — epoch
// stamped and scheduled for write-back — only if the enclosing transaction
// commits. Returns the block offset.
func (h *Handle) newPayload(key uint64, data []uint64) int {
	s := h.sys
	off, blockWords := s.alloc(len(data))
	s.Region.Store(off+hdrKey, key)
	s.Region.Store(off+hdrLen, uint64(len(data)))
	for i, w := range data {
		s.Region.Store(off+hdrWords+i, w)
	}
	e := h.opEpoch()
	h.tx.Defer(func() {
		s.Region.Store(off+hdrBirth, e)
		if !h.noPersist {
			h.addPending(off, blockWords, e)
		}
		s.payloadsBorn.Add(1)
	})
	h.tx.OnAbortUndo(func() {
		s.release(off, 0)
	})
	return off
}

// killPayload retires the payload at off when the enclosing transaction
// commits: its death is stamped with the transaction's epoch, the header
// line is scheduled for write-back, and the block becomes reusable once
// that epoch persists.
func (h *Handle) killPayload(off int) {
	s := h.sys
	e := h.opEpoch()
	h.tx.Defer(func() {
		s.Region.Store(off+hdrDeath, e)
		if h.noPersist {
			s.release(off, 0)
		} else {
			h.addPending(off, hdrWords, e)
			s.release(off, e)
		}
		s.payloadsKilled.Add(1)
	})
}
