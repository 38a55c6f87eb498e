// Package ebr implements epoch-based reclamation (EBR), the safe-memory-
// reclamation scheme used by the paper's data structures (following Fraser's
// thesis and Hart et al., JPDC 2007).
//
// Under Go's garbage collector, reclamation of plain heap nodes is handled
// by the runtime, so retiring a node is *logically* sufficient for safety.
// This package nevertheless implements the full protocol — per-thread epoch
// announcement, three-generation limbo lists, and deferred reclamation
// callbacks — for two reasons: the protocol's bookkeeping cost is part of
// what the paper measures, and structures that hold resources other than
// memory (persistent payloads in txMontage) need a real deferred-free
// mechanism with grace-period semantics.
package ebr

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// generations is the classic three-epoch limbo depth: a block retired in
// epoch e may be freed once the global epoch reaches e+2, at which point no
// thread can still be in a critical section that began in epoch e.
const generations = 3

// Manager is a global EBR domain. All threads operating on structures that
// share retired blocks must use handles from the same Manager.
type Manager struct {
	globalEpoch atomic.Uint64

	mu      sync.Mutex // guards handles registry only
	handles []*Handle

	// Stats. Retire/reclaim counts live in the handles (hot path, one
	// writer each); only the advance count is global.
	advances atomic.Uint64

	// advanceEvery triggers an epoch-advance attempt after this many
	// retires on a single handle.
	advanceEvery int
}

// A handle whose limbo holds limboSlack advance attempts' worth of retires
// has seen that many attempts in a row reclaim nothing: some participant
// sits in a critical section at a stale epoch — preempted, or on a
// processor the host took away. Until it moves, everything this handle
// retires is unreclaimable, and a pooled structure allocates a fresh block
// for each one — blocks that then circulate for the life of the process. At
// a few hundred thousand transactions a second one 100 ms stall is tens of
// megabytes, so the footprint of a run used to be set by the longest stall
// it happened to meet. Enter therefore paces such a handle (awaitGrace):
// a bounded wait for the laggard before each critical section, not a
// block — after graceTries the section starts regardless, so a stalled
// participant slows its peers' retiring down without ever stopping them.
const (
	limboSlack  = 8
	graceYields = 4 // Gosched first: the laggard is usually a parked goroutine
	graceTries  = 24
	graceNap    = 100 * time.Microsecond
)

// New creates an EBR domain. advanceEvery controls how many retires a
// thread accumulates before attempting to advance the global epoch
// (a typical value is 64; 0 selects the default).
func New(advanceEvery int) *Manager {
	if advanceEvery <= 0 {
		advanceEvery = 64
	}
	m := &Manager{advanceEvery: advanceEvery}
	m.globalEpoch.Store(generations) // start above limbo depth
	return m
}

// Pool receives recycled objects once their grace period has elapsed.
// Recycle is always invoked on the goroutine that owns the retiring
// Handle, so single-owner pools need no internal synchronization.
type Pool interface {
	Recycle(obj any)
}

// limboEntry is one retired block: either a deferred-free callback (fn) or
// a pool-routed object (pool, obj). The obj form exists so hot paths can
// retire without allocating a closure per block: storing a pointer in an
// interface does not heap-allocate, and the limbo slices themselves are
// truncated and reused across epochs.
type limboEntry struct {
	fn   func()
	pool Pool
	obj  any
}

func (e *limboEntry) release() {
	if e.fn != nil {
		e.fn()
		return
	}
	e.pool.Recycle(e.obj)
}

// Handle is a per-goroutine participant in the EBR protocol. A Handle must
// not be used from multiple goroutines simultaneously.
type Handle struct {
	mgr *Manager

	// localEpoch is the announced epoch; the low bit is the "active"
	// (in-critical-section) flag, as in Fraser's design. Every TryAdvance
	// (any thread) reads it, so it gets a cache line to itself: without the
	// padding, the owner's writes to the retire-path fields below would
	// ping-pong the line against the advancers' scans.
	localEpoch atomic.Uint64
	_          [56]byte

	limbo        [generations][]limboEntry
	limboEpochs  [generations]uint64
	pending      int // entries across the three limbo slots
	sinceAdvance int

	// Per-handle stat counters: written only by the owning goroutine on
	// the retire hot path (atomic, so Manager.Stats can fold them
	// cross-thread without a data race, but never contended).
	retired   atomic.Uint64
	reclaimed atomic.Uint64
}

// Register creates a handle for the calling goroutine.
func (m *Manager) Register() *Handle {
	h := &Handle{mgr: m}
	h.localEpoch.Store(m.globalEpoch.Load() << 1) // inactive
	m.mu.Lock()
	m.handles = append(m.handles, h)
	m.mu.Unlock()
	return h
}

// Enter begins a critical section: the handle announces the current global
// epoch and is counted as a potential holder of references retired since.
// A handle over its limbo bound first waits, boundedly, for the grace
// period it is owed (see limboSlack): between critical sections it holds
// no references, so this is the one point where it can.
func (h *Handle) Enter() {
	if h.pending >= limboSlack*h.mgr.advanceEvery {
		h.awaitGrace()
	}
	e := h.mgr.globalEpoch.Load()
	h.localEpoch.Store(e<<1 | 1)
}

// awaitGrace tries to advance the epoch until this handle's limbo is back
// under its bound, handing the processor to whoever holds the epoch back
// between attempts. Owner-only, outside any critical section.
func (h *Handle) awaitGrace() {
	bound := limboSlack * h.mgr.advanceEvery
	for i := 0; i < graceTries && h.pending >= bound; i++ {
		if h.TryAdvance() {
			continue
		}
		if i < graceYields {
			runtime.Gosched()
		} else {
			time.Sleep(graceNap)
		}
	}
}

// Exit ends the critical section.
func (h *Handle) Exit() {
	h.localEpoch.Store(h.localEpoch.Load() &^ 1)
}

// Active reports whether the handle is inside a critical section.
func (h *Handle) Active() bool {
	return h.localEpoch.Load()&1 == 1
}

// Retire registers free to be invoked once two epoch advances guarantee no
// reader can still hold a reference obtained before the retire.
func (h *Handle) Retire(free func()) {
	h.retire(limboEntry{fn: free})
}

// RetireInto registers obj to be handed to pool.Recycle after the grace
// period. It is the allocation-free form of Retire: obj is typically a
// pointer (stored in the interface without boxing), and pool is a
// per-goroutine freelist owned by this handle's goroutine.
func (h *Handle) RetireInto(pool Pool, obj any) {
	h.retire(limboEntry{pool: pool, obj: obj})
}

func (h *Handle) retire(e limboEntry) {
	m := h.mgr
	ge := m.globalEpoch.Load()
	slot := int(ge % generations)
	if h.limboEpochs[slot] != ge {
		h.flushSlot(slot)
		h.limboEpochs[slot] = ge
	}
	h.limbo[slot] = append(h.limbo[slot], e)
	h.pending++
	h.retired.Add(1)
	h.sinceAdvance++
	if h.sinceAdvance >= m.advanceEvery {
		h.sinceAdvance = 0
		h.TryAdvance()
	}
}

// flushSlot frees everything in a limbo slot that belonged to an epoch now
// at least two advances old. Entries are cleared as they release so the
// reused backing array does not retain the last epoch's objects.
func (h *Handle) flushSlot(slot int) {
	if len(h.limbo[slot]) == 0 {
		return
	}
	for i := range h.limbo[slot] {
		h.limbo[slot][i].release()
		h.limbo[slot][i] = limboEntry{}
	}
	h.reclaimed.Add(uint64(len(h.limbo[slot])))
	h.pending -= len(h.limbo[slot])
	h.limbo[slot] = h.limbo[slot][:0]
}

// Flush frees every limbo entry whose grace period has elapsed, without
// attempting to advance the epoch. Owner-only, like Retire. Useful at
// full-stop barriers: steady-state retiring only revisits the slot of the
// current epoch, so entries parked in the other slots wait for the epoch
// to rotate back around — which under a starved advance (oversubscription
// parking readers mid-critical-section) can be never. A barrier that
// advances the epoch (see TryAdvance) and then flushes each handle
// reclaims everything at once.
func (h *Handle) Flush() {
	ne := h.mgr.globalEpoch.Load()
	for s := 0; s < generations; s++ {
		if h.limboEpochs[s]+2 <= ne {
			h.flushSlot(s)
		}
	}
}

// TryAdvance attempts to advance the global epoch: it succeeds only if
// every active handle has announced the current epoch. On success, blocks
// retired two epochs ago become reclaimable and this handle frees its own
// expired limbo.
func (h *Handle) TryAdvance() bool {
	m := h.mgr
	e := m.globalEpoch.Load()
	m.mu.Lock()
	for _, other := range m.handles {
		le := other.localEpoch.Load()
		if le&1 == 1 && le>>1 != e {
			m.mu.Unlock()
			return false
		}
	}
	m.mu.Unlock()
	if m.globalEpoch.CompareAndSwap(e, e+1) {
		m.advances.Add(1)
	}
	// Whether we or a racer advanced, expired limbo can be flushed.
	ne := m.globalEpoch.Load()
	for s := 0; s < generations; s++ {
		if h.limboEpochs[s]+2 <= ne {
			h.flushSlot(s)
		}
	}
	return true
}

// Drain reclaims all limbo on this handle unconditionally. Only safe when
// the caller knows no other thread holds references (e.g., tests and
// shutdown).
func (h *Handle) Drain() {
	for s := 0; s < generations; s++ {
		h.flushSlot(s)
		h.limboEpochs[s] = 0
	}
}

// Stats is a snapshot of domain counters.
type Stats struct {
	Epoch     uint64
	Retired   uint64
	Reclaimed uint64
	Advances  uint64
}

// Stats returns a snapshot of the domain's counters, folding the
// per-handle retire/reclaim counts.
func (m *Manager) Stats() Stats {
	s := Stats{
		Epoch:    m.globalEpoch.Load(),
		Advances: m.advances.Load(),
	}
	m.mu.Lock()
	handles := m.handles
	m.mu.Unlock()
	for _, h := range handles {
		s.Retired += h.retired.Load()
		s.Reclaimed += h.reclaimed.Load()
	}
	return s
}
