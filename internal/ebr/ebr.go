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
//
// Limbo is priced in blocks, not in calls. One retire may stand for many
// blocks — a transaction's displaced cells ride to limbo as a single entry
// (RetireBatch) — and the pressure on memory is what the entries hold, so
// the advance trigger counts blocks: a handle attempts an epoch advance
// every advanceEvery retired blocks, however many calls brought them.
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

	// handles is the registry: append-only and published copy-on-write, so
	// an advance attempt is one load and a scan. mu serializes Register.
	mu      sync.Mutex
	handles atomic.Pointer[[]*Handle]

	// Stats. Retire/reclaim counts live in the handles (hot path, one
	// writer each); only the advance count is global.
	advances atomic.Uint64

	// advanceEvery triggers an epoch-advance attempt after this many
	// retired blocks on a single handle (a batch counts its length).
	advanceEvery int
}

// A handle whose last limboSlack advance attempts all failed has a
// participant sitting in a critical section at a stale epoch — preempted,
// or on a processor the host took away. Until it moves, everything this
// handle retires is unreclaimable, and a pooled structure allocates a fresh
// block for each one — blocks that then circulate for the life of the
// process. At a few hundred thousand transactions a second one 100 ms
// stall is tens of megabytes, so the footprint of a run used to be set by
// the longest stall it happened to meet. Enter therefore paces such a
// handle (awaitGrace): a bounded wait for the laggard before each critical
// section, not a block — after graceTries the section starts regardless,
// so a stalled participant slows its peers' retiring down without ever
// stopping them.
// The test is on attempts, not on how much limbo holds: a bulk transaction
// makes one attempt per settle whatever its size, so it cannot trip the
// pacing by size alone.
const (
	limboSlack  = 8
	graceYields = 4 // Gosched first: the laggard is usually a parked goroutine
	graceTries  = 24
	graceNap    = 100 * time.Microsecond
)

// New creates an EBR domain. advanceEvery controls how many retired blocks
// a thread accumulates before attempting to advance the global epoch
// (a typical value is 64; 0 selects the default).
func New(advanceEvery int) *Manager {
	if advanceEvery <= 0 {
		advanceEvery = 64
	}
	m := &Manager{advanceEvery: advanceEvery}
	m.handles.Store(new([]*Handle))
	m.globalEpoch.Store(generations) // start above limbo depth
	return m
}

// Pool receives recycled objects once their grace period has elapsed.
// Recycle is always invoked on the goroutine that owns the retiring
// Handle, so single-owner pools need no internal synchronization.
type Pool interface {
	Recycle(obj any)
}

// limboEntry is one retire: either a deferred-free callback (fn) or a
// pool-routed object (pool, obj) — one block, or a batch of them the pool
// unpacks. The obj form exists so hot paths can retire without allocating
// a closure per block: storing a pointer in an interface does not
// heap-allocate, and the limbo slices themselves are truncated and reused
// across epochs.
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
	sinceAdvance int // blocks retired since the last advance attempt
	failed       int // advance attempts in a row that found a laggard

	// Per-handle stat counters, in limbo entries: written only by the
	// owning goroutine on the retire hot path, so a bump is a load and a
	// store (see bump) — atomic only so Manager.Stats can fold them
	// cross-thread without a data race.
	retired   atomic.Uint64
	reclaimed atomic.Uint64
}

// bump adds n to a counter only its owner writes: no locked
// read-modify-write, as core.StatShard's counters.
func bump(c *atomic.Uint64, n uint64) { c.Store(c.Load() + n) }

// Register creates a handle for the calling goroutine.
func (m *Manager) Register() *Handle {
	h := &Handle{mgr: m}
	h.localEpoch.Store(m.globalEpoch.Load() << 1) // inactive
	m.mu.Lock()
	old := *m.handles.Load()
	grown := append(old[:len(old):len(old)], h) // full slice: always a copy
	m.handles.Store(&grown)
	m.mu.Unlock()
	return h
}

// Enter begins a critical section: the handle announces the current global
// epoch and is counted as a potential holder of references retired since.
// A handle whose advance attempts keep failing first waits, boundedly, for
// the laggard (see limboSlack): between critical sections it holds no
// references, so this is the one point where it can.
func (h *Handle) Enter() {
	if h.failed >= limboSlack {
		h.awaitGrace()
	}
	e := h.mgr.globalEpoch.Load()
	h.localEpoch.Store(e<<1 | 1)
}

// awaitGrace retries the advance until one succeeds, handing the
// processor to whoever holds the epoch back between attempts. Owner-only,
// outside any critical section.
func (h *Handle) awaitGrace() {
	for i := 0; i < graceTries; i++ {
		if h.TryAdvance() {
			return
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
	h.retire(limboEntry{fn: free}, 1)
}

// RetireInto registers obj to be handed to pool.Recycle after the grace
// period. It is the allocation-free form of Retire: obj is typically a
// pointer (stored in the interface without boxing), and pool is a
// per-goroutine freelist owned by this handle's goroutine.
func (h *Handle) RetireInto(pool Pool, obj any) {
	h.retire(limboEntry{pool: pool, obj: obj}, 1)
}

// RetireBatch is RetireInto for an obj that stands for n blocks which
// pool.Recycle unpacks: one limbo entry, n blocks towards the next advance
// attempt — so a transaction that displaces advanceEvery cells attempts an
// advance at its own settle.
func (h *Handle) RetireBatch(pool Pool, obj any, n int) {
	h.retire(limboEntry{pool: pool, obj: obj}, n)
}

func (h *Handle) retire(e limboEntry, blocks int) {
	m := h.mgr
	ge := m.globalEpoch.Load()
	slot := int(ge % generations)
	if h.limboEpochs[slot] != ge {
		h.flushSlot(slot)
		h.limboEpochs[slot] = ge
	}
	h.limbo[slot] = append(h.limbo[slot], e)
	bump(&h.retired, 1)
	h.sinceAdvance += blocks
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
	bump(&h.reclaimed, uint64(len(h.limbo[slot])))
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
// expired limbo. Owner-only, like Retire. A handle registered after the
// registry load below is missed by the scan, harmlessly: it announces the
// epoch it reads at its first Enter, which is this one or the next.
func (h *Handle) TryAdvance() bool {
	m := h.mgr
	e := m.globalEpoch.Load()
	for _, other := range *m.handles.Load() {
		le := other.localEpoch.Load()
		if le&1 == 1 && le>>1 != e {
			h.failed++
			return false
		}
	}
	h.failed = 0
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

// Stats is a snapshot of domain counters. Retired and Reclaimed count limbo
// entries (retire calls), not the blocks they stand for.
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
	for _, h := range *m.handles.Load() {
		s.Retired += h.retired.Load()
		s.Reclaimed += h.reclaimed.Load()
	}
	return s
}
