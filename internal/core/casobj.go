package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// cell is the unit of state held by a CASObj. Cells are immutable after
// publication; every successful CAS installs a fresh cell, so pointer
// identity of a cell is evidence that a slot has not changed (the role
// played by the 64-bit counter in the paper's 128-bit CASObj).
//
// "Fresh" no longer has to mean "freshly heap-allocated": under pooling
// (TxManager.EnablePooling) displaced cells are retired through EBR into
// per-Tx arenas and reused after a grace period. Reuse would forge the
// pointer-identity argument — a recycled cell at the same address could
// validate a stale ReadWitness — so every reuse bumps the cell's generation
// counter, and witnesses capture (cell, generation) pairs. The EBR grace
// period guarantees no thread still *operates* on a retired cell; the
// generation counter additionally covers witnesses that outlive the grace
// period inside a stale published read set (see publishedReads).
//
// There are two kinds of cell, and a cell keeps its kind for life. The kind
// is bit 0 of gen, set before a descriptor cell is first published; every
// reuse adds 2, so the bit never flips, and a witness comparing the whole
// word checks kind and generation together — the paper's CASObj, a value
// plus a counter that tells an installed descriptor apart. A value cell
// (even gen) holds the slot's real value and nothing else: it is what a
// store at rest consists of, so it carries no descriptor state — 24 bytes
// for a pointer-plus-mark T, 16 for a pointer. A descriptor cell (odd gen)
// is the head of a descCell: its descPart is laid out behind it in the same
// allocation (see dp), and val is the speculative new value of the critical
// CAS that installed it. Every reader therefore handles one pointer type.
//
// A nil *cell is the third state a slot can be in: a CASObj nobody has
// written yet holds the zero value of T without any cell at all — loading
// it allocates nothing, so a lookup that ends in an empty bucket leaves the
// bucket as it found it — and every method that can meet one is
// nil-receiver safe.
//
// gen is atomic because it is the only field a thread may read on a cell
// that has possibly been recycled (via a stale witness); every other field
// is read only on cells reached through a live slot, which the reader's EBR
// critical section keeps stable.
type cell[T comparable] struct {
	val T
	gen atomic.Uint64
}

// descPart is what a descriptor cell knows beyond its speculative value:
// the installing transaction (desc, serial), the displaced value cell prev
// (nil when the slot had never been written), and the owning slot, so that
// any thread holding the cell can uninstall it.
type descPart[T comparable] struct {
	desc   *Desc
	serial uint64
	prev   *cell[T]
	slot   *CASObj[T]
}

// descCell is the allocation unit of a descriptor cell; only its embedded
// cell is ever pointed at from outside, and dp relies on it coming first.
type descCell[T comparable] struct {
	cell[T]
	descPart[T]
}

// value is c.val, with a nil cell standing for the zero value.
func (c *cell[T]) value() T {
	if c == nil {
		var zero T
		return zero
	}
	return c.val
}

// isDesc reports whether c is an installed descriptor cell.
func (c *cell[T]) isDesc() bool { return c != nil && c.gen.Load()&1 != 0 }

// dp is descriptor cell c's descPart: c is the head of a descCell.
func (c *cell[T]) dp() *descPart[T] { return &(*descCell[T])(unsafe.Pointer(c)).descPart }

// ownedBy reports whether descriptor cell c was installed by tx's open
// transaction.
func (c *cell[T]) ownedBy(tx *Tx) bool {
	return c.dp().desc == tx.desc && c.dp().serial == tx.serial
}

// witnessValid implements witnessCell: slot (the *CASObj[T] the witness was
// loaded from) still holds this cell, or a descriptor of the validating
// transaction that displaced it, and the cell has not been recycled since
// the witness was taken. The generation is checked first and re-checked
// after the slot load so that a concurrent recycle-and-reinstall into the
// same slot can never validate. The slot travels in the witness and not in
// the cell: a value cell has no use for it otherwise, and a recycled cell
// then exposes nothing but gen.
//
// A nil receiver is the witness of a never-written slot: it holds while the
// slot's state is still nil (a state that no commit ever restores), or is
// shadowed by the validating transaction's own first write to it.
func (c *cell[T]) witnessValid(slot unsafe.Pointer, d *Desc, serial, gen uint64) bool {
	if c != nil && c.gen.Load() != gen {
		return false
	}
	// cur is freshly loaded from a slot, so its plain fields are stable for
	// this (EBR-protected) reader.
	cur := (*CASObj[T])(slot).state.Load()
	if cur != c {
		if !cur.isDesc() || cur.dp().desc != d || cur.dp().serial != serial || cur.dp().prev != c {
			return false
		}
	}
	return c == nil || c.gen.Load() == gen
}

// helpFinalize gets a foreign descriptor out of the way, following the
// paper's tryFinalize (Fig. 6): load the status word first, then confirm
// the cell is still installed — which proves the loaded word's serial is
// this installation's serial — then drive the transaction to a terminal
// state and uninstall this one cell. tx is the helping thread's context
// (nil outside transactions), used to source and retire cells.
func (c *cell[T]) helpFinalize(tx *Tx) {
	dp := c.dp()
	st := dp.desc.status.Load()
	if dp.slot.state.Load() != c {
		return // already uninstalled; st may belong to a later serial
	}
	st, ok := dp.desc.finalize(st, dp.serial)
	if !ok {
		return
	}
	c.uninstall(tx, statusOf(st) == StatusCommitted)
}

// uninstall replaces this installed descriptor cell with its outcome: a
// fresh value cell carrying the speculative value on commit, or the
// displaced cell on abort. Competing uninstalls (owner and helpers) race on
// the same expected cell; exactly one wins and the rest are no-ops. The
// winner owns retirement: the displaced descriptor cell, and on commit the
// original value cell it shadowed, go to the winner's arena limbo.
func (c *cell[T]) uninstall(tx *Tx, committed bool) {
	dp := c.dp()
	if committed {
		nc := newCell[T](tx)
		nc.val = c.val
		if dp.slot.state.CompareAndSwap(c, nc) {
			retireCell(tx, dp.prev)
			retireCell(tx, c)
		} else {
			freeCell(tx, nc) // lost the uninstall race; nc never published
		}
		return
	}
	if dp.slot.state.CompareAndSwap(c, dp.prev) {
		retireCell(tx, c)
	}
}

// CASObj is a transactional shared word: the augmented atomic object of the
// paper's Figure 1. It may be embedded directly in node structures; the
// zero value is ready to use and holds the zero value of T.
//
// T must be comparable; it is typically a pointer, or a small struct of a
// pointer and a mark bit for structures that tag their links. A structure
// whose links fit 32 bits — an index into its own slab — uses Word, the
// one-word form with no cell behind it (word.go).
type CASObj[T comparable] struct {
	state atomic.Pointer[cell[T]]
}

// NewCASObj returns a CASObj initialized to v.
func NewCASObj[T comparable](v T) *CASObj[T] {
	o := new(CASObj[T])
	o.Init(v)
	return o
}

// Init sets the initial value without synchronization. It must only be used
// before the object is shared (e.g., in constructors), like a plain store
// to a not-yet-published atomic.
func (o *CASObj[T]) Init(v T) {
	o.state.Store(&cell[T]{val: v})
}

// witness captures c — the cell just loaded from o, possibly nil — and its
// generation as read evidence.
func (o *CASObj[T]) witness(c *cell[T]) ReadWitness {
	w := ReadWitness{c: c, slot: unsafe.Pointer(o)}
	if c != nil {
		w.gen = c.gen.Load()
	}
	return w
}

// spinYield yields the processor every spinYieldEvery iterations of a help
// loop. The loops below retry until a foreign descriptor is out of the way;
// that normally takes one or two rounds, but on an oversubscribed box the
// thread that must make progress (the descriptor's owner, or another
// helper) may not be scheduled at all — and a spinning GOMAXPROCS-pinned
// helper occupying its P is exactly what keeps it unscheduled. Yielding
// periodically bounds that livelock without costing the common case a
// branch miss; the debugWedgeThreshold panic stays as the invariant
// backstop far beyond any legitimate wait.
func spinYield(i int) {
	if i != 0 && i&(spinYieldEvery-1) == 0 {
		runtime.Gosched()
	}
}

const spinYieldEvery = 1024

// resolve returns the current value cell (nil for a never-written slot),
// finalizing and uninstalling any foreign descriptor cells it encounters
// along the way.
func (o *CASObj[T]) resolve(tx *Tx) *cell[T] {
	for i := 0; ; i++ {
		spinYield(i)
		c := o.state.Load()
		if !c.isDesc() {
			return c
		}
		c.helpFinalize(tx)
		if i == debugWedgeThreshold {
			panic("medley: resolve wedged (invariant violation): " + o.debugState(nil))
		}
	}
}

// Load is the regular atomic load. It never returns a speculative value: a
// descriptor encountered here is eagerly finalized, per the paper's
// nbtcLoad fallback (readers do not publish metadata, so this costs nothing
// in the common case).
func (o *CASObj[T]) Load() T {
	return o.resolve(nil).value()
}

// Store is the regular atomic store, implemented as a swap loop so that it
// composes correctly with installed descriptors.
func (o *CASObj[T]) Store(v T) {
	for {
		c := o.resolve(nil)
		if o.state.CompareAndSwap(c, &cell[T]{val: v}) {
			return
		}
	}
}

// CAS is the regular atomic compare-and-swap on values.
func (o *CASObj[T]) CAS(expected, desired T) bool {
	return o.casTx(nil, expected, desired)
}

// casTx is CAS with a thread context: displaced cells are retired into tx's
// arena and replacements drawn from it. It is the execution engine of
// DeferCAS and of non-critical CASes.
func (o *CASObj[T]) casTx(tx *Tx, expected, desired T) bool {
	for {
		c := o.resolve(tx)
		if c.value() != expected {
			return false
		}
		if o.swapValue(tx, c, desired) {
			return true
		}
	}
}

// swapValue replaces value cell cur (nil for a never-written slot) with a
// fresh value cell holding v, retiring cur on success.
func (o *CASObj[T]) swapValue(tx *Tx, cur *cell[T], v T) bool {
	nc := newCell[T](tx)
	nc.val = v
	if o.state.CompareAndSwap(cur, nc) {
		retireCell(tx, cur)
		return true
	}
	freeCell(tx, nc)
	return false
}

// NbtcLoad is the transactional load of the paper's Figure 5. Inside a
// transaction it returns the speculative value if the slot holds this
// transaction's own descriptor (starting the speculation interval),
// finalizes foreign descriptors, and otherwise returns the current value
// together with a ReadWitness that the caller may pass to Tx.AddToReadSet
// if this load turns out to be the linearization point of a read-only
// operation. Outside a transaction it degrades to Load.
func (o *CASObj[T]) NbtcLoad(tx *Tx) (T, ReadWitness) {
	if !tx.InTx() {
		c := o.resolve(tx)
		return c.value(), o.witness(c)
	}
	tx.checkDoomed()
	for i := 0; ; i++ {
		spinYield(i)
		c := o.state.Load()
		if !c.isDesc() {
			return c.value(), o.witness(c)
		}
		if c.ownedBy(tx) {
			tx.startSpec()
			return c.val, ReadWitness{}
		}
		c.helpFinalize(tx)
		bump(&tx.desc.shard.HelpEvents)
		if i == debugWedgeThreshold {
			panic("medley: NbtcLoad wedged (invariant violation): " + o.debugState(tx))
		}
	}
}

// NbtcCAS is the transactional CAS of the paper's Figure 5. linPt marks a
// CAS that, if successful, is the operation's linearization point; pubPt
// marks the operation's publication point (the first CAS that could commit
// the operation to success — a linearizing CAS is always also a publication
// point). Critical CASes — those inside the speculation interval — install
// a descriptor cell that takes effect only when the whole transaction
// commits; CASes outside the interval (e.g., helping) execute immediately.
// Outside a transaction NbtcCAS degrades to CAS.
func (o *CASObj[T]) NbtcCAS(tx *Tx, expected, desired T, linPt, pubPt bool) bool {
	if !tx.InTx() {
		return o.casTx(tx, expected, desired)
	}
	tx.checkDoomed()
	for i := 0; ; i++ {
		spinYield(i)
		if i == debugWedgeThreshold {
			panic("medley: NbtcCAS wedged (invariant violation): " + o.debugState(tx))
		}
		cur := o.state.Load()
		// prev is the value cell an abort restores: what a fresh install
		// displaces, or what our own earlier install on this slot displaced.
		prev, own := cur, false
		if cur.isDesc() {
			if !cur.ownedBy(tx) {
				cur.helpFinalize(tx)
				bump(&tx.desc.shard.HelpEvents)
				continue
			}
			// Our own descriptor: the speculation interval covers this
			// access. Compare against the speculative value and, on match,
			// replace our own cell in place.
			tx.startSpec()
			prev, own = cur.dp().prev, true
		}
		if cur.value() != expected {
			return false
		}
		if pubPt {
			tx.startSpec()
		}
		if !tx.inSpec {
			// Non-critical CAS (helping work before the speculation
			// interval): execute immediately.
			if o.swapValue(tx, cur, desired) {
				return true
			}
			continue
		}
		nc := newDescCell(tx, o, prev)
		nc.val = desired
		if o.state.CompareAndSwap(cur, nc) {
			if own {
				// cur (the superseded intermediate descriptor cell) is dead:
				// the slot now holds nc, and settle's uninstall of the stale
				// write-set entry will fail its CAS harmlessly.
				retireCell(tx, cur)
			}
			tx.addWrite(nc)
			if linPt {
				tx.endSpec()
			}
			return true
		}
		freeCell(tx, nc)
		if own {
			// A helper finalized us concurrently; loop to rediscover state.
			continue
		}
		// As in the paper, a failed install is reported to the data
		// structure, whose own retry loop re-runs planning.
		return false
	}
}

// debugWedgeThreshold turns a silently spinning retry loop — which would
// indicate a broken invariant (e.g., an orphaned descriptor cell) — into a
// diagnosable panic. Legitimate contention never approaches this count on
// a single slot within one call.
const debugWedgeThreshold = 200_000_000

// debugState renders the slot's current cell for wedge diagnostics.
func (o *CASObj[T]) debugState(tx *Tx) string {
	c := o.state.Load()
	if !c.isDesc() {
		return fmt.Sprintf("value{%v}", c.value())
	}
	own := tx.InTx() && c.ownedBy(tx)
	st := c.dp().desc.status.Load()
	return fmt.Sprintf("desc{val=%v serial=%d own=%v status(serial=%d,st=%d)}",
		c.val, c.dp().serial, own, serialOf(st), statusOf(st))
}
