// Per-Tx recycling arenas: the allocation-free hot path.
//
// Every successful critical CAS used to install a freshly heap-allocated
// cell, and every structure insert a freshly allocated node, so at high
// transaction rates GC pressure dominated the non-algorithmic cost of the
// core. This file adds per-Tx freelists for cells (cellArena) with
// EBR-guarded recycling; a structure whose links are Words recycles its
// nodes through its slab's Slots instead (slots.go):
//
//   - a displaced cell is retired into the retiring Tx's EBR limbo
//     (Handle.RetireInto — no closure allocation), a settle's worth of
//     them as one entry that carries its length (Handle.RetireBatch): EBR
//     prices limbo in blocks, so a transaction that displaces hundreds of
//     cells attempts an epoch advance at its own settle and draws its next
//     cells from the pool, not from a fresh slab;
//   - after the grace period the EBR flush, which runs on the retiring
//     goroutine, hands it to that goroutine's pool (ebr.Pool.Recycle);
//   - reuse bumps the cell's generation counter, so a ReadWitness taken
//     during the cell's previous life can never validate (see
//     cell.witnessValid).
//
// Pools are single-owner: only the owning goroutine gets from or recycles
// into them, because EBR flushes run on the retiring handle's goroutine and
// each Tx retires into its own arena. Cells therefore migrate between Txs
// (whoever displaces a cell keeps it), which keeps pools balanced without
// any cross-thread synchronization.
//
// Soundness requires that no thread can reach a recycled block. Two rules
// deliver that:
//
//  1. every goroutine touching pooled structures holds an EBR critical
//     section (Handle.Enter/Exit) across each transaction or bare
//     operation — the harness workers already do; and
//  2. cells are retired only once unreachable from the live structure:
//     when displaced from their slot.
//
// Witnesses in a stale published read set are the one reference that can
// outlive rule 1 (the read set keeps cells reachable after they are
// unlinked); the per-cell generation counter, read atomically and the only
// field such a witness touches, makes that path safe (see
// cell.witnessValid).
package core

import (
	"unsafe"

	"medley/internal/ebr"
)

// poolRetirer is the capability Tx.SetSMR detects to enable pooling: an
// SMR domain handle that can retire objects into pools without allocating.
// *ebr.Handle satisfies it.
type poolRetirer interface {
	Retirer
	RetireInto(pool ebr.Pool, obj any)
	RetireBatch(pool ebr.Pool, obj any, blocks int)
}

// txPool is one per-Tx pool (a cellArena[T] or a slotCache); settle runs at
// transaction settle to execute deferred CASes and flush pending retires.
type txPool interface {
	settle(tx *Tx, committed bool)
}

// deferredCAS is one commit-deferred CAS (see DeferCAS).
type deferredCAS[T comparable] struct {
	slot              *CASObj[T]
	expected, desired T
}

// cellArena is the per-Tx pair of cell[T] freelists — value cells and
// descriptor cells, which differ in size and never change kind — plus the
// deferred-CAS list for T. Single-owner; see the package comment.
type cellArena[T comparable] struct {
	tx       *Tx
	free     []*cell[T] // value cells (even gen)
	freeDesc []*cell[T] // descriptor cells (odd gen)
	def      []deferredCAS[T]

	// pending accumulates displaced cells between settles; each settle
	// ships the whole batch to EBR limbo as ONE entry weighing its length
	// (a cellBatch whose backing array cycles back through the arena), so
	// the per-displacement cost is a plain append instead of a limbo append
	// with its write barriers. Displacements are physical facts independent
	// of the transaction outcome, so the batch flushes on commit and abort
	// alike.
	pending     []*cell[T]
	freeBatches []*cellBatch[T]

	// slab and descSlab are the bump allocators behind pool misses: cells
	// are carved from a block of slabCells instead of allocated one by
	// one, so a burst of misses (a cold pool, or EBR advance starved by
	// oversubscription parking readers mid-transaction) costs one GC
	// allocation per slab rather than one per cell. Pooled cells are
	// immortal — once carved they circulate through freelists forever — so
	// slab backing memory never needs to free individually.
	slab     []cell[T]
	descSlab []descCell[T]

	// Plain counters, owner-only; flushed to the owner's StatShard once
	// per settle so the hot path performs no atomic ops for telemetry.
	gets, hits, retires uint64
}

// cellBatch is one settle's worth of displaced cells riding through EBR
// limbo as a single entry.
type cellBatch[T comparable] struct {
	cells []*cell[T]
}

// arenaFor returns tx's arena for T, creating it on first use. The lookup
// is a linear scan with a type assertion — a pointer comparison of type
// descriptors — over the handful of instantiations a Tx ever sees.
func arenaFor[T comparable](tx *Tx) *cellArena[T] {
	for _, p := range tx.pools {
		if a, ok := p.(*cellArena[T]); ok {
			return a
		}
	}
	a := &cellArena[T]{tx: tx}
	tx.pools = append(tx.pools, a)
	return a
}

// slabCells is how many cells of the given size one pool-miss slab carves
// into: as many as fit in 512 bytes, the largest block the Go allocator
// serves without prepending a malloc header. A 1 KB slab of 32-byte cells
// lands in the 1152-byte size class for that header's sake — an eighth
// wasted on every cell of a store at rest; 512 bytes is its own class.
func slabCells(size uintptr) int { return max(1, int(512/size)) }

// pop takes the most recently recycled cell off a freelist, nil if empty.
func pop[T comparable](free *[]*cell[T]) *cell[T] {
	n := len(*free)
	if n == 0 {
		return nil
	}
	c := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return c
}

// get pops a recycled value cell (grace period already elapsed) or carves
// one from the miss slab.
func (a *cellArena[T]) get() *cell[T] {
	a.gets++
	if c := pop(&a.free); c != nil {
		a.hits++
		return c
	}
	if len(a.slab) == 0 {
		a.slab = make([]cell[T], slabCells(unsafe.Sizeof(cell[T]{})))
	}
	c := &a.slab[0]
	a.slab = a.slab[1:]
	return c
}

// getDesc is get for descriptor cells; the caller fills the descPart. A
// cell carved fresh gets its kind bit here, before it can be published.
func (a *cellArena[T]) getDesc() *cell[T] {
	a.gets++
	if c := pop(&a.freeDesc); c != nil {
		a.hits++
		return c
	}
	if len(a.descSlab) == 0 {
		a.descSlab = make([]descCell[T], slabCells(unsafe.Sizeof(descCell[T]{})))
	}
	c := &a.descSlab[0].cell
	a.descSlab = a.descSlab[1:]
	c.gen.Store(1)
	return c
}

// put clears c of everything it references and returns it to the freelist
// of its kind. Called directly for a never-published cell (a CAS install
// that lost its race): no grace period or generation bump is needed, since
// no other thread can have observed the cell.
func (a *cellArena[T]) put(c *cell[T]) {
	var zero T
	c.val = zero
	if !c.isDesc() {
		a.free = append(a.free, c)
		return
	}
	*c.dp() = descPart[T]{}
	a.freeDesc = append(a.freeDesc, c)
}

// Recycle implements ebr.Pool: called by the EBR flush on the owning
// goroutine once the grace period has elapsed, with either one cell or a
// whole cellBatch. The generation bump is what invalidates any witness
// that still names a recycled cell.
func (a *cellArena[T]) Recycle(obj any) {
	if b, ok := obj.(*cellBatch[T]); ok {
		for i, c := range b.cells {
			a.recycleCell(c)
			b.cells[i] = nil
		}
		b.cells = b.cells[:0]
		a.freeBatches = append(a.freeBatches, b)
		return
	}
	a.recycleCell(obj.(*cell[T]))
}

func (a *cellArena[T]) recycleCell(c *cell[T]) {
	c.gen.Add(2) // bit 0 is the kind
	a.put(c)
}

// settle implements txPool: on commit, execute the deferred CASes in
// registration order; in both outcomes, ship the pending displaced cells
// to limbo as one batch and truncate for reuse.
func (a *cellArena[T]) settle(tx *Tx, committed bool) {
	if committed {
		for i := range a.def {
			d := &a.def[i]
			d.slot.casTx(tx, d.expected, d.desired)
		}
	}
	clear(a.def)
	a.def = a.def[:0]
	if len(a.pending) > 0 {
		var b *cellBatch[T]
		if n := len(a.freeBatches); n > 0 {
			b = a.freeBatches[n-1]
			a.freeBatches[n-1] = nil
			a.freeBatches = a.freeBatches[:n-1]
		} else {
			b = &cellBatch[T]{}
		}
		// Swap: the batch takes the filled slice, the arena keeps the
		// batch's empty spare for the next transaction.
		b.cells, a.pending = a.pending, b.cells[:0]
		tx.pr.RetireBatch(a, b, len(b.cells))
	}
	flushPoolStats(tx, &a.gets, &a.hits, &a.retires)
}

// flushPoolStats folds a pool's owner-local counters into the owner's
// StatShard (a few single-writer counter stores per transaction rather
// than an atomic add per allocation) and zeroes them.
func flushPoolStats(tx *Tx, gets, hits, retires *uint64) {
	shard := tx.desc.shard
	if *gets != 0 {
		bumpN(&shard.PoolGets, *gets)
		bumpN(&shard.PoolHits, *hits)
		*gets, *hits = 0, 0
	}
	if *retires != 0 {
		bumpN(&shard.PoolRetires, *retires)
		*retires = 0
	}
}

// newCell sources a value cell: from tx's arena under pooling, from the
// heap otherwise (including tx == nil).
func newCell[T comparable](tx *Tx) *cell[T] {
	if tx != nil && tx.pooled {
		return arenaFor[T](tx).get()
	}
	return &cell[T]{}
}

// newDescCell sources a descriptor cell for tx's open transaction to
// install in slot o over value cell prev.
func newDescCell[T comparable](tx *Tx, o *CASObj[T], prev *cell[T]) *cell[T] {
	var c *cell[T]
	if tx.pooled {
		c = arenaFor[T](tx).getDesc()
	} else {
		c = &(&descCell[T]{}).cell
		c.gen.Store(1)
	}
	*c.dp() = descPart[T]{desc: tx.desc, serial: tx.serial, prev: prev, slot: o}
	return c
}

// retireCell schedules a displaced (published, now unreachable-from-slot)
// cell for recycling after a grace period. Without pooling the cell is
// simply dropped for the garbage collector, which is always safe.
func retireCell[T comparable](tx *Tx, c *cell[T]) {
	if c == nil || tx == nil || !tx.pooled {
		return
	}
	a := arenaFor[T](tx)
	a.retires++
	a.pending = append(a.pending, c)
	// The batch ships at this Tx's next settle. A displacement outside any
	// transaction (deferred unlinks run post-settle, helping during bare
	// ops) just waits in pending until the Tx transacts again, or closes
	// its run of bare ops (SettleBare) — the grace clock starts later than
	// necessary, which is always safe.
}

// freeCell returns a never-published cell directly to tx's arena.
func freeCell[T comparable](tx *Tx, c *cell[T]) {
	if tx != nil && tx.pooled {
		arenaFor[T](tx).put(c)
	}
}

// DeferCAS registers a plain value CAS on o to run after the transaction
// commits — the allocation-free replacement for the
// tx.Defer(func() { o.CAS(...) }) unlink idiom of the transformed
// structures. Outside a transaction the CAS executes immediately, matching
// Tx.Defer's semantics. Deferred CASes run at settle after closure
// cleanups, in registration order per value type; displaced cells are
// retired into the Tx's arena.
func DeferCAS[T comparable](tx *Tx, o *CASObj[T], expected, desired T) {
	if !tx.InTx() {
		o.casTx(tx, expected, desired)
		return
	}
	a := arenaFor[T](tx)
	a.def = append(a.def, deferredCAS[T]{slot: o, expected: expected, desired: desired})
}
