package core

import (
	"sync/atomic"
	"unsafe"
)

// Transaction status codes, stored in the low two bits of a descriptor's
// status word. The remaining 62 bits hold the descriptor's serial number,
// exactly as in Figure 4 of the paper (we fold the thread id into the serial
// space since descriptors are per-Tx and never migrate).
const (
	// StatusInPrep is the initial state: the transaction is installing
	// descriptor cells and may still grow its read and write sets.
	StatusInPrep = uint64(0)
	// StatusInProg means the owner has called End and the transaction is
	// ready to commit pending read-set validation; helpers may push it to
	// Committed or Aborted.
	StatusInProg = uint64(1)
	// StatusCommitted is terminal: installed cells resolve to their new
	// values.
	StatusCommitted = uint64(2)
	// StatusAborted is terminal: installed cells resolve to their displaced
	// old values.
	StatusAborted = uint64(3)
)

const statusMask = uint64(3)

func packStatus(serial, status uint64) uint64 { return serial<<2 | status }
func serialOf(word uint64) uint64             { return word >> 2 }
func statusOf(word uint64) uint64             { return word & statusMask }

// ReadWitness is the evidence returned by CASObj.NbtcLoad that lets the
// transaction validate, at commit time, that the loaded value still governs
// the slot. It corresponds to the {addr, val, cnt} read-set entries of the
// paper; here validity is pointer identity of the immutable cell (or
// identity of the displaced cell when the transaction has since installed
// its own descriptor over the same slot, which the paper's transfer example
// performs via get(a2) followed by put(a2)), combined with the cell's
// generation counter: when cells are recycled through a Tx arena
// (TxManager.EnablePooling), the generation captured at load time is the
// proof that the witnessed cell has not been reused since — a recycled cell
// at the same address carries a bumped generation and can never validate a
// stale read.
//
// ReadWitness is a small concrete struct rather than an interface so that
// the common path — appending to and scanning the read set — involves no
// interface boxing and only one indirect call per entry. It names the slot
// as well as the cell: a value cell does not know where it is installed
// (see cell), so the witness carries the one back-pointer validation needs,
// type-erased because ReadWitness is not generic; the cell's method restores
// the type. The zero ReadWitness is always valid and is ignored by
// Tx.AddToReadSet.
//
// A ReadWitness is opaque; pass it to Tx.AddToReadSet from the linearizing
// load of a read-only operation.
type ReadWitness struct {
	c    witnessCell    // witnessed cell (typed nil: slot never written), or wordWitness
	gen  uint64         // cell generation observed at load time (a Word's whole word)
	slot unsafe.Pointer // the *CASObj[T] or *Word c was loaded from
}

// witnessCell is the one indirect call a witness needs; it is implemented
// by *cell[T] for every T and by wordWitness, and holding either in the
// interface does not allocate.
type witnessCell interface {
	witnessValid(slot unsafe.Pointer, d *Desc, serial, gen uint64) bool
}

// isZero reports whether the witness carries no evidence (the witness of a
// speculative self-read, or an unset field).
func (w ReadWitness) isZero() bool { return w.c == nil }

// valid re-checks the witness for transaction (d, serial).
func (w ReadWitness) valid(d *Desc, serial uint64) bool {
	return w.c == nil || w.c.witnessValid(w.slot, d, serial, w.gen)
}

// writeCell is an installed descriptor cell recorded in the owner's write
// set so the owner can uninstall everything on commit or abort. Helpers
// never touch the write set: the cell itself carries enough state
// (speculative value and, in its descPart, slot back-pointer and displaced
// cell) for a helper to uninstall the one cell it encountered. The *Tx
// argument is the uninstalling thread's context (nil outside transactions):
// displaced cells are retired into its arena when pooling is on.
type writeCell interface {
	uninstall(tx *Tx, committed bool)
}

// publishedReads is the owner's read set as published (with a release
// store) immediately before the InPrep→InProg transition, so that helpers
// observing InProg can validate on the owner's behalf. The slice is frozen:
// the owner never mutates a published one. Under pooling the struct and its
// backing array are recycled through EBR — a publication is withdrawn and
// retired when its transaction finishes, so a slow helper still iterating
// it always sees intact (if stale) entries, and the serial check plus
// per-cell generation counters make stale validation harmless.
type publishedReads struct {
	serial  uint64
	entries []ReadWitness
}

// Desc is a transaction descriptor: the target of the pointers installed in
// CASObjs by critical CASes, and the carrier of the status word on which
// MCNS linearizes. One Desc belongs to exactly one Tx and is reused across
// that Tx's transactions, distinguished by serial number.
//
// Its word entries are what an installed Word names (word.go): grow-only
// chunks, reused by every transaction of the Desc. nwords is the entry
// count as of the open transaction's last install past wordPosOverflow,
// where helpers search; any word that names that position was installed
// after it was stored.
type Desc struct {
	status   atomic.Uint64 // serial<<2 | status
	reads    atomic.Pointer[publishedReads]
	tid      int
	mgr      *TxManager
	shard    *StatShard // owner's statistics shard
	words    atomic.Pointer[[]*[wordChunk]wordEntry]
	nwords   atomic.Int64
	wid      uint32    // word id (wordDescs), 0 until the first install
	_padding [1]uint64 // keep descriptors on distinct cache lines
}

// stsCAS attempts the expected→desired status transition carrying the full
// status word (serial included) so a helper can never affect a later
// transaction that reuses this descriptor.
func (d *Desc) stsCAS(word, expected, desired uint64) bool {
	base := word &^ statusMask
	return d.status.CompareAndSwap(base|expected, base|desired)
}

// validatePublished re-checks the published read set for the given serial.
// It returns false both on genuine invalidation and when the publication is
// stale (the owner has moved on), in which case the caller's subsequent
// status reload bails out on the serial mismatch.
func (d *Desc) validatePublished(serial uint64) bool {
	rp := d.reads.Load()
	if rp == nil || rp.serial != serial {
		return false
	}
	for _, w := range rp.entries {
		if !w.valid(d, serial) {
			return false
		}
	}
	return true
}

// finalize drives the descriptor, observed with status word st carrying
// serial, to a terminal state: abort if InPrep (eager contention
// management), help validate and commit if InProg. It returns the terminal
// status word for that serial, or (0, false) if the owner has already moved
// to a later serial (in which case every cell of the old serial has been
// uninstalled and the caller's pending CAS will fail harmlessly).
func (d *Desc) finalize(st, serial uint64) (uint64, bool) {
	if serialOf(st) != serial {
		return 0, false
	}
	if statusOf(st) == StatusInPrep {
		if d.stsCAS(st, StatusInPrep, StatusAborted) {
			d.shard.AbortsByOthers.Add(1)
		}
		st = d.status.Load()
		if serialOf(st) != serial {
			return 0, false
		}
	}
	if statusOf(st) == StatusInProg {
		if d.validatePublished(serial) {
			d.stsCAS(st, StatusInProg, StatusCommitted)
		} else {
			d.stsCAS(st, StatusInProg, StatusAborted)
		}
		st = d.status.Load()
		if serialOf(st) != serial {
			return 0, false
		}
	}
	return st, true
}
