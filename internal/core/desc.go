package core

import "sync/atomic"

// Transaction status codes, stored in the low two bits of a descriptor's
// status word. The remaining 62 bits hold the descriptor's serial number,
// exactly as in Figure 4 of the paper (we fold the thread id into the serial
// space since descriptors are per-Tx and never migrate).
const (
	// StatusInPrep is the initial state: the transaction is installing
	// words and may still grow its read and write sets.
	StatusInPrep = uint64(0)
	// StatusInProg means the owner has called End and the transaction is
	// ready to commit pending read-set validation; helpers may push it to
	// Committed or Aborted.
	StatusInProg = uint64(1)
	// StatusCommitted is terminal: installed words resolve to their new
	// values.
	StatusCommitted = uint64(2)
	// StatusAborted is terminal: installed words resolve to their displaced
	// old values.
	StatusAborted = uint64(3)
)

const statusMask = uint64(3)

func packStatus(serial, status uint64) uint64 { return serial<<2 | status }
func serialOf(word uint64) uint64             { return word >> 2 }
func statusOf(word uint64) uint64             { return word & statusMask }

// ReadWitness is the evidence returned by Word.NbtcLoad that lets the
// transaction validate, at commit time, that the loaded value still governs
// the slot: the paper's {addr, val, cnt} read-set entry. It names the Word
// and the whole at-rest word loaded from it, payload and counter: every
// change of a Word advances its counter, so the witness holds while the
// Word still holds that exact word, or an install of the validating
// transaction that displaced it (the paper's transfer example performs
// get(a2) followed by put(a2)). A Word in a recycled slab node advances its
// counter when it is Init'ed, so a witness of the node's previous life
// never validates either.
//
// The zero ReadWitness is always valid and is ignored by Tx.AddToReadSet.
// A ReadWitness is opaque; pass it to Tx.AddToReadSet from the linearizing
// load of a read-only operation.
type ReadWitness struct {
	slot *Word  // nil: no evidence
	w    uint64 // the at-rest word loaded
}

// isZero reports whether the witness carries no evidence (the witness of a
// speculative self-read, or an unset field).
func (w ReadWitness) isZero() bool { return w.slot == nil }

// valid re-checks the witness for transaction (d, serial).
func (w ReadWitness) valid(d *Desc, serial uint64) bool {
	return w.slot == nil || w.slot.witnessValid(d, serial, w.w)
}

// publishedReads is the owner's read set as published (with a release
// store) immediately before the InPrep→InProg transition, so that helpers
// observing InProg can validate on the owner's behalf. The slice is frozen:
// the owner never mutates a published one. On a Tx with an EBR handle the
// struct and its backing array are recycled through EBR — a publication is
// withdrawn and retired when its transaction finishes, so a slow helper
// still iterating it always sees intact (if stale) entries, and the serial
// check plus the Words' counters make stale validation harmless.
type publishedReads struct {
	serial  uint64
	entries []ReadWitness
}

// Desc is a transaction descriptor: what the words installed by critical
// CASes name, and the carrier of the status word on which
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
// to a later serial (in which case every word of the old serial has been
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
