package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Word is the paper's transactional object (Figure 1): a shared word that
// every access CASes in place. It holds a 32-bit payload, which the
// structure interprets (mhash: a node index and Michael's mark), and one of
// two states:
//
//   - at rest (bit 0 clear): payload<<32 | counter<<1. Every change of the
//     word advances the 31-bit counter, so the whole word is the read
//     evidence a witness keeps: a witness validates while the slot holds
//     that exact word (see witnessValid).
//   - installed (bit 0 set): serial<<33 | pos<<21 | id<<1 | 1. A critical
//     CAS of the transaction whose descriptor has word id id (wordDescs)
//     and serial number serial (its low 31 bits) is pending here; the
//     speculative and displaced words are entry pos of that descriptor's
//     word entries (wordEntry).
//
// The protocol is the paper's: install, help, finalize on the
// descriptor's status word, uninstall. An installed word's entry joins the
// owner's write set, and a loaded word's witness its read set.
//
// The zero Word is ready to use: payload 0, counter 0. A Word must not be
// copied after first use.
type Word struct{ v atomic.Uint64 }

const (
	wordInstalled   = 1
	wordIDBits      = 20
	wordPosBits     = 12
	wordPosShift    = 1 + wordIDBits
	wordSerialShift = wordPosShift + wordPosBits
	wordSerialMask  = 1<<(64-wordSerialShift) - 1
	wordCounterBits = 31

	// maxWordID bounds the transaction contexts of a process that write
	// words: an id has 20 bits, and 0 means none yet.
	maxWordID = 1<<wordIDBits - 1

	// wordPosOverflow is the last position a word names directly. The
	// installs of a transaction from it on all name it, and a helper finds
	// their entries by slot (Desc.wordEntryOf): a write set of any size
	// works, and the 4,095 before it — more than a service batch holds —
	// cost one lookup.
	wordPosOverflow = 1<<wordPosBits - 1

	wordChunk = 16 // entries per chunk of a descriptor's word entries
)

// counterMask is the width of the at-rest counter. It is a variable only
// so that a test can narrow it and watch the counter wrap; nothing else
// writes it.
var counterMask = uint64(1)<<wordCounterBits - 1

func restWord(p uint32, counter uint64) uint64 {
	return uint64(p)<<32 | (counter&counterMask)<<1
}

func payloadOf(w uint64) uint32       { return uint32(w >> 32) }
func counterOf(w uint64) uint64       { return w >> 1 & (1<<wordCounterBits - 1) }
func isInstalled(w uint64) bool       { return w&wordInstalled != 0 }
func widOf(w uint64) uint32           { return uint32(w >> 1 & maxWordID) }
func posOf(w uint64) int              { return int(w >> wordPosShift & wordPosOverflow) }
func wordSerialOf(w uint64) uint64    { return w >> wordSerialShift }
func serialBits(serial uint64) uint64 { return serial & wordSerialMask }

// advance is the at-rest word that replaces w with payload p.
func advance(w uint64, p uint32) uint64 { return restWord(p, counterOf(w)+1) }

// installedBy reports whether installed word w belongs to the transaction
// (d, serial).
func installedBy(w uint64, d *Desc, serial uint64) bool {
	return widOf(w) == d.wid && wordSerialOf(w) == serialBits(serial)
}

// wordEntry is one install of a transaction's critical CAS on a Word: what
// the descriptor knows about it. old is the displaced at-rest word (what an
// abort restores), new the at-rest word a commit leaves. slot and w, the
// word installed there, let the owner uninstall it from its write set; a
// helper knows the slot already, having loaded w from it. Entries belong to
// the Desc and are reused by its next transaction: old and new are atomic
// because a slow helper may still read an entry the owner is rewriting,
// and such a helper's CAS then fails, since its word is gone.
type wordEntry struct {
	slot     atomic.Pointer[Word]
	w        uint64 // owner-only
	old, new atomic.Uint64
}

// uninstall is the owner's: replace the installed word with the outcome.
// Helpers race it on the same expected word; one wins.
func (e *wordEntry) uninstall(committed bool) {
	out := e.old.Load()
	if committed {
		out = e.new.Load()
	}
	e.slot.Load().v.CompareAndSwap(e.w, out)
	e.slot.Store(nil) // the Desc outlives its structures (wordDescs)
}

// wordEntryAt is entry pos of d's word entries; the owner carved it before
// installing any word that names it.
func (d *Desc) wordEntryAt(pos int) *wordEntry {
	return &(*d.words.Load())[pos/wordChunk][pos%wordChunk]
}

// wordEntryOf is the entry of installed word w, loaded from slot o, or nil
// when a past-overflow install is no longer there to find. A second CAS of
// a transaction on a slot moves its entry's new word in place, so a slot
// gets a second entry only after a helper uninstalled the first, and the
// latest entry naming o is the one o can hold.
func (d *Desc) wordEntryOf(w uint64, o *Word) *wordEntry {
	if pos := posOf(w); pos < wordPosOverflow {
		return d.wordEntryAt(pos)
	}
	for pos := int(d.nwords.Load()) - 1; pos >= wordPosOverflow; pos-- {
		if e := d.wordEntryAt(pos); e.slot.Load() == o {
			return e
		}
	}
	return nil
}

// nextWordEntry carves (or, past the first transaction, reuses) the entry
// for the open transaction's next install.
func (tx *Tx) nextWordEntry() (*wordEntry, int) {
	d := tx.desc
	if d.wid == 0 {
		d.wid = wordDescs.add(d)
	}
	pos := tx.nwords
	p := d.words.Load()
	fresh := p == nil || pos/wordChunk >= len(*p)
	if fresh {
		GrowChunks(&d.words, pos/wordChunk+1)
	}
	if tx.smr != nil {
		bump(&d.shard.PoolGets)
		if !fresh {
			bump(&d.shard.PoolHits)
		}
	}
	if pos >= wordPosOverflow {
		d.nwords.Store(int64(pos + 1))
	}
	return d.wordEntryAt(pos), pos
}

// wordDescs is every descriptor that has installed a word, by word id: how
// a helper finds the transaction an installed word names, whatever manager
// either of them belongs to. An id is taken at a descriptor's first install
// and kept for the life of the process, as the descriptor is: a Tx is meant
// to live as long as its goroutine, and one that installs words is held
// here. So that a held descriptor holds nothing else, an entry drops its
// slot once uninstalled and a transaction's read-set publication goes at
// its finish.
var wordDescs descTable

type descTable struct {
	mu  sync.Mutex
	n   uint32 // ids handed out
	dir atomic.Pointer[[]*[descChunk]atomic.Pointer[Desc]]
}

const descChunk = 1024

func (t *descTable) add(d *Desc) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n == maxWordID {
		panic("medley: more than 2^20-1 transaction contexts have written Words")
	}
	t.n++
	id := t.n
	GrowChunks(&t.dir, int(id/descChunk)+1)[id/descChunk][id%descChunk].Store(d)
	return id
}

// GrowChunks makes the chunk directory dir at least n chunks long and
// returns it. A chunk never moves, so the address of an element is fixed
// for good; callers serialize growth, and readers take no lock: appending
// writes past every published length, where no reader of an older
// directory indexes.
func GrowChunks[C any](dir *atomic.Pointer[[]*C], n int) []*C {
	var d []*C
	if p := dir.Load(); p != nil {
		d = *p
	}
	if len(d) >= n {
		return d
	}
	for len(d) < n {
		d = append(d, new(C))
	}
	dir.Store(&d)
	return d
}

// descOf is the descriptor installed word w names.
func descOf(w uint64) *Desc {
	id := widOf(w)
	return (*wordDescs.dir.Load())[id/descChunk][id%descChunk].Load()
}

// witnessValid holds while o still holds the witnessed word w, or an
// install of the validating transaction that displaced it. A word that has
// changed and come back carries a counter advanced by every change in
// between, so only 2^31 changes to one slot inside one transaction's
// lifetime could make it validate again (DESIGN.md, "Word link").
func (o *Word) witnessValid(d *Desc, serial, w uint64) bool {
	cur := o.v.Load()
	if cur == w {
		return true
	}
	if !isInstalled(cur) || !installedBy(cur, d, serial) {
		return false
	}
	e := d.wordEntryOf(cur, o)
	return e != nil && e.old.Load() == w
}

// witness is the read evidence of at-rest word w loaded from o.
func (o *Word) witness(w uint64) ReadWitness { return ReadWitness{slot: o, w: w} }

// Init sets a word nobody else can reach yet — a node's link being built,
// or reused after its grace period — to payload p. It advances the counter
// it finds rather than starting over, so a witness taken in the slot's
// previous life never validates against the new one.
func (o *Word) Init(p uint32) {
	o.v.Store(advance(o.v.Load(), p))
}

// helpFinalize gets installed word w, just loaded from o, out of the way:
// load the descriptor's status, confirm w is still installed — which makes
// the status word's serial w's own — drive the transaction to a terminal
// state and uninstall w with its outcome (the paper's tryFinalize).
func (o *Word) helpFinalize(w uint64) {
	d := descOf(w)
	st := d.status.Load()
	if o.v.Load() != w || serialBits(serialOf(st)) != wordSerialOf(w) {
		return // already uninstalled: st may belong to a later serial
	}
	st, ok := d.finalize(st, serialOf(st))
	if !ok {
		return
	}
	e := d.wordEntryOf(w, o)
	if e == nil {
		return
	}
	out := e.old.Load()
	if statusOf(st) == StatusCommitted {
		out = e.new.Load()
	}
	o.v.CompareAndSwap(w, out)
}

// resolve returns the word's at-rest state, finalizing and uninstalling
// any installed word it meets.
func (o *Word) resolve() uint64 {
	for i := 0; ; i++ {
		spinYield(i)
		w := o.v.Load()
		if !isInstalled(w) {
			return w
		}
		o.helpFinalize(w)
		if i == debugWedgeThreshold {
			panic("medley: Word resolve wedged (invariant violation): " + o.debugState(nil))
		}
	}
}

// Load is the regular atomic load of the payload. It never returns a
// speculative value: an installed word it meets is finalized first, per
// the paper's nbtcLoad fallback.
func (o *Word) Load() uint32 { return payloadOf(o.resolve()) }

// CAS is the regular compare-and-swap on payloads.
func (o *Word) CAS(expected, desired uint32) bool {
	for {
		w := o.resolve()
		if payloadOf(w) != expected {
			return false
		}
		if o.v.CompareAndSwap(w, advance(w, desired)) {
			return true
		}
	}
}

// NbtcLoad is the transactional load (the paper's Figure 5) on a Word: the
// speculative payload of this transaction's own install (starting the
// speculation interval), or the at-rest payload with a witness the caller
// may pass to Tx.AddToReadSet if this load turns out to be the
// linearization point of a read-only operation. A foreign install it meets
// is finalized first. Outside a transaction it degrades to Load.
func (o *Word) NbtcLoad(tx *Tx) (uint32, ReadWitness) {
	if !tx.InTx() {
		w := o.resolve()
		return payloadOf(w), o.witness(w)
	}
	tx.checkDoomed()
	for i := 0; ; i++ {
		spinYield(i)
		w := o.v.Load()
		if !isInstalled(w) {
			return payloadOf(w), o.witness(w)
		}
		if installedBy(w, tx.desc, tx.serial) {
			tx.startSpec()
			return payloadOf(tx.desc.wordEntryOf(w, o).new.Load()), ReadWitness{}
		}
		o.helpFinalize(w)
		bump(&tx.desc.shard.HelpEvents)
		if i == debugWedgeThreshold {
			panic("medley: Word NbtcLoad wedged (invariant violation): " + o.debugState(tx))
		}
	}
}

// NbtcCAS is the transactional CAS (the paper's Figure 5) on a Word. linPt
// marks a CAS that, if successful, is the operation's linearization point;
// pubPt marks the operation's publication point (the first CAS that could
// commit the operation to success — a linearizing CAS is always also a
// publication point). A critical CAS — one inside the speculation interval
// — installs the transaction's word, which takes effect only when the
// whole transaction commits; one outside the interval (helping) executes
// at once. Outside a transaction it degrades to CAS.
func (o *Word) NbtcCAS(tx *Tx, expected, desired uint32, linPt, pubPt bool) bool {
	if !tx.InTx() {
		return o.CAS(expected, desired)
	}
	tx.checkDoomed()
	for i := 0; ; i++ {
		spinYield(i)
		if i == debugWedgeThreshold {
			panic("medley: Word NbtcCAS wedged (invariant violation): " + o.debugState(tx))
		}
		cur := o.v.Load()
		if isInstalled(cur) {
			if !installedBy(cur, tx.desc, tx.serial) {
				o.helpFinalize(cur)
				bump(&tx.desc.shard.HelpEvents)
				continue
			}
			// Our own install: the speculation interval covers this access.
			// Compare against the speculative word and move it in place; the
			// slot keeps our word. Only the owner reads new before the
			// transaction is InProg, and an abort restores old either way.
			tx.startSpec()
			e := tx.desc.wordEntryOf(cur, o)
			if payloadOf(e.new.Load()) != expected {
				return false
			}
			e.new.Store(advance(e.old.Load(), desired))
			if linPt {
				tx.endSpec()
			}
			return true
		}
		if payloadOf(cur) != expected {
			return false
		}
		if pubPt {
			tx.startSpec()
		}
		if !tx.inSpec {
			if o.v.CompareAndSwap(cur, advance(cur, desired)) {
				return true
			}
			continue
		}
		e, pos := tx.nextWordEntry()
		w := serialBits(tx.serial)<<wordSerialShift | uint64(min(pos, wordPosOverflow))<<wordPosShift |
			uint64(tx.desc.wid)<<1 | wordInstalled
		e.slot.Store(o)
		e.w = w
		e.old.Store(cur)
		e.new.Store(advance(cur, desired))
		if o.v.CompareAndSwap(cur, w) {
			tx.nwords++
			tx.addWrite(e)
			if linPt {
				tx.endSpec()
			}
			return true
		}
		// As in the paper, a failed install is reported to the data
		// structure, whose own retry loop re-runs planning.
		e.slot.Store(nil)
		return false
	}
}

// DeferWordCAS registers a payload CAS on o to run after the transaction
// commits — the unlink a structure defers past its linearizing CAS — and,
// if it succeeds and s is not nil, retires slab index idx of s: whoever
// unlinks a node retires it. Outside a transaction it runs at once.
func DeferWordCAS(tx *Tx, o *Word, expected, desired uint32, s *Slots, idx uint32) {
	tx.Defer(s, o, uint64(expected)<<32|uint64(desired), uint64(idx))
}

// Cleanup is the Cleaner hook DeferWordCAS registers, not for callers: it
// CASes o from a's high half to its low half and, if that succeeds and s
// is not nil, retires index b.
func (s *Slots) Cleanup(tx *Tx, o *Word, a, b uint64) {
	if o.CAS(uint32(a>>32), uint32(a)) && s != nil {
		s.Retire(tx, uint32(b), false)
	}
}

// spinYield yields the processor every spinYieldEvery iterations of a help
// loop. The loops above retry until a foreign install is out of the way;
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

// debugWedgeThreshold turns a silently spinning retry loop — which would
// indicate a broken invariant (e.g., an orphaned install) — into a
// diagnosable panic. Legitimate contention never approaches this count on
// a single slot within one call.
const debugWedgeThreshold = 200_000_000

// debugState renders the word for wedge diagnostics.
func (o *Word) debugState(tx *Tx) string {
	w := o.v.Load()
	if !isInstalled(w) {
		return fmt.Sprintf("word{payload=%#x counter=%d}", payloadOf(w), counterOf(w))
	}
	st := descOf(w).status.Load()
	own := tx.InTx() && installedBy(w, tx.desc, tx.serial)
	return fmt.Sprintf("word{id=%d pos=%d serial=%d own=%v status(serial=%d,st=%d)}",
		widOf(w), posOf(w), wordSerialOf(w), own, serialOf(st), statusOf(st))
}
