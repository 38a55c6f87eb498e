package core

import (
	"errors"

	"medley/internal/ebr"
)

// ErrTxAborted is returned by Tx.End / Tx.Run when the transaction aborted,
// whether explicitly (Tx.Abort), by failed read validation, or by a
// conflicting transaction's eager contention management.
var ErrTxAborted = errors.New("medley: transaction aborted")

// abortSignal is the panic payload used by Tx.Abort to unwind out of
// arbitrarily deep data structure code, mirroring the paper's
// TransactionAborted exception. Tx.Run recovers it.
type abortSignal struct{}

// Tx is a per-goroutine transaction context. It owns one Desc, reused
// across transactions and distinguished by serial number. A Tx must not be
// shared between goroutines.
//
// Most data structure operations accept a *Tx; a nil *Tx (or one with no
// transaction open) elides all instrumentation, so the same structure can
// be used transactionally and non-transactionally.
type Tx struct {
	mgr    *TxManager
	desc   *Desc
	serial uint64
	active bool
	inSpec bool
	fast   bool // commit fast paths enabled (TxManager.FastPathsEnabled at Register)

	reads    []ReadWitness // published at End; see readsFree for reuse rules
	writes   []*wordEntry  // owner-only: truncate-and-reuse
	cleanups []cleanup     // post-commit work (Defer); owner-only
	nwords   int           // word entries installed this transaction (word.go)

	beginHooks  []func(*Tx)       // run at Begin; txMontage hooks the epoch here
	finishHooks []func(*Tx, bool) // run after settle; arg is committed

	// smr is the EBR handle (SetSMR): the critical section RunRetry steps
	// out of across backoff sleeps, and the domain the slab indexes this
	// Tx unlinks and its published read sets wait out their grace period
	// in. pools holds this Tx's slab index caches (Slots); readsFree/rpFree
	// hold read-set backing arrays and publishedReads shells whose grace
	// period (or non-publication) makes reuse safe.
	smr       *ebr.Handle
	pools     []*slotCache
	published bool // current read set was published to helpers at End
	readsFree [][]ReadWitness
	rpFree    []*publishedReads
	rpBin     rpBin

	rngState uint64     // xorshift state for RunRetry backoff jitter
	cm       contention // adaptive backoff state (backoff.go); owner-only

	// Commit-order ticketing (ticket.go): nil ticketer elides it all.
	ticketer     CommitTicketer
	ticket       uint64 // drawn for the open transaction
	ticketDrawn  bool
	lastTicket   uint64 // ticket of the last committed transaction
	lastTicketOK bool
}

// rpBin is the ebr.Pool that receives a retired publishedReads once no
// helper can still iterate it; it splits the shell and the backing array
// back into the owner's free lists.
type rpBin struct{ tx *Tx }

// Recycle implements ebr.Pool; it runs on the owning goroutine.
func (b *rpBin) Recycle(obj any) {
	rp := obj.(*publishedReads)
	clear(rp.entries)
	b.tx.readsFree = append(b.tx.readsFree, rp.entries[:0])
	rp.entries = nil
	rp.serial = 0
	b.tx.rpFree = append(b.tx.rpFree, rp)
}

// InTx reports whether a transaction is currently open. It is safe to call
// on a nil Tx.
func (tx *Tx) InTx() bool { return tx != nil && tx.active }

// OpStart marks the beginning of a data structure operation, the analogue
// of declaring the paper's OpStarter. It resets per-operation speculation
// state. Safe on a nil Tx.
func (tx *Tx) OpStart() {
	if tx.InTx() {
		tx.inSpec = false
	}
}

// Manager returns the TxManager this Tx is registered with, or nil.
func (tx *Tx) Manager() *TxManager {
	if tx == nil {
		return nil
	}
	return tx.mgr
}

func (tx *Tx) startSpec() { tx.inSpec = true }
func (tx *Tx) endSpec()   { tx.inSpec = false }

// checkDoomed aborts (with unwinding) a transaction that a conflicting
// thread has already aborted via eager contention management. The paper's
// design lets a doomed transaction run to txEnd; detecting the abort at the
// next critical access instead costs one load of our own (cache-hot) status
// word and prevents a doomed transaction from continuing to install
// descriptors that knock out viable ones — the livelock amplifier of eager
// contention management. It is the same early-exit license the paper grants
// via validateReads.
func (tx *Tx) checkDoomed() {
	st := tx.desc.status.Load()
	if serialOf(st) == tx.serial && statusOf(st) == StatusAborted {
		tx.Abort()
	}
}

// InSpeculation reports whether the current operation is inside its
// speculation interval. Exposed for structures with multi-CAS speculation
// intervals (publication point before linearization point).
func (tx *Tx) InSpeculation() bool { return tx.InTx() && tx.inSpec }

func (tx *Tx) addWrite(e *wordEntry) { tx.writes = append(tx.writes, e) }

// AddToReadSet registers the witness of a linearizing load for commit-time
// validation (the paper's addToReadSet). Calling it outside a transaction,
// or with a zero witness, is a no-op.
//
// A witness naming the same word and the same loaded value as the read
// set's last entry is dropped: it is evidence of the same fact, so
// validating it twice proves nothing. Hand-over-hand range reads
// re-witness their anchor word on every step, which would otherwise grow
// the read set — and commit-time validation cost — quadratically in the
// scan length.
func (tx *Tx) AddToReadSet(w ReadWitness) {
	if !tx.InTx() || w.isZero() {
		return
	}
	if n := len(tx.reads); n > 0 && tx.reads[n-1] == w {
		return
	}
	tx.reads = append(tx.reads, w)
}

// Cleaner is post-commit work (Defer). What one cleanup needs beyond its
// Cleaner — a word, a slab index, an offset, an epoch — travels in the
// record's o, a and b, so registering one allocates nothing: a Cleaner is
// a pointer to the structure that does the work.
type Cleaner interface {
	Cleanup(tx *Tx, o *Word, a, b uint64)
}

// cleanup is one deferred call of c.Cleanup(tx, o, a, b).
type cleanup struct {
	c    Cleaner
	o    *Word
	a, b uint64
}

// Defer registers c.Cleanup(tx, o, a, b) to run after the transaction
// commits (the paper's addToCleanups); an abort drops it. Cleanups run in
// registration order. Outside a transaction it runs immediately, which is
// what a non-transactional operation wants.
func (tx *Tx) Defer(c Cleaner, o *Word, a, b uint64) {
	if !tx.InTx() {
		c.Cleanup(tx, o, a, b)
		return
	}
	tx.cleanups = append(tx.cleanups, cleanup{c, o, a, b})
}

// OnBegin registers a hook invoked at every subsequent Begin on this Tx.
func (tx *Tx) OnBegin(f func(*Tx)) {
	tx.beginHooks = append(tx.beginHooks, f)
}

// OnFinish registers a hook invoked after every transaction on this Tx
// settles (post-cleanup), with the commit outcome. txMontage uses it to
// announce that the transaction's epoch work is complete.
func (tx *Tx) OnFinish(f func(*Tx, bool)) {
	tx.finishHooks = append(tx.finishHooks, f)
}

// takeReads sources the read-set backing array for a new transaction after
// the previous one was published. On a Tx with an EBR handle, published
// arrays cycle back through EBR into readsFree (helpers may iterate a
// publication until a grace period passes); without one a published array
// is left to the garbage collector and a fresh one is allocated.
// Never-published arrays are reused in place by Begin and do not come
// through here.
func (tx *Tx) takeReads() []ReadWitness {
	if buf, ok := pop(&tx.readsFree); ok {
		return buf
	}
	return make([]ReadWitness, 0, 8)
}

// pop takes the last element off the free list *s, clearing its slot;
// ok is false when the list is empty.
func pop[T any](s *[]T) (v T, ok bool) {
	n := len(*s)
	if n == 0 {
		return v, false
	}
	v, (*s)[n-1] = (*s)[n-1], v
	*s = (*s)[:n-1]
	return v, true
}

// Begin opens a transaction (the paper's txBegin): bumps the serial number,
// resets the descriptor to InPrep, and clears per-transaction state.
func (tx *Tx) Begin() {
	if tx.active {
		panic("medley: Begin inside an open transaction")
	}
	tx.serial++
	tx.desc.status.Store(packStatus(tx.serial, StatusInPrep))
	if tx.reads != nil && !tx.published {
		// Never published: no helper ever observed the backing array, so it
		// is reusable in place, EBR handle or not. Read-only fast-path
		// commits never publish, which is what makes a warm read-only
		// transaction allocation-free even without a handle.
		clear(tx.reads)
		tx.reads = tx.reads[:0]
	} else {
		tx.reads = tx.takeReads()
	}
	tx.published = false
	tx.writes = tx.writes[:0]
	clear(tx.cleanups)
	tx.cleanups = tx.cleanups[:0]
	tx.nwords = 0
	tx.inSpec = false
	tx.active = true
	if tx.ticketer != nil {
		// Each transaction's ticket must be consumed (published) before
		// the owner opens the next one; a read-only transaction clears it
		// so a stale ticket is never republished.
		tx.lastTicketOK = false
	}
	bump(&tx.desc.shard.Begins)
	for _, f := range tx.beginHooks {
		f(tx)
	}
}

// ValidateReads re-checks all reads made so far, for callers that want
// opacity-style early aborts (the paper's optional validateReads). It
// returns false if the transaction is doomed; the caller would then
// typically invoke Abort.
func (tx *Tx) ValidateReads() bool {
	if !tx.InTx() {
		return true
	}
	for i := range tx.reads {
		if !tx.reads[i].valid(tx.desc, tx.serial) {
			return false
		}
	}
	return true
}

// End attempts to commit (the paper's txEnd). On success it uninstalls all
// installed words with their new values and runs deferred cleanups; on
// failure it rolls back and returns ErrTxAborted.
//
// The general protocol — publish the read set, announce InProg, validate,
// settle — exists so that helpers which encounter this transaction's
// installed words can finish the commit on its behalf. When the
// write set is small that machinery is mostly or entirely dead weight, so
// End dispatches to two tiered fast paths (ablatable via
// TxManager.DisableFastPaths):
//
//   - no critical CAS installed: endReadOnly — no publication, owner-side
//     validation, one plain status store (see the helper-reachability
//     argument there);
//   - exactly one critical CAS installed: endSingleWrite — no publication,
//     owner-side validation folded into a single InPrep→Committed status
//     CAS plus the one uninstall.
func (tx *Tx) End() error {
	if !tx.active {
		panic("medley: End without Begin")
	}
	if tx.fast {
		switch len(tx.writes) {
		case 0:
			return tx.endReadOnly()
		case 1:
			return tx.endSingleWrite()
		}
	}
	d := tx.desc
	// Publish the read set so helpers that observe InProg can validate on
	// our behalf, then announce readiness; finish withdraws it.
	rp := tx.takeRP()
	rp.serial = tx.serial
	rp.entries = tx.reads
	d.reads.Store(rp)
	tx.published = true
	// Draw the commit ticket while still InPrep: the InPrep→InProg CAS
	// below is the first step from which a helper can drive this
	// transaction to Committed, so the draw is strictly pre-visibility
	// (see ticket.go for the full ordering argument).
	tx.drawTicket()
	if !d.stsCAS(packStatus(tx.serial, StatusInPrep), StatusInPrep, StatusInProg) {
		return tx.settle()
	}
	word := packStatus(tx.serial, StatusInProg)
	if tx.ValidateReads() {
		d.stsCAS(word, StatusInProg, StatusCommitted)
	} else {
		d.stsCAS(word, StatusInProg, StatusAborted)
	}
	return tx.settle()
}

// endReadOnly commits a transaction that installed no word this serial.
// Helpers discover a descriptor only by encountering one of its installed
// words — there is no other route to a foreign Desc — so with an
// empty write set no helper can ever reach this transaction: nobody can
// abort it, help it, or observe its status word at this serial. The owner
// is therefore the sole status writer, owner-side validation is
// authoritative, and the entire handshake (read-set publication,
// InPrep→InProg, InProg→terminal) collapses to one validation sweep plus a
// single plain atomic status store — zero atomic RMWs. The store itself is
// kept (rather than leaving the descriptor InPrep until the next Begin)
// so the descriptor always ends a transaction in a terminal state, the
// invariant settle asserts and debug tooling relies on.
//
// Serializability is unchanged: a read-only transaction linearizes at its
// validation sweep. Every witnessed word still holding its value at that
// point means the reads form a consistent snapshot at that instant; a
// writer changing a witnessed word before the sweep fails it, and one
// displacing after serializes after this transaction.
func (tx *Tx) endReadOnly() error {
	committed := tx.ValidateReads()
	status := StatusAborted
	if committed {
		status = StatusCommitted
	}
	tx.desc.status.Store(packStatus(tx.serial, status))
	if committed {
		shard := tx.desc.shard
		bump(&shard.ReadOnlyCommits)
		bump(&shard.FastPathCommits)
	}
	return tx.finish(committed)
}

// endSingleWrite commits a transaction with exactly one installed word.
// That word makes the descriptor reachable, so helpers
// may race us — but the only move a helper has against an InPrep
// transaction is the eager-contention-management abort (helpers validate
// on a transaction's behalf only from InProg, which this path never
// enters). Validation therefore happens owner-side while still InPrep, and
// commit is a single InPrep→Committed status CAS: it either wins against a
// helper's InPrep→Aborted CAS or loses to it, linearizing the outcome on
// the status word exactly as the general protocol does. The read-set
// publication and the InPrep→InProg transition are elided, and settle's
// status resolution plus write-set loop fold into one uninstall.
//
// The trade is that a concurrent helper aborts us where the general
// protocol would have let it help us commit; the window (one validation
// sweep) is tiny, and the displaced transaction retries — the same license
// eager contention management already grants.
func (tx *Tx) endSingleWrite() error {
	d := tx.desc
	word := packStatus(tx.serial, StatusInPrep)
	if tx.ValidateReads() {
		// Draw the commit ticket after validation, before the terminal
		// CAS: this is the fast path's last pre-visibility instant (see
		// ticket.go). A draw whose CAS then loses to a helper's abort is
		// cancelled by settle's finish(false).
		tx.drawTicket()
		if d.stsCAS(word, StatusInPrep, StatusCommitted) {
			tx.writes[0].uninstall(true)
			bump(&d.shard.FastPathCommits)
			return tx.finish(true)
		}
	}
	// Validation failed, or a helper's eager-contention-management abort
	// won the status race; settle resolves whatever state the descriptor
	// is in (including states only reachable when callers drive the
	// handshake by hand) and uninstalls the word accordingly.
	return tx.settle()
}

// takeRP sources a publishedReads shell, reusing recycled ones (a Tx with
// an EBR handle).
func (tx *Tx) takeRP() *publishedReads {
	if rp, ok := pop(&tx.rpFree); ok {
		return rp
	}
	return &publishedReads{}
}

// Abort explicitly aborts the open transaction (the paper's txAbort) and
// unwinds to the enclosing Run via panic; use AbortNow for the
// non-unwinding variant with explicit Begin/End.
func (tx *Tx) Abort() {
	tx.AbortNow()
	panic(abortSignal{})
}

// AbortNow aborts the open transaction and returns (no unwinding). It is a
// no-op if no transaction is open.
func (tx *Tx) AbortNow() {
	if !tx.active {
		return
	}
	st := tx.desc.status.Load()
	if serialOf(st) == tx.serial && statusOf(st) == StatusInPrep {
		tx.desc.stsCAS(st, StatusInPrep, StatusAborted)
	}
	_ = tx.settle()
}

// settle drives the descriptor to a terminal state if it is not already
// there, then uninstalls every installed word accordingly, runs cleanups or
// compensation, gathers statistics, and closes the transaction. It returns
// nil iff the transaction committed. Note that a helper may have committed
// us even while the owner was trying to abort-from-InProg; the terminal
// status word is the single source of truth.
func (tx *Tx) settle() error {
	d := tx.desc
	st := d.status.Load()
	if serialOf(st) != tx.serial {
		panic("medley: descriptor serial advanced under an open transaction")
	}
	switch statusOf(st) {
	case StatusInPrep:
		d.stsCAS(st, StatusInPrep, StatusAborted)
	case StatusInProg:
		// Owner reaches here only from AbortNow between setReady and the
		// commit CAS racing a helper; help the validation to a decision.
		if d.validatePublished(tx.serial) {
			d.stsCAS(st, StatusInProg, StatusCommitted)
		} else {
			d.stsCAS(st, StatusInProg, StatusAborted)
		}
	}
	st = d.status.Load()
	committed := statusOf(st) == StatusCommitted
	for _, e := range tx.writes {
		e.uninstall(committed)
	}
	return tx.finish(committed)
}

// finish is the outcome-independent tail of every commit path (settle and
// the End fast paths): the commit ticket, cleanups, pool settles,
// statistics, finish hooks. The descriptor is already terminal and every
// installed word already uninstalled when it runs. It returns nil iff the
// transaction committed.
func (tx *Tx) finish(committed bool) error {
	tx.settleTicket(committed)
	tx.active = false
	tx.inSpec = false
	if tx.published {
		// The publication has served: with the status terminal, a helper
		// still validating it fails its status CAS whatever it finds. It
		// goes now rather than at the next End so that a descriptor left
		// idle — and one that has written Words is never freed — keeps no
		// read set, and through it no structure, alive. With an EBR
		// handle it is retired through EBR: a slow helper may still
		// iterate it.
		if rp := tx.desc.reads.Swap(nil); rp != nil && tx.smr != nil {
			tx.smr.RetireInto(&tx.rpBin, rp)
		}
	}
	if committed {
		for _, c := range tx.cleanups {
			c.c.Cleanup(tx, c.o, c.a, c.b)
		}
		for _, c := range tx.pools {
			c.settle(tx, true)
		}
		bump(&tx.desc.shard.Commits)
		for _, f := range tx.finishHooks {
			f(tx, true)
		}
		return nil
	}
	for _, c := range tx.pools {
		c.settle(tx, false)
	}
	bump(&tx.desc.shard.Aborts)
	for _, f := range tx.finishHooks {
		f(tx, false)
	}
	return ErrTxAborted
}

// Run executes fn inside a transaction: Begin, fn, End. If fn calls
// Tx.Abort the unwind is caught here and ErrTxAborted is returned. If fn
// returns a non-nil error the transaction is aborted, and that error is
// returned only if fn's reads still validate: reads are checked at commit,
// not as they happen, so a body can read, lose a race to a concurrent
// commit, read again and decide on a state that never existed. Such an
// error is reported as ErrTxAborted instead. A non-abort error from Run
// was therefore decided on reads that were consistent when Run returned.
// Run does not retry; see RunRetry.
func (tx *Tx) Run(fn func() error) (err error) {
	tx.Begin()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortSignal); ok {
				err = ErrTxAborted
				return
			}
			tx.AbortNow()
			panic(r)
		}
	}()
	if ferr := fn(); ferr != nil {
		valid := tx.ValidateReads()
		tx.AbortNow()
		if !valid {
			return ErrTxAborted
		}
		return ferr
	}
	return tx.End()
}

// RunRetry executes fn as with Run, retrying on ErrTxAborted until it
// commits or fn returns a different error. This is the catch-block retry
// loop of the paper's Figure 3, packaged for convenience. A body error
// decided on reads that no longer validate is such an abort, so the error
// RunRetry returns comes from a run whose reads were consistent.
//
// The backoff is allocation-free and contention-adaptive (backoff.go): a
// Gosched-first spin ladder followed by exponential sleeps jittered by a
// per-Tx xorshift PRNG, with the yield count and jitter window steered by
// this Tx's abort-rate EWMA and hot-conflict detection.
func (tx *Tx) RunRetry(fn func() error) error {
	for attempt := 0; ; attempt++ {
		err := tx.Run(fn)
		if !errors.Is(err, ErrTxAborted) {
			tx.cm.note(tx, false)
			return err
		}
		tx.cm.note(tx, true)
		tx.backoff(attempt)
	}
}

// SetSMR attaches an EBR handle to this Tx. The slab indexes this Tx
// unlinks and the read sets it publishes are then reused after a grace
// period (Slots, takeReads), and its pool traffic is counted in the
// statistics; without a handle nothing is reused. The owning goroutine
// must then hold h's critical section (ebr.Handle.Enter / Exit) around
// every transaction and bare operation on the structures it touches.
func (tx *Tx) SetSMR(h *ebr.Handle) {
	tx.smr = h
	tx.rpBin.tx = tx
}

// SettleBare closes a run of bare operations on tx — operations outside
// any transaction — the way a settle closes a transaction: the slab
// indexes they unlinked wait in tx's pools for a settle, which a run of bare operations never reaches, so they go to the
// SMR domain now, and the pools' counters fold into the statistics.
func (tx *Tx) SettleBare() {
	if tx.InTx() {
		panic("medley: SettleBare inside an open transaction")
	}
	for _, c := range tx.pools {
		c.settle(tx, true)
	}
}
