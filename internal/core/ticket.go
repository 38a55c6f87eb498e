package core

// This file is the commit-order hook consumed by the change-data-capture
// layer (internal/cdc): a writing transaction draws a ticket immediately
// before its commit point becomes reachable, so ticket order is a legal
// serialization order of the writing transactions it covers.
//
// The ordering argument. A transaction's writes become visible to others
// only once its status word is terminal-Committed (readers resolving an
// installed word consult the status; uninstalls happen after
// the terminal CAS). The draw sites are placed strictly before the first
// CAS that can lead to Committed:
//
//   - general path (End): after read-set publication, before the
//     InPrep→InProg CAS — the earliest instant a helper could drive the
//     transaction to Committed is after that CAS;
//   - single-write fast path (endSingleWrite): after owner-side
//     validation, before the InPrep→Committed CAS.
//
// So for any two writing transactions A and B where B depends on A
// (B read or overwrote one of A's writes): B's conflicting access
// resolved A's install, which requires terminal(A) < access(B); B draws
// after its own accesses and before its own terminal CAS, giving
// draw(A) < terminal(A) < access(B) < draw(B). Replaying a feed in ticket
// order therefore never applies a dependent write before the write it
// depends on.
//
// Tickets are drawn only by transactions that installed at least one
// word (len(writes) > 0): read-only transactions publish
// nothing and would only punch permanent holes in the sequence. A drawn
// ticket is settled exactly once — the owner publishes it after a
// committed run (CommittedTicket), or finish(false) cancels it on abort —
// which is what lets the feed deliver in strictly contiguous ticket order
// (cdc.Feed fills cancelled holes and stalls on unsettled ones).

// CommitTicketer is the commit-order sink a Tx draws tickets from;
// *cdc.Feed implements it. DrawTicket must be cheap and non-blocking —
// it runs on the commit path of every writing transaction — and the
// ticket space must be dense: every drawn ticket is eventually either
// published by the owner or cancelled here.
type CommitTicketer interface {
	// DrawTicket allocates the next commit ticket. Called with the
	// transaction still invisible (pre-commit); see the ordering argument
	// above.
	DrawTicket() uint64
	// CancelTicket settles a drawn ticket whose transaction aborted, so
	// consumers waiting on contiguity can skip it.
	CancelTicket(t uint64)
}

// SetCommitTicketer attaches a commit-order sink to this Tx: every
// subsequent committed transaction that installed at least one write
// draws a ticket before its commit point and exposes it through
// CommittedTicket; aborted draws are cancelled automatically. Passing nil
// detaches. Owner-only, like every Tx method.
func (tx *Tx) SetCommitTicketer(t CommitTicketer) {
	tx.ticketer = t
}

// CommittedTicket returns the ticket drawn by the most recently committed
// transaction on this Tx and whether one exists. It reports false when no
// ticketer is attached, when the last transaction was read-only (no
// ticket drawn), or after the next Begin (each transaction's ticket must
// be consumed before the owner opens another).
func (tx *Tx) CommittedTicket() (uint64, bool) {
	return tx.lastTicket, tx.lastTicketOK
}

// drawTicket draws this transaction's commit ticket if a ticketer is
// attached and the transaction wrote. Idempotent per transaction: the
// settle paths can race into End once, never twice.
func (tx *Tx) drawTicket() {
	if tx.ticketer == nil || tx.ticketDrawn || len(tx.writes) == 0 {
		return
	}
	tx.ticket = tx.ticketer.DrawTicket()
	tx.ticketDrawn = true
}

// settleTicket is called from finish with the transaction's outcome: a
// committed draw is parked for CommittedTicket, an aborted one cancelled
// so the feed's contiguity drain can pass it.
func (tx *Tx) settleTicket(committed bool) {
	if !tx.ticketDrawn {
		return
	}
	tx.ticketDrawn = false
	if committed {
		tx.lastTicket, tx.lastTicketOK = tx.ticket, true
		return
	}
	tx.ticketer.CancelTicket(tx.ticket)
}
