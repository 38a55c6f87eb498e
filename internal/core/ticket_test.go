package core

import (
	"errors"
	"testing"
)

// recordTicketer is a CommitTicketer that remembers every draw and cancel.
type recordTicketer struct {
	next      uint64
	cancelled []uint64
}

func (r *recordTicketer) DrawTicket() uint64 {
	r.next++
	return r.next
}

func (r *recordTicketer) CancelTicket(t uint64) { r.cancelled = append(r.cancelled, t) }

func TestTicketCommittedWrite(t *testing.T) {
	mgr := NewTxManager()
	tx := mgr.Register()
	rt := &recordTicketer{}
	tx.SetCommitTicketer(rt)
	o := newWord(1)
	if err := tx.Run(func() error {
		if !o.NbtcCAS(tx, 1, 2, true, true) {
			t.Fatal("CAS failed")
		}
		return nil
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tk, ok := tx.CommittedTicket()
	if !ok || tk != 1 {
		t.Fatalf("CommittedTicket = %d, %v; want 1, true", tk, ok)
	}
	if len(rt.cancelled) != 0 {
		t.Fatalf("cancelled = %v for a committed tx", rt.cancelled)
	}
}

func TestTicketMultiWriteDrawsOnce(t *testing.T) {
	mgr := NewTxManager()
	tx := mgr.Register()
	rt := &recordTicketer{}
	tx.SetCommitTicketer(rt)
	a := newWord(10)
	b := newWord(20)
	if err := tx.Run(func() error {
		tx.OpStart()
		a.NbtcCAS(tx, 10, 11, true, true)
		tx.OpStart()
		b.NbtcCAS(tx, 20, 21, true, true)
		return nil
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if tk, ok := tx.CommittedTicket(); !ok || tk != 1 {
		t.Fatalf("CommittedTicket = %d, %v; want one ticket for the whole tx", tk, ok)
	}
	if rt.next != 1 {
		t.Fatalf("drew %d tickets for one tx", rt.next)
	}
}

func TestTicketReadOnlyDrawsNothing(t *testing.T) {
	mgr := NewTxManager()
	tx := mgr.Register()
	rt := &recordTicketer{}
	tx.SetCommitTicketer(rt)
	o := newWord(5)
	if err := tx.Run(func() error {
		if got, _ := o.NbtcLoad(tx); got != 5 {
			t.Fatalf("read = %d", got)
		}
		return nil
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rt.next != 0 {
		t.Fatalf("read-only tx drew a ticket")
	}
	if _, ok := tx.CommittedTicket(); ok {
		t.Fatal("CommittedTicket reports true for read-only tx")
	}
}

func TestTicketAbortBeforeCommitPathDrawsNothing(t *testing.T) {
	// Self-abort happens before End reaches a draw site, so the dense
	// ticket space never sees this transaction at all.
	mgr := NewTxManager()
	tx := mgr.Register()
	rt := &recordTicketer{}
	tx.SetCommitTicketer(rt)
	o := newWord(1)
	err := tx.Run(func() error {
		o.NbtcCAS(tx, 1, 2, true, true)
		tx.Abort()
		return nil
	})
	if !errors.Is(err, ErrTxAborted) {
		t.Fatalf("Run = %v, want ErrTxAborted", err)
	}
	if rt.next != 0 || len(rt.cancelled) != 0 {
		t.Fatalf("aborted-before-commit tx touched ticketer: drew %d, cancelled %v", rt.next, rt.cancelled)
	}
	if _, ok := tx.CommittedTicket(); ok {
		t.Fatal("CommittedTicket reports true after abort")
	}
}

func TestTicketDrawnThenAbortedCancels(t *testing.T) {
	// The draw-then-lose race (helper aborts the owner between the draw
	// site and the terminal CAS) settles through finish(false), which must
	// cancel so the feed's contiguity drain can pass the hole. Exercise
	// the helpers directly — the race window is a few instructions wide.
	mgr := NewTxManager()
	tx := mgr.Register()
	rt := &recordTicketer{}
	tx.SetCommitTicketer(rt)
	o := newWord(1)
	if err := tx.Run(func() error {
		o.NbtcCAS(tx, 1, 2, true, true)
		return nil
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tx.writes = append(tx.writes[:0], nil) // make drawTicket eligible
	tx.drawTicket()
	if !tx.ticketDrawn || rt.next != 2 {
		t.Fatalf("drawTicket did not draw: drawn=%v next=%d", tx.ticketDrawn, rt.next)
	}
	tx.settleTicket(false)
	if len(rt.cancelled) != 1 || rt.cancelled[0] != 2 {
		t.Fatalf("cancelled = %v, want exactly ticket 2", rt.cancelled)
	}
	tx.writes = tx.writes[:0]
}

func TestTicketClearedByNextBegin(t *testing.T) {
	mgr := NewTxManager()
	tx := mgr.Register()
	rt := &recordTicketer{}
	tx.SetCommitTicketer(rt)
	o := newWord(1)
	if err := tx.Run(func() error {
		o.NbtcCAS(tx, 1, 2, true, true)
		return nil
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, ok := tx.CommittedTicket(); !ok {
		t.Fatal("no ticket after write tx")
	}
	// A following read-only tx must not leave the stale ticket visible:
	// a consumer that published it again would corrupt the feed.
	if err := tx.Run(func() error {
		o.NbtcLoad(tx)
		return nil
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if tk, ok := tx.CommittedTicket(); ok {
		t.Fatalf("stale ticket %d still visible after read-only tx", tk)
	}
}

func TestTicketOrderRespectsDependency(t *testing.T) {
	// B overwrites A's write, so B depends on A; B's ticket must be higher.
	mgr := NewTxManager()
	rt := &recordTicketer{}
	txA := mgr.Register()
	txA.SetCommitTicketer(rt)
	txB := mgr.Register()
	txB.SetCommitTicketer(rt)
	o := newWord(0)
	if err := txA.Run(func() error {
		o.NbtcCAS(txA, 0, 1, true, true)
		return nil
	}); err != nil {
		t.Fatalf("A: %v", err)
	}
	if err := txB.Run(func() error {
		o.NbtcCAS(txB, 1, 2, true, true)
		return nil
	}); err != nil {
		t.Fatalf("B: %v", err)
	}
	ta, _ := txA.CommittedTicket()
	tb, _ := txB.CommittedTicket()
	if ta >= tb {
		t.Fatalf("dependent tx ticket %d not after dependency %d", tb, ta)
	}
}
