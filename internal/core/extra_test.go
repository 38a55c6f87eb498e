package core

import (
	"errors"
	"testing"
)

// TestHelperAbortsOnFailedValidation puts a transaction into InProg with a
// stale read set; a helping thread must drive it to Aborted, not
// Committed.
func TestHelperAbortsOnFailedValidation(t *testing.T) {
	mgr := NewTxManager()
	t1 := mgr.Register()
	o := newWord(0)
	witnessSrc := newWord(7)

	t1.Begin()
	v, w := witnessSrc.NbtcLoad(t1)
	if v != 7 {
		t.Fatal("setup")
	}
	t1.AddToReadSet(w)
	if !o.NbtcCAS(t1, 0, 1, true, true) {
		t.Fatal("install failed")
	}
	// Invalidate the read, then hand the InProg descriptor to a helper.
	store(witnessSrc, 8)
	d := t1.desc
	d.reads.Store(&publishedReads{serial: t1.serial, entries: t1.reads})
	if !d.stsCAS(packStatus(t1.serial, StatusInPrep), StatusInPrep, StatusInProg) {
		t.Fatal("setReady failed")
	}
	// A non-transactional reader encounters the descriptor and must help
	// it to ABORT (validation fails), restoring the old value.
	if got := o.Load(); got != 0 {
		t.Fatalf("helper resolved to %d, want rollback to 0", got)
	}
	if statusOf(d.status.Load()) != StatusAborted {
		t.Fatal("descriptor not aborted by helper despite stale reads")
	}
	if err := t1.End(); !errors.Is(err, ErrTxAborted) {
		t.Fatalf("owner End = %v, want abort", err)
	}
}

// TestInSpeculationLifecycle tracks the speculation interval across
// publication and linearization points.
func TestInSpeculationLifecycle(t *testing.T) {
	mgr := NewTxManager()
	tx := mgr.Register()
	a := newWord(0)
	b := newWord(0)
	_ = tx.Run(func() error {
		tx.OpStart()
		if tx.InSpeculation() {
			t.Fatal("speculating before any publication")
		}
		// Publication point without linearization: interval opens.
		if !a.NbtcCAS(tx, 0, 1, false, true) {
			t.Fatal("pub CAS failed")
		}
		if !tx.InSpeculation() {
			t.Fatal("not speculating after publication point")
		}
		// Linearization point: interval closes.
		if !b.NbtcCAS(tx, 0, 1, true, false) {
			t.Fatal("lin CAS failed")
		}
		if tx.InSpeculation() {
			t.Fatal("still speculating after linearization point")
		}
		return nil
	})
	if a.Load() != 1 || b.Load() != 1 {
		t.Fatal("both critical CASes must commit together")
	}
}

// TestExplicitBeginEnd drives the low-level API directly.
func TestExplicitBeginEnd(t *testing.T) {
	mgr := NewTxManager()
	tx := mgr.Register()
	o := newWord(0)
	tx.Begin()
	if !o.NbtcCAS(tx, 0, 9, true, true) {
		t.Fatal("CAS failed")
	}
	if err := tx.End(); err != nil {
		t.Fatalf("End: %v", err)
	}
	if o.Load() != 9 {
		t.Fatal("explicit commit lost")
	}
	tx.Begin()
	_ = o.NbtcCAS(tx, 9, 10, true, true)
	tx.AbortNow()
	if o.Load() != 9 {
		t.Fatal("AbortNow did not roll back")
	}
	if tx.InTx() {
		t.Fatal("still in tx after AbortNow")
	}
}

// TestEndWithoutBeginPanics guards API misuse.
func TestEndWithoutBeginPanics(t *testing.T) {
	mgr := NewTxManager()
	tx := mgr.Register()
	defer func() {
		if recover() == nil {
			t.Fatal("End without Begin did not panic")
		}
	}()
	_ = tx.End()
}

// TestManagerOfNilTx covers nil-receiver accessors.
func TestManagerOfNilTx(t *testing.T) {
	var tx *Tx
	if tx.Manager() != nil {
		t.Fatal("nil tx has a manager")
	}
	if tx.InTx() || tx.InSpeculation() {
		t.Fatal("nil tx claims activity")
	}
}
