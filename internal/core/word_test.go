package core

import (
	"errors"
	"testing"
	"time"
	"unsafe"
)

func TestWordLayout(t *testing.T) {
	if s := unsafe.Sizeof(Word{}); s != 8 {
		t.Errorf("Word is %d bytes, want 8", s)
	}
	w := restWord(0xDEADBEEF, 5)
	if payloadOf(w) != 0xDEADBEEF || counterOf(w) != 5 || isInstalled(w) {
		t.Errorf("restWord(0xDEADBEEF, 5) decodes to payload %#x counter %d installed %v", payloadOf(w), counterOf(w), isInstalled(w))
	}
	if a := advance(w, 7); payloadOf(a) != 7 || counterOf(a) != 6 {
		t.Errorf("advance moved the word to payload %d counter %d, want 7, 6", payloadOf(a), counterOf(a))
	}
	if counterOf(advance(restWord(1, 1<<wordCounterBits-1), 1)) != 0 {
		t.Error("the counter does not wrap at its width")
	}
}

// TestWordObstructionFreedomSolo is TestObstructionFreedomSolo on a Word:
// a transaction that meets the install of an abandoned InPrep transaction
// must abort it, put back the word it displaced, and commit on its own.
// Without the helper's abort-and-uninstall it spins until the deadline.
func TestWordObstructionFreedomSolo(t *testing.T) {
	mgr := NewTxManager()
	var o Word
	o.Init(3)
	stale := mgr.Register()
	stale.Begin()
	if !o.NbtcCAS(stale, 3, 77, true, true) {
		t.Fatal("stale install failed")
	}
	// stale is now paused forever. A solo transaction must make progress.
	done := make(chan error, 1)
	go func() {
		tx := mgr.Register()
		done <- tx.Run(func() error {
			if !o.NbtcCAS(tx, 3, 1, true, true) {
				return errors.New("CAS failed: the abandoned install's old word was not restored")
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("solo transaction did not commit over the abandoned install: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("solo transaction still spinning on the abandoned install after 10 s")
	}
	if got := o.Load(); got != 1 {
		t.Fatalf("Load = %d, want 1", got)
	}
	if st := stale.desc.status.Load(); statusOf(st) != StatusAborted {
		t.Fatalf("abandoned transaction's status is %d, want Aborted", statusOf(st))
	}
}

// TestWordHelperCommitsInProgTx is TestHelperCommitsInProgTx on a Word:
// a reader that meets the install of a transaction between InProg and its
// commit CAS must validate on its behalf and commit it, not abort it.
func TestWordHelperCommitsInProgTx(t *testing.T) {
	mgr := NewTxManager()
	t1 := mgr.Register()
	var o, r Word
	o.Init(0)
	r.Init(9)

	t1.Begin()
	v, w := r.NbtcLoad(t1)
	t1.AddToReadSet(w)
	if v != 9 || !o.NbtcCAS(t1, 0, 1, true, true) {
		t.Fatal("t1 read or install failed")
	}
	d := t1.desc
	d.reads.Store(&publishedReads{serial: t1.serial, entries: t1.reads})
	if !d.stsCAS(packStatus(t1.serial, StatusInPrep), StatusInPrep, StatusInProg) {
		t.Fatal("setReady failed")
	}
	if got := o.Load(); got != 1 {
		t.Fatalf("helper resolved to %d, want the committed payload 1", got)
	}
	if statusOf(d.status.Load()) != StatusCommitted {
		t.Fatal("descriptor not Committed by the helper")
	}
	if err := t1.End(); err != nil {
		t.Fatalf("owner End after a helped commit: %v", err)
	}
	if got := o.Load(); got != 1 {
		t.Fatalf("Load after End = %d, want 1", got)
	}
}

// TestWordCounterWraps forces a two-bit counter and watches the ABA the
// counter width bounds: a witness of payload A survives its slot going
// A→B→A (two changes) as invalid, and validates again after exactly four,
// when the counter has wrapped. At the real width four changes leave it
// invalid. Without a counter the two-change case validates.
func TestWordCounterWraps(t *testing.T) {
	mgr := NewTxManager()
	run := func(writes int) bool {
		var o Word
		o.Init(1)
		tx := mgr.Register()
		tx.Begin()
		defer tx.AbortNow()
		_, w := o.NbtcLoad(tx)
		tx.AddToReadSet(w)
		for i := 0; i < writes; i++ {
			from, to := uint32(1), uint32(2)
			if i%2 == 1 {
				from, to = 2, 1
			}
			if !o.CAS(from, to) {
				t.Fatalf("write %d: CAS %d→%d failed", i, from, to)
			}
		}
		return tx.ValidateReads()
	}
	if run(2) {
		t.Error("a witness validates after its slot went A→B→A: the counter did not advance")
	}
	if run(4) {
		t.Error("a witness validates after four changes at the full counter width")
	}
	defer func(m uint64) { counterMask = m }(counterMask)
	counterMask = 3
	if run(2) {
		t.Error("two-bit counter: a witness validates after two changes")
	}
	if !run(4) {
		t.Error("two-bit counter: after four changes the counter is back where the witness saw it, so the witness should validate; the wrap is not where the width puts it")
	}
}

// TestWordWideTransaction installs past the positions a word can name,
// where a helper finds an install's entry by its slot: a foreign reader
// must abort the InPrep transaction and restore the old payload, and a
// committed one must leave every new payload.
func TestWordWideTransaction(t *testing.T) {
	const n = wordPosOverflow + 100
	mgr := NewTxManager()
	words := make([]Word, n)
	install := func(tx *Tx, from, to uint32) {
		for i := range words {
			if !words[i].NbtcCAS(tx, from, to, true, true) {
				t.Fatalf("install %d failed", i)
			}
		}
	}
	tx := mgr.Register()
	tx.Begin()
	install(tx, 0, 1)
	if got, _ := words[n-50].NbtcLoad(tx); got != 1 {
		t.Fatalf("own load past overflow = %d, want the speculative 1", got)
	}
	if !words[n-50].NbtcCAS(tx, 1, 2, true, true) {
		t.Fatal("second CAS on an own past-overflow install failed")
	}
	if got := words[n-50].Load(); got != 0 {
		t.Fatalf("foreign load past overflow = %d, want the restored 0", got)
	}
	if err := tx.End(); !errors.Is(err, ErrTxAborted) {
		t.Fatalf("End after a helper's abort = %v, want ErrTxAborted", err)
	}
	for i := range words {
		if got := words[i].Load(); got != 0 {
			t.Fatalf("word %d = %d after abort, want 0", i, got)
		}
	}

	err := tx.Run(func() error { install(tx, 0, 1); return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := range words {
		if got := words[i].Load(); got != 1 {
			t.Fatalf("word %d = %d after commit, want 1", i, got)
		}
	}
}
