package core

import (
	"errors"
	"slices"
	"sync"
	"testing"
)

// newWord returns a Word holding payload v.
func newWord(v uint32) *Word {
	o := new(Word)
	o.Init(v)
	return o
}

// store is a plain store on o by a CAS loop, which composes with installs.
func store(o *Word, v uint32) {
	for !o.CAS(o.Load(), v) {
	}
}

func TestWordZeroValue(t *testing.T) {
	var o Word
	if got := o.Load(); got != 0 {
		t.Fatalf("zero Word Load = %d, want 0", got)
	}
	if !o.CAS(0, 42) {
		t.Fatal("CAS(0,42) on zero object failed")
	}
	if got := o.Load(); got != 42 {
		t.Fatalf("Load = %d, want 42", got)
	}
}

func TestWordPlainOps(t *testing.T) {
	o := newWord(7)
	if got := o.Load(); got != 7 {
		t.Fatalf("Load = %d, want 7", got)
	}
	store(o, 9)
	if got := o.Load(); got != 9 {
		t.Fatalf("Load after store = %d, want 9", got)
	}
	if o.CAS(7, 1) {
		t.Fatal("CAS with wrong expected succeeded")
	}
	if !o.CAS(9, 1) {
		t.Fatal("CAS with right expected failed")
	}
	if !o.CAS(1, 1<<32-1) || o.Load() != 1<<32-1 {
		t.Fatal("a Word must hold every 32-bit payload")
	}
}

func TestTxCommitSingleWrite(t *testing.T) {
	mgr := NewTxManager()
	tx := mgr.Register()
	o := newWord(1)
	err := tx.Run(func() error {
		if !o.NbtcCAS(tx, 1, 2, true, true) {
			t.Fatal("nbtcCAS failed with no contention")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := o.Load(); got != 2 {
		t.Fatalf("after commit Load = %d, want 2", got)
	}
}

func TestTxAbortRestoresOldValue(t *testing.T) {
	mgr := NewTxManager()
	tx := mgr.Register()
	o := newWord(1)
	err := tx.Run(func() error {
		if !o.NbtcCAS(tx, 1, 2, true, true) {
			t.Fatal("nbtcCAS failed")
		}
		tx.Abort()
		return nil
	})
	if !errors.Is(err, ErrTxAborted) {
		t.Fatalf("Run = %v, want ErrTxAborted", err)
	}
	if got := o.Load(); got != 1 {
		t.Fatalf("after abort Load = %d, want 1", got)
	}
}

func TestTxMultiWordAtomicity(t *testing.T) {
	mgr := NewTxManager()
	tx := mgr.Register()
	a := newWord(10)
	b := newWord(20)
	err := tx.Run(func() error {
		tx.OpStart()
		if !a.NbtcCAS(tx, 10, 5, true, true) {
			t.Fatal("CAS a failed")
		}
		tx.OpStart()
		if !b.NbtcCAS(tx, 20, 25, true, true) {
			t.Fatal("CAS b failed")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.Load() != 5 || b.Load() != 25 {
		t.Fatalf("got (%d,%d), want (5,25)", a.Load(), b.Load())
	}
}

func TestTxReadOwnWrite(t *testing.T) {
	mgr := NewTxManager()
	tx := mgr.Register()
	o := newWord(3)
	err := tx.Run(func() error {
		tx.OpStart()
		if !o.NbtcCAS(tx, 3, 4, true, true) {
			t.Fatal("CAS failed")
		}
		tx.OpStart()
		v, w := o.NbtcLoad(tx)
		if v != 4 {
			t.Fatalf("NbtcLoad of own write = %d, want speculative 4", v)
		}
		tx.AddToReadSet(w)
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if o.Load() != 4 {
		t.Fatalf("Load = %d, want 4", o.Load())
	}
}

func TestTxCASOwnWriteTwice(t *testing.T) {
	mgr := NewTxManager()
	tx := mgr.Register()
	o := newWord(3)
	err := tx.Run(func() error {
		tx.OpStart()
		if !o.NbtcCAS(tx, 3, 4, true, true) {
			t.Fatal("first CAS failed")
		}
		tx.OpStart()
		if o.NbtcCAS(tx, 3, 5, true, true) {
			t.Fatal("CAS with stale expected on own write succeeded")
		}
		if !o.NbtcCAS(tx, 4, 5, true, true) {
			t.Fatal("second CAS against speculative value failed")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if o.Load() != 5 {
		t.Fatalf("Load = %d, want 5", o.Load())
	}
}

func TestTxCASOwnWriteTwiceAbortRestoresOriginal(t *testing.T) {
	mgr := NewTxManager()
	tx := mgr.Register()
	o := newWord(3)
	_ = tx.Run(func() error {
		if !o.NbtcCAS(tx, 3, 4, true, true) || !o.NbtcCAS(tx, 4, 5, true, true) {
			t.Fatal("CASes failed")
		}
		tx.Abort()
		return nil
	})
	if o.Load() != 3 {
		t.Fatalf("Load after abort = %d, want original 3", o.Load())
	}
}

func TestReadThenWriteSameSlotCommits(t *testing.T) {
	// The paper's Fig. 3 transfer performs get(a2) (records a read on a
	// slot) then put(a2) (installs a descriptor over the same slot); commit
	// validation must accept the displaced word.
	mgr := NewTxManager()
	tx := mgr.Register()
	o := newWord(3)
	err := tx.Run(func() error {
		tx.OpStart()
		v, w := o.NbtcLoad(tx)
		tx.AddToReadSet(w)
		tx.OpStart()
		if !o.NbtcCAS(tx, v, v+1, true, true) {
			t.Fatal("CAS failed")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v (read-then-write-same-slot must commit)", err)
	}
	if o.Load() != 4 {
		t.Fatalf("Load = %d, want 4", o.Load())
	}
}

func TestReadValidationFailureAborts(t *testing.T) {
	mgr := NewTxManager()
	tx := mgr.Register()
	o := newWord(3)
	err := tx.Run(func() error {
		_, w := o.NbtcLoad(tx)
		tx.AddToReadSet(w)
		// A non-transactional writer invalidates the read before commit.
		store(o, 99)
		return nil
	})
	if !errors.Is(err, ErrTxAborted) {
		t.Fatalf("Run = %v, want ErrTxAborted from failed validation", err)
	}
}

func TestValidateReadsMidTx(t *testing.T) {
	mgr := NewTxManager()
	tx := mgr.Register()
	o := newWord(3)
	_ = tx.Run(func() error {
		_, w := o.NbtcLoad(tx)
		tx.AddToReadSet(w)
		if !tx.ValidateReads() {
			t.Fatal("ValidateReads false with no interference")
		}
		store(o, 99)
		if tx.ValidateReads() {
			t.Fatal("ValidateReads true after invalidation")
		}
		tx.Abort()
		return nil
	})
}

func TestRunUserError(t *testing.T) {
	mgr := NewTxManager()
	tx := mgr.Register()
	o := newWord(1)
	myErr := errors.New("business rule")
	err := tx.Run(func() error {
		if !o.NbtcCAS(tx, 1, 2, true, true) {
			t.Fatal("CAS failed")
		}
		return myErr
	})
	if !errors.Is(err, myErr) {
		t.Fatalf("Run = %v, want user error", err)
	}
	if o.Load() != 1 {
		t.Fatalf("user-error return must abort; Load = %d, want 1", o.Load())
	}
}

func TestRunRepanicsForeignPanics(t *testing.T) {
	mgr := NewTxManager()
	tx := mgr.Register()
	o := newWord(1)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("foreign panic swallowed")
		}
		if o.Load() != 1 {
			t.Fatalf("tx not rolled back on foreign panic; Load = %d", o.Load())
		}
		if tx.InTx() {
			t.Fatal("tx still open after foreign panic")
		}
	}()
	_ = tx.Run(func() error {
		_ = o.NbtcCAS(tx, 1, 2, true, true)
		panic("boom")
	})
}

func TestNonTransactionalElision(t *testing.T) {
	o := newWord(1)
	var tx *Tx // nil Tx elides instrumentation
	if !o.NbtcCAS(tx, 1, 2, true, true) {
		t.Fatal("nil-tx NbtcCAS failed")
	}
	if o.Load() != 2 {
		t.Fatal("nil-tx NbtcCAS did not take effect immediately")
	}
	v, _ := o.NbtcLoad(tx)
	if v != 2 {
		t.Fatalf("nil-tx NbtcLoad = %d, want 2", v)
	}
	tx.OpStart() // must not panic on nil receiver
}

// wordProbe is a Cleaner that records the payload of its word when it runs.
type wordProbe struct{ seen []uint32 }

func (p *wordProbe) Cleanup(_ *Tx, o *Word, _, _ uint64) { p.seen = append(p.seen, o.Load()) }

// TestDeferRunsOnlyOnCommit mixes DeferWordCAS and Defer records in the
// one cleanup queue: a commit runs them in registration order, an abort
// runs none, and outside a transaction each runs at once.
func TestDeferRunsOnlyOnCommit(t *testing.T) {
	tx := NewTxManager().Register()
	o, w := newWord(10), newWord(0)
	p := &wordProbe{}
	want := func(o0 uint32, seen ...uint32) {
		t.Helper()
		if o.Load() != o0 || !slices.Equal(p.seen, seen) {
			t.Fatalf("word %d, cleanups saw %v; want %d and %v", o.Load(), p.seen, o0, seen)
		}
	}
	err := tx.Run(func() error {
		_ = w.NbtcCAS(tx, 0, 1, true, true)
		tx.Defer(p, o, 0, 0)
		DeferWordCAS(tx, o, 10, 11, nil, 0)
		tx.Defer(p, o, 0, 0)
		DeferWordCAS(tx, o, 11, 12, nil, 0)
		tx.Defer(p, o, 0, 0)
		want(10)
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want(12, 10, 11, 12)

	_ = tx.Run(func() error {
		_ = w.NbtcCAS(tx, 1, 2, true, true)
		tx.Defer(p, o, 0, 0)
		DeferWordCAS(tx, o, 12, 13, nil, 0)
		tx.Abort()
		return nil
	})
	want(12, 10, 11, 12)

	tx.Defer(p, o, 0, 0)
	DeferWordCAS(tx, o, 12, 13, nil, 0)
	tx.Defer(p, o, 0, 0)
	want(13, 10, 11, 12, 12, 13)
}

func TestEagerContentionManagementAbortsInPrep(t *testing.T) {
	mgr := NewTxManager()
	t1 := mgr.Register()
	t2 := mgr.Register()
	o := newWord(0)

	t1.Begin()
	if !o.NbtcCAS(t1, 0, 1, true, true) {
		t.Fatal("t1 install failed")
	}
	// t2 encounters t1's InPrep descriptor; eager contention management
	// aborts t1 and proceeds.
	err := t2.Run(func() error {
		if !o.NbtcCAS(t2, 0, 2, true, true) {
			t.Fatal("t2 CAS failed after finalizing t1")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("t2 Run: %v", err)
	}
	if got := o.Load(); got != 2 {
		t.Fatalf("Load = %d, want 2 (t1 aborted, t2 committed)", got)
	}
	if t1.End() == nil {
		t.Fatal("t1 End should report abort")
	}
	st := mgr.Stats()
	if st.AbortsByOthers == 0 {
		t.Fatal("expected an eager contention-management abort to be counted")
	}
}

func TestHelperCommitsInProgTx(t *testing.T) {
	// Simulate the window where the owner has set InProg but not yet
	// performed the commit CAS: a conflicting thread must help commit, not
	// abort.
	mgr := NewTxManager()
	t1 := mgr.Register()
	o := newWord(0)

	t1.Begin()
	if !o.NbtcCAS(t1, 0, 1, true, true) {
		t.Fatal("t1 install failed")
	}
	d := t1.desc
	d.reads.Store(&publishedReads{serial: t1.serial, entries: t1.reads})
	if !d.stsCAS(packStatus(t1.serial, StatusInPrep), StatusInPrep, StatusInProg) {
		t.Fatal("setReady failed")
	}
	// t2 finds the InProg descriptor and must push it to Committed.
	if got := o.Load(); got != 1 {
		t.Fatalf("helper resolved to %d, want committed value 1", got)
	}
	if statusOf(d.status.Load()) != StatusCommitted {
		t.Fatal("descriptor not Committed by helper")
	}
	// Owner completes; End must observe the helped commit as success.
	if err := t1.End(); err != nil {
		t.Fatalf("owner End after helped commit: %v", err)
	}
}

func TestStatsCounters(t *testing.T) {
	mgr := NewTxManager()
	tx := mgr.Register()
	o := newWord(0)
	for i := 0; i < 5; i++ {
		_ = tx.Run(func() error {
			_ = o.NbtcCAS(tx, o.Load(), uint32(i), true, true)
			if i%2 == 1 {
				tx.Abort()
			}
			return nil
		})
	}
	st := mgr.Stats()
	if st.Begins != 5 {
		t.Fatalf("Begins = %d, want 5", st.Begins)
	}
	if st.Commits != 3 || st.Aborts != 2 {
		t.Fatalf("Commits,Aborts = %d,%d want 3,2", st.Commits, st.Aborts)
	}
}

func TestBeginInsideTxPanics(t *testing.T) {
	mgr := NewTxManager()
	tx := mgr.Register()
	tx.Begin()
	defer tx.AbortNow()
	defer func() {
		if recover() == nil {
			t.Fatal("nested Begin did not panic")
		}
	}()
	tx.Begin()
}

func TestConcurrentPlainCAS(t *testing.T) {
	// The plain CAS path must be linearizable on its own: N goroutines each
	// increment via CAS loops; total must be exact.
	o := newWord(0)
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				for {
					v := o.Load()
					if o.CAS(v, v+1) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := o.Load(); got != goroutines*perG {
		t.Fatalf("count = %d, want %d", got, goroutines*perG)
	}
}

// TestRunNeverReturnsAnErrorFromAStaleRead pins Run's error contract: a
// body's error comes only from reads that still validate. Every commit
// keeps a and b equal, so a body that finds them unequal has read across a
// concurrent commit and must be run again, never answered. A gated writer
// commits between each reader's two reads on its first attempt, so every
// round reproduces the race; a start gate releases the readers together.
func TestRunNeverReturnsAnErrorFromAStaleRead(t *testing.T) {
	rounds := 400
	if testing.Short() {
		rounds = 40
	}
	const readers = 4
	mgr := NewTxManager()
	a, b := newWord(0), newWord(0)
	errTorn := errors.New("a and b disagree")

	gate := make(chan chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		tx := mgr.Register()
		v := uint32(0)
		for done := range gate {
			// RunRetry: a reader's load may abort the writer's InPrep
			// descriptor (eager contention management).
			if err := tx.RunRetry(func() error {
				tx.OpStart()
				a.NbtcCAS(tx, v, v+1, true, true)
				tx.OpStart()
				b.NbtcCAS(tx, v, v+1, true, true)
				return nil
			}); err != nil {
				t.Errorf("writer: %v", err)
			}
			v++
			close(done)
		}
	}()

	start := make(chan struct{})
	var wg sync.WaitGroup
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := mgr.Register()
			<-start
			for range rounds {
				first := true
				err := tx.RunRetry(func() error {
					tx.OpStart()
					x, w := a.NbtcLoad(tx)
					tx.AddToReadSet(w)
					if first {
						first = false
						done := make(chan struct{})
						gate <- done
						<-done
					}
					tx.OpStart()
					y, w := b.NbtcLoad(tx)
					tx.AddToReadSet(w)
					if x != y {
						return errTorn
					}
					return nil
				})
				if err != nil {
					t.Errorf("RunRetry = %v: a body error from a stale read escaped", err)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(gate)
	<-writerDone
}
