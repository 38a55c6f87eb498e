package montage

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"medley/internal/core"
	"medley/internal/structures/mhash"
)

func newStore(t *testing.T) (*System, *PStore[uint64], *core.TxManager) {
	t.Helper()
	sys := NewSystem(Config{RegionWords: 1 << 18})
	mgr := core.NewTxManager()
	idx := mhash.NewMap[Entry[uint64]](mgr, 1024)
	return sys, NewPStore[uint64](sys, idx, U64Codec()), mgr
}

func rebuild(sys *System, mgr *core.TxManager, payloads []Recovered) *PStore[uint64] {
	idx := mhash.NewMap[Entry[uint64]](mgr, 1024)
	return RebuildPStore(sys, idx, U64Codec(), payloads)
}

func TestPersistAcrossCrash(t *testing.T) {
	sys, st, _ := newStore(t)
	mgr2 := core.NewTxManager()
	h := sys.Wrap(mgr2.Register())
	if err := h.tx.RunRetry(func() error {
		st.Put(h, 1, 100)
		st.Put(h, 2, 200)
		return nil
	}); err != nil {
		t.Fatalf("put: %v", err)
	}
	sys.Sync()
	rec := sys.CrashAndRecover()
	if len(rec) != 2 {
		t.Fatalf("recovered %d payloads, want 2", len(rec))
	}
	st2 := rebuild(sys, mgr2, rec)
	if v, ok := st2.Get(sys.Wrap(mgr2.Register()), 1); !ok || v != 100 {
		t.Fatalf("recovered st[1] = %d,%v", v, ok)
	}
}

func TestUnsyncedEpochLost(t *testing.T) {
	sys, st, _ := newStore(t)
	mgr := core.NewTxManager()
	h := sys.Wrap(mgr.Register())
	_ = h.tx.RunRetry(func() error { st.Put(h, 1, 100); return nil })
	sys.Sync()
	_ = h.tx.RunRetry(func() error { st.Put(h, 2, 200); return nil }) // not synced
	rec := sys.CrashAndRecover()
	if len(rec) != 1 || rec[0].Key != 1 {
		t.Fatalf("recovered %v, want only key 1", rec)
	}
}

// Non-transactional operations in a BeginOp section belong to the epoch
// the section announced, and the advancer cannot persist that epoch before
// EndOp: it waits the section out, and a crash after it recovers the
// section's put and delete.
func TestOpSectionHoldsItsEpoch(t *testing.T) {
	sys, st, mgr := newStore(t)
	h := sys.Wrap(mgr.Register())
	_ = h.tx.RunRetry(func() error { st.Put(h, 1, 100); return nil })
	sys.Sync()
	h.BeginOp()
	e := sys.Epoch()
	done := make(chan uint64)
	go func() { done <- sys.Advance() }()
	st.Put(h, 2, 200)
	st.Remove(h, 1)
	select {
	case p := <-done:
		t.Fatalf("Advance persisted epoch %d with a section of epoch %d open", p, e)
	case <-time.After(20 * time.Millisecond):
	}
	h.EndOp()
	if p := <-done; p != e {
		t.Fatalf("Advance persisted epoch %d, want the section's %d", p, e)
	}
	rec := sys.CrashAndRecover()
	if len(rec) != 1 || rec[0].Key != 2 || rec[0].Data[0] != 200 {
		t.Fatalf("recovered %v, want only key 2 = 200", rec)
	}
}

func TestRemoveDurable(t *testing.T) {
	sys, st, _ := newStore(t)
	mgr := core.NewTxManager()
	h := sys.Wrap(mgr.Register())
	_ = h.tx.RunRetry(func() error { st.Put(h, 1, 100); return nil })
	_ = h.tx.RunRetry(func() error { st.Put(h, 2, 200); return nil })
	sys.Sync()
	_ = h.tx.RunRetry(func() error {
		if _, ok := st.Remove(h, 1); !ok {
			t.Fatal("remove failed")
		}
		return nil
	})
	sys.Sync()
	rec := sys.CrashAndRecover()
	if len(rec) != 1 || rec[0].Key != 2 {
		t.Fatalf("recovered %d payloads (want only key 2)", len(rec))
	}
}

func TestReplaceDurable(t *testing.T) {
	sys, st, _ := newStore(t)
	mgr := core.NewTxManager()
	h := sys.Wrap(mgr.Register())
	_ = h.tx.RunRetry(func() error { st.Put(h, 1, 100); return nil })
	sys.Sync()
	_ = h.tx.RunRetry(func() error { st.Put(h, 1, 111); return nil })
	sys.Sync()
	rec := sys.CrashAndRecover()
	if len(rec) != 1 {
		t.Fatalf("recovered %d payloads, want 1", len(rec))
	}
	if rec[0].Data[0] != 111 {
		t.Fatalf("recovered value %d, want 111", rec[0].Data[0])
	}
}

func TestRecoveryToOlderEpochSeesOldValue(t *testing.T) {
	// A replace whose epoch never persisted must roll back to the old value.
	sys, st, _ := newStore(t)
	mgr := core.NewTxManager()
	h := sys.Wrap(mgr.Register())
	_ = h.tx.RunRetry(func() error { st.Put(h, 1, 100); return nil })
	sys.Sync()
	_ = h.tx.RunRetry(func() error { st.Put(h, 1, 111); return nil }) // unsynced replace
	rec := sys.CrashAndRecover()
	if len(rec) != 1 || rec[0].Data[0] != 100 {
		t.Fatalf("recovered %+v, want old value 100", rec)
	}
}

func TestAbortedTxLeavesNoPayloads(t *testing.T) {
	sys, st, _ := newStore(t)
	mgr := core.NewTxManager()
	tx := mgr.Register()
	h := sys.Wrap(tx)
	_ = tx.Run(func() error {
		st.Put(h, 1, 100)
		st.Put(h, 2, 200)
		tx.Abort()
		return nil
	})
	sys.Sync()
	rec := sys.CrashAndRecover()
	if len(rec) != 0 {
		t.Fatalf("aborted tx persisted %d payloads", len(rec))
	}
	if sys.Stats().PayloadsBorn != 0 {
		t.Fatalf("aborted tx counted births: %+v", sys.Stats())
	}
}

func TestTxAtomicAcrossCrash(t *testing.T) {
	// Both writes of one transaction persist together or not at all.
	sys, st, _ := newStore(t)
	mgr := core.NewTxManager()
	tx := mgr.Register()
	h := sys.Wrap(tx)
	if err := tx.Run(func() error {
		st.Put(h, 1, 10)
		st.Put(h, 2, 20)
		return nil
	}); err != nil {
		t.Fatalf("tx: %v", err)
	}
	sys.Sync()
	if err := tx.Run(func() error {
		st.Put(h, 1, 11)
		st.Put(h, 3, 30)
		return nil
	}); err != nil {
		t.Fatalf("tx2: %v", err)
	}
	// No sync: second tx must vanish entirely.
	rec := sys.CrashAndRecover()
	got := map[uint64]uint64{}
	for _, r := range rec {
		got[r.Key] = r.Data[0]
	}
	want := map[uint64]uint64{1: 10, 2: 20}
	if len(got) != len(want) || got[1] != 10 || got[2] != 20 {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

func TestEpochValidationAbortsStragglers(t *testing.T) {
	// A transaction that begins in epoch e cannot commit after the clock
	// ticks: the epoch read-check fails at End.
	sys, st, _ := newStore(t)
	mgr := core.NewTxManager()
	tx := mgr.Register()
	h := sys.Wrap(tx)
	err := tx.Run(func() error {
		st.Put(h, 1, 1)
		// The epoch advances inside an open transaction: the advancer's
		// grace wait only applies at write-back time; bumping the clock is
		// what kills stragglers. Simulate the bump directly.
		sys.setEpoch(sys.Epoch() + 1)
		return nil
	})
	if !errors.Is(err, core.ErrTxAborted) {
		t.Fatalf("straggler committed across epoch boundary: %v", err)
	}
}

func TestBlockReuseOnlyAfterDeathPersisted(t *testing.T) {
	sys, st, _ := newStore(t)
	mgr := core.NewTxManager()
	h := sys.Wrap(mgr.Register())
	_ = h.tx.RunRetry(func() error { st.Put(h, 1, 100); return nil })
	sys.Sync()
	var oldOff int
	_ = h.tx.RunRetry(func() error {
		e, _ := st.idx.Get(h.tx, 1)
		oldOff = e.Off
		st.Remove(h, 1)
		return nil
	})
	// Death epoch not yet persisted: allocation must not hand the block out.
	off, _ := sys.alloc(1)
	if off == oldOff {
		t.Fatal("block reused before its death epoch persisted")
	}
	sys.release(off, 0)
	sys.Sync()
	// Now the death epoch is persisted; the block may circulate.
	off2, _ := sys.alloc(1)
	if off2 != oldOff {
		// Not required to be the same block, but it must be available:
		// drain the free list to confirm it is reachable.
		found := off2 == oldOff
		for i := 0; i < 1024 && !found; i++ {
			o, _ := sys.alloc(1)
			if o == oldOff {
				found = true
			}
		}
		if !found {
			t.Fatal("dead block never became reusable")
		}
	}
}

func TestConservationAcrossRandomCrash(t *testing.T) {
	// Bank transfers with a background advancer; crash at an arbitrary
	// moment must recover a cut where the total is conserved.
	const nAccounts = 16
	const initial = 1000
	sys, st, _ := newStore(t)
	mgr := core.NewTxManager()
	seedH := sys.Wrap(mgr.Register())
	if err := seedH.tx.RunRetry(func() error {
		for k := uint64(0); k < nAccounts; k++ {
			st.Put(seedH, k, initial)
		}
		return nil
	}); err != nil {
		t.Fatalf("seed: %v", err)
	}
	sys.Sync()

	stopAdv := sys.StartAdvancer(200 * 1000) // 200us
	var wg sync.WaitGroup
	iters := 400
	if testing.Short() {
		iters = 80
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			tx := mgr.Register()
			h := sys.Wrap(tx)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				a := uint64(rng.Intn(nAccounts))
				b := uint64(rng.Intn(nAccounts))
				if a == b {
					continue
				}
				amt := uint64(rng.Intn(5) + 1)
				_ = tx.RunRetry(func() error {
					va, ok := st.Get(h, a)
					if !ok || va < amt {
						return errInsufficient
					}
					vb, _ := st.Get(h, b)
					st.Put(h, a, va-amt)
					st.Put(h, b, vb+amt)
					return nil
				})
			}
		}(int64(g) + 3)
	}
	wg.Wait()
	stopAdv()
	rec := sys.CrashAndRecover()
	if len(rec) != nAccounts {
		t.Fatalf("recovered %d accounts, want %d", len(rec), nAccounts)
	}
	var total uint64
	for _, r := range rec {
		total += r.Data[0]
	}
	if total != nAccounts*initial {
		t.Fatalf("recovered total = %d, want %d (epoch cut not consistent)", total, nAccounts*initial)
	}
}

func TestRecycledRegionSurvivesChurn(t *testing.T) {
	// Heavy insert/remove churn in a small region: allocation must recycle
	// without exhausting, and recovery must stay consistent.
	sys := NewSystem(Config{RegionWords: 1 << 14})
	mgr := core.NewTxManager()
	idx := mhash.NewMap[Entry[uint64]](mgr, 64)
	st := NewPStore[uint64](sys, idx, U64Codec())
	h := sys.Wrap(mgr.Register())
	for round := 0; round < 30; round++ {
		for k := uint64(0); k < 20; k++ {
			key := k
			_ = h.tx.RunRetry(func() error { st.Put(h, key, key*uint64(round+1)); return nil })
		}
		sys.Sync()
		for k := uint64(0); k < 20; k += 2 {
			key := k
			_ = h.tx.RunRetry(func() error { st.Remove(h, key); return nil })
		}
		sys.Sync()
	}
	rec := sys.CrashAndRecover()
	if len(rec) != 10 {
		t.Fatalf("recovered %d payloads, want 10 odd keys", len(rec))
	}
	for _, r := range rec {
		if r.Key%2 != 1 {
			t.Fatalf("even key %d survived", r.Key)
		}
		if r.Data[0] != r.Key*30 {
			t.Fatalf("key %d value %d, want %d", r.Key, r.Data[0], r.Key*30)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	sys, st, _ := newStore(t)
	mgr := core.NewTxManager()
	h := sys.Wrap(mgr.Register())
	_ = h.tx.RunRetry(func() error { st.Put(h, 1, 1); st.Put(h, 2, 2); return nil })
	_ = h.tx.RunRetry(func() error { st.Remove(h, 1); return nil })
	sys.Sync()
	s := sys.Stats()
	if s.PayloadsBorn != 2 || s.PayloadsKilled != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Device.WriteBackLines == 0 || s.Device.Fences == 0 {
		t.Fatalf("no device traffic recorded: %+v", s.Device)
	}
}
