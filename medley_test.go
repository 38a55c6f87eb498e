package medley_test

import (
	"errors"
	"testing"

	"medley"
	"medley/internal/structures/mhash"
)

// TestFacadeTransfer exercises the public API end to end: the paper's
// Figure 3 transfer across two hash tables.
func TestFacadeTransfer(t *testing.T) {
	mgr := medley.NewTxManager()
	ht1 := medley.NewHashMap[int](mgr, 1024)
	ht2 := medley.NewHashMap[int](mgr, 1024)
	tx := mgr.Register()
	ht1.Put(nil, 1, 100)

	errInsufficient := errors.New("insufficient")
	transfer := func(v int, a1, a2 uint64) error {
		return tx.RunRetry(func() error {
			v1, ok := ht1.Get(tx, a1)
			if !ok || v1 < v {
				return errInsufficient
			}
			v2, _ := ht2.Get(tx, a2)
			ht1.Put(tx, a1, v1-v)
			ht2.Put(tx, a2, v+v2)
			return nil
		})
	}
	if err := transfer(40, 1, 2); err != nil {
		t.Fatalf("transfer: %v", err)
	}
	if v, _ := ht1.Get(nil, 1); v != 60 {
		t.Fatalf("ht1[1] = %d", v)
	}
	if v, _ := ht2.Get(nil, 2); v != 40 {
		t.Fatalf("ht2[2] = %d", v)
	}
	if err := transfer(1000, 1, 2); !errors.Is(err, errInsufficient) {
		t.Fatalf("overdraft = %v", err)
	}
}

// TestFacadeMixedStructures composes operations across four different
// structure types in one transaction.
func TestFacadeMixedStructures(t *testing.T) {
	mgr := medley.NewTxManager()
	skip := medley.NewSkiplist[string](mgr)
	bst := medley.NewBST[string](mgr)
	q := medley.NewQueue[uint64](mgr)
	rot := medley.NewRotatingSkiplist[string](mgr)
	tx := mgr.Register()

	err := tx.RunRetry(func() error {
		skip.Put(tx, 1, "skip")
		bst.Put(tx, 2, "bst")
		rot.Put(tx, 3, "rot")
		q.Enqueue(tx, 99)
		return nil
	})
	if err != nil {
		t.Fatalf("compose: %v", err)
	}
	if v, ok := skip.Get(nil, 1); !ok || v != "skip" {
		t.Fatal("skiplist write lost")
	}
	if v, ok := bst.Get(nil, 2); !ok || v != "bst" {
		t.Fatal("bst write lost")
	}
	if v, ok := rot.Get(nil, 3); !ok || v != "rot" {
		t.Fatal("rotating write lost")
	}
	if v, ok := q.Dequeue(nil); !ok || v != 99 {
		t.Fatal("queue write lost")
	}
	// Aborted cross-structure transaction leaves no trace.
	_ = tx.Run(func() error {
		skip.Remove(tx, 1)
		q.Enqueue(tx, 1)
		tx.Abort()
		return nil
	})
	if _, ok := skip.Get(nil, 1); !ok {
		t.Fatal("aborted remove took effect")
	}
	if q.Len() != 0 {
		t.Fatal("aborted enqueue took effect")
	}
}

// TestFacadeDurable exercises txMontage through the facade: put, sync,
// crash, recover.
func TestFacadeDurable(t *testing.T) {
	sys := medley.NewMontage(medley.MontageConfig{RegionWords: 1 << 18})
	mgr := medley.NewTxManager()
	idx := mhash.NewMap[medley.PEntry[uint64]](mgr, 256)
	store := medley.NewPStore[uint64](sys, idx, medley.U64Codec())

	tx := mgr.Register()
	h := sys.Wrap(tx)
	if err := tx.RunRetry(func() error {
		store.Put(h, 7, 700)
		store.Put(h, 8, 800)
		return nil
	}); err != nil {
		t.Fatalf("durable put: %v", err)
	}
	sys.Sync()
	_ = tx.RunRetry(func() error { store.Put(h, 9, 900); return nil }) // unsynced

	rec := sys.CrashAndRecover()
	mgr2 := medley.NewTxManager()
	idx2 := mhash.NewMap[medley.PEntry[uint64]](mgr2, 256)
	store2 := medley.RebuildPStore(sys, idx2, medley.U64Codec(), rec)

	h2 := sys.Wrap(mgr2.Register())
	if v, ok := store2.Get(h2, 7); !ok || v != 700 {
		t.Fatalf("recovered store[7] = %d,%v", v, ok)
	}
	if v, ok := store2.Get(h2, 8); !ok || v != 800 {
		t.Fatalf("recovered store[8] = %d,%v", v, ok)
	}
	if _, ok := store2.Get(h2, 9); ok {
		t.Fatal("unsynced epoch survived the crash")
	}
}

// TestFacadeEBR wires epoch-based reclamation through a Tx: with a handle
// attached, unlinked hash nodes and published read sets retire into the
// Tx's pools through the EBR grace period (single goroutine, so no
// Enter/Exit bracketing is needed for safety).
func TestFacadeEBR(t *testing.T) {
	mgr := medley.NewTxManager()
	m := medley.NewHashMap[int](mgr, 64)
	smr := medley.NewEBR(4)
	tx := mgr.Register()
	h := smr.Register()
	tx.SetSMR(h)
	for k := uint64(0); k < 50; k++ {
		key := k
		if err := tx.RunRetry(func() error {
			m.Put(tx, key, int(key))
			m.Remove(tx, key)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	h.Drain()
	if st := smr.Stats(); st.Retired == 0 || st.Reclaimed != st.Retired {
		t.Fatalf("EBR stats = %+v", st)
	}
}

func TestFacadeShardedMap(t *testing.T) {
	mgr := medley.NewTxManager()
	m, err := medley.NewShardedMap(mgr, "skip", 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	tx := mgr.Register()
	const n = 512
	if err := tx.RunRetry(func() error {
		for k := uint64(0); k < n; k++ {
			m.Put(tx, k, k*3)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < n; k++ {
		if v, ok := m.Get(nil, k); !ok || v != k*3 {
			t.Fatalf("key %d = (%d,%v), want %d", k, v, ok, k*3)
		}
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	// A structure that ignores the Tx cannot shard: the facade surfaces
	// the error.
	if _, err := medley.NewShardedMap(mgr, "plain-skip", 4, 0); err == nil {
		t.Fatal("sharded plain-skip did not error")
	}
}
