package montage

import (
	"testing"

	"medley/internal/core"
	"medley/internal/structures/fraserskip"
)

// TestAdvanceWithNoWork: epoch bookkeeping must be correct on an idle
// system.
func TestAdvanceWithNoWork(t *testing.T) {
	sys := NewSystem(Config{RegionWords: 1 << 14})
	if e := sys.Advance(); e != 1 {
		t.Fatalf("first advance persisted epoch %d, want 1", e)
	}
	if sys.Epoch() != 2 || sys.PersistedEpoch() != 1 {
		t.Fatalf("clock=%d persisted=%d", sys.Epoch(), sys.PersistedEpoch())
	}
	rec := sys.CrashAndRecover()
	if len(rec) != 0 {
		t.Fatalf("idle system recovered %d payloads", len(rec))
	}
	if sys.Epoch() != 2 || sys.PersistedEpoch() != 1 {
		t.Fatalf("post-crash clock=%d persisted=%d", sys.Epoch(), sys.PersistedEpoch())
	}
}

// TestCrashRecoverTwiceIdempotent: recovery itself must be crash-stable.
func TestCrashRecoverTwiceIdempotent(t *testing.T) {
	sys, st, _ := newStore(t)
	mgr := core.NewTxManager()
	h := sys.Wrap(mgr.Register())
	_ = h.tx.RunRetry(func() error { st.Put(h, 1, 100); st.Put(h, 2, 200); return nil })
	sys.Sync()
	rec1 := sys.CrashAndRecover()
	rec2 := sys.CrashAndRecover()
	if len(rec1) != 2 || len(rec2) != 2 {
		t.Fatalf("recoveries differ: %d then %d", len(rec1), len(rec2))
	}
	m1, m2 := map[uint64]uint64{}, map[uint64]uint64{}
	for _, r := range rec1 {
		m1[r.Key] = r.Data[0]
	}
	for _, r := range rec2 {
		m2[r.Key] = r.Data[0]
	}
	for k, v := range m1 {
		if m2[k] != v {
			t.Fatalf("recovery not idempotent at key %d: %d vs %d", k, v, m2[k])
		}
	}
}

// TestSkiplistIndexBackend exercises PStore over the skiplist index (the
// Figure 8 configuration) including removal and recovery.
func TestSkiplistIndexBackend(t *testing.T) {
	sys := NewSystem(Config{RegionWords: 1 << 18})
	mgr := core.NewTxManager()
	idx := fraserskip.New[Entry[uint64]](mgr)
	st := NewPStore[uint64](sys, idx, U64Codec())
	h := sys.Wrap(mgr.Register())
	for k := uint64(0); k < 64; k++ {
		key := k
		_ = h.tx.RunRetry(func() error { st.Put(h, key, key*3); return nil })
	}
	_ = h.tx.RunRetry(func() error { st.Remove(h, 10); st.Remove(h, 20); return nil })
	sys.Sync()
	rec := sys.CrashAndRecover()
	if len(rec) != 62 {
		t.Fatalf("recovered %d, want 62", len(rec))
	}
	mgr2 := core.NewTxManager()
	st2 := RebuildPStore(sys, fraserskip.New[Entry[uint64]](mgr2), U64Codec(), rec)
	h2 := sys.Wrap(mgr2.Register())
	if _, ok := st2.Get(h2, 10); ok {
		t.Fatal("removed key recovered")
	}
	if v, ok := st2.Get(h2, 33); !ok || v != 99 {
		t.Fatalf("st2[33] = %d,%v want 99", v, ok)
	}
}

// TestWrapTransientNeverPersists: the Figure 10b configuration writes
// payloads but persists nothing.
func TestWrapTransientNeverPersists(t *testing.T) {
	sys, st, _ := newStore(t)
	mgr := core.NewTxManager()
	h := sys.WrapTransient(mgr.Register())
	_ = h.tx.RunRetry(func() error { st.Put(h, 1, 100); return nil })
	if sys.Stats().PayloadsBorn != 1 {
		t.Fatal("payload not written")
	}
	sys.Sync() // an advance with persistence "off" flushes nothing of ours
	rec := sys.CrashAndRecover()
	if len(rec) != 0 {
		t.Fatalf("persistOff payloads survived a crash: %d", len(rec))
	}
}

// TestInsertFailureReleasesBlock: a losing Insert returns its staged block
// on both the commit and abort paths.
func TestInsertFailureReleasesBlock(t *testing.T) {
	sys, st, _ := newStore(t)
	mgr := core.NewTxManager()
	tx := mgr.Register()
	h := sys.Wrap(tx)
	_ = h.tx.RunRetry(func() error { st.Put(h, 1, 100); return nil })
	// Commit path.
	if err := tx.RunRetry(func() error {
		if st.Insert(h, 1, 999) {
			t.Fatal("duplicate insert succeeded")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Abort path.
	_ = tx.Run(func() error {
		st.Insert(h, 1, 999)
		tx.Abort()
		return nil
	})
	sys.Sync()
	rec := sys.CrashAndRecover()
	if len(rec) != 1 || rec[0].Data[0] != 100 {
		t.Fatalf("recovered %+v, want single payload 100", rec)
	}
}

// TestAbortReleasesStagedPayloads aborts transactions that stage payloads,
// on a persistent and on a transient handle: each abort must release the
// blocks it allocated, so a hundred aborts carve no more blocks than the
// first.
func TestAbortReleasesStagedPayloads(t *testing.T) {
	for _, transient := range []bool{false, true} {
		sys, st, mgr := newStore(t)
		tx := mgr.Register()
		h := sys.Wrap(tx)
		if transient {
			h = sys.WrapTransient(mgr.Register())
			tx = h.tx
		}
		for i := 0; i < 100; i++ {
			_ = tx.Run(func() error {
				st.Put(h, 1, 100)
				st.Put(h, 2, 200)
				tx.Abort()
				return nil
			})
		}
		carved := 0
		for i := range sys.arenas {
			carved += sys.arenas[i].bump
		}
		if carved != 2 {
			t.Errorf("transient %v: 100 aborted transactions of two puts carved %d blocks, want 2", transient, carved)
		}
	}
}

// TestLargePayloadClassSelection: values spanning size classes round-trip.
func TestLargePayloadClassSelection(t *testing.T) {
	sys := NewSystem(Config{RegionWords: 1 << 18})
	mgr := core.NewTxManager()
	codec := Codec[[]uint64]{
		Enc: func(v, dst []uint64) []uint64 { return append(dst, v...) },
		Dec: func(w []uint64) []uint64 { return append([]uint64(nil), w...) },
	}
	idx := fraserskip.New[Entry[[]uint64]](mgr)
	st := NewPStore[[]uint64](sys, idx, codec)
	h := sys.Wrap(mgr.Register())
	sizes := []int{1, 4, 11, 27, 59, 200}
	for i, n := range sizes {
		data := make([]uint64, n)
		for j := range data {
			data[j] = uint64(i*1000 + j)
		}
		key, val := uint64(i), data
		_ = h.tx.RunRetry(func() error { st.Put(h, key, val); return nil })
	}
	sys.Sync()
	rec := sys.CrashAndRecover()
	if len(rec) != len(sizes) {
		t.Fatalf("recovered %d, want %d", len(rec), len(sizes))
	}
	for _, r := range rec {
		want := sizes[r.Key]
		if len(r.Data) != want {
			t.Fatalf("key %d recovered %d words, want %d", r.Key, len(r.Data), want)
		}
		for j, w := range r.Data {
			if w != uint64(int(r.Key)*1000+j) {
				t.Fatalf("key %d word %d corrupted", r.Key, j)
			}
		}
	}
}

// TestAdvanceAllocatesNothing pins an epoch advance over handles with
// write-back work to no allocation: the handle list it waits on and the
// ranges it drains from each handle go into buffers the advancer reuses.
// Building them afresh every advance allocated 7 objects here.
func TestAdvanceAllocatesNothing(t *testing.T) {
	sys := NewSystem(Config{RegionWords: 1 << 14})
	mgr := core.NewTxManager()
	hs := []*Handle{sys.Wrap(mgr.Register()), sys.Wrap(mgr.Register())}
	allocs := testing.AllocsPerRun(100, func() {
		e := sys.Epoch()
		for i, h := range hs {
			h.addPending(64*i, 8, e)
			h.addPending(64*i+8, 8, e)
			h.addPending(64*i+16, 8, e+1) // stays for the next advance
		}
		sys.Advance()
	})
	if allocs != 0 {
		t.Errorf("Advance over two handles with pending ranges allocates %.2f objects, want 0", allocs)
	}
}
