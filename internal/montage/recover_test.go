package montage

import (
	"testing"

	"medley/internal/core"
	"medley/internal/structures/mhash"
)

// newTestStore builds a small montage system with a hash-indexed PStore
// and a wrapped handle, the fixture shape of the recovery tests.
func newTestStore(t *testing.T) (*System, *PStore[uint64], *Handle) {
	t.Helper()
	sys := NewSystem(Config{RegionWords: 1 << 16})
	mgr := core.NewTxManager()
	idx := mhash.NewMap[Entry[uint64]](mgr, 1<<8)
	store := NewPStore(sys, idx, U64Codec())
	h := sys.Wrap(mgr.Register())
	return sys, store, h
}

func put(t *testing.T, store *PStore[uint64], h *Handle, k, v uint64) {
	t.Helper()
	if err := h.Tx().RunRetry(func() error { store.Put(h, k, v); return nil }); err != nil {
		t.Fatal(err)
	}
}

func remove(t *testing.T, store *PStore[uint64], h *Handle, k uint64) {
	t.Helper()
	if err := h.Tx().RunRetry(func() error { store.Remove(h, k); return nil }); err != nil {
		t.Fatal(err)
	}
}

func contents(store *PStore[uint64]) map[uint64]uint64 {
	out := make(map[uint64]uint64)
	store.Range(func(k, v uint64) bool {
		out[k] = v
		return true
	})
	return out
}

// TestRebuildPStoreRoundTrip pushes a non-empty store through
// CrashAndRecover + RebuildPStore and checks the recovered contents are
// exactly the persisted ones: puts and overwrites present with their last
// value, removed keys absent.
func TestRebuildPStoreRoundTrip(t *testing.T) {
	sys, store, h := newTestStore(t)
	for k := uint64(0); k < 100; k++ {
		put(t, store, h, k, k*3)
	}
	for k := uint64(0); k < 20; k++ {
		put(t, store, h, k, k*7) // overwrite: old payload retired
	}
	for k := uint64(90); k < 100; k++ {
		remove(t, store, h, k)
	}
	want := contents(store)
	if len(want) != 90 {
		t.Fatalf("pre-crash store has %d entries, want 90", len(want))
	}
	sys.Sync()

	payloads := sys.CrashAndRecover()
	mgr := core.NewTxManager()
	idx := mhash.NewMap[Entry[uint64]](mgr, 1<<8)
	rebuilt := RebuildPStore(sys, idx, U64Codec(), payloads)

	got := contents(rebuilt)
	if len(got) != len(want) {
		t.Fatalf("recovered %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		gv, ok := got[k]
		if !ok || gv != v {
			t.Fatalf("key %d: recovered (%d, %v), want %d", k, gv, ok, v)
		}
	}
	// Recovery is a restart: the rebuilt store keeps working.
	h2 := sys.Wrap(mgr.Register())
	put(t, rebuilt, h2, 7, 777)
	if v, ok := rebuilt.Get(h2, 7); !ok || v != 777 {
		t.Fatalf("post-recovery put lost: (%d, %v)", v, ok)
	}
}

// TestRebuildPStoreDuplicateOffsets documents RebuildPStore's tolerance of
// degenerate payload lists: entries apply in order, so a later payload for
// the same key wins regardless of offsets, and distinct keys sharing an
// offset (a recycled block surfacing twice) both land in the index.
func TestRebuildPStoreDuplicateOffsets(t *testing.T) {
	sys := NewSystem(Config{RegionWords: 1 << 16})
	mgr := core.NewTxManager()
	idx := mhash.NewMap[Entry[uint64]](mgr, 1<<8)
	payloads := []Recovered{
		{Key: 1, Data: []uint64{10}, Off: 4096},
		{Key: 1, Data: []uint64{20}, Off: 4096}, // same key, same block: last wins
		{Key: 2, Data: []uint64{30}, Off: 4096}, // different key, recycled offset
	}
	store := RebuildPStore(sys, idx, U64Codec(), payloads)
	got := contents(store)
	if len(got) != 2 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("rebuilt contents = %v, want {1:20, 2:30}", got)
	}
}

// TestCrashAndRecoverSkipsTornPayload persists a store, then corrupts one
// block's persisted length header so it claims more data than the block
// can hold — the torn-write shape a real crash can leave. Recovery must
// skip the torn block without panicking and keep every intact one.
func TestCrashAndRecoverSkipsTornPayload(t *testing.T) {
	sys, store, h := newTestStore(t)
	for k := uint64(0); k < 50; k++ {
		put(t, store, h, k, k+1000)
	}
	sys.Sync()

	// Locate the live blocks (offset + key) from the persisted image.
	first := sys.CrashAndRecover()
	if len(first) != 50 {
		t.Fatalf("first recovery found %d payloads, want 50", len(first))
	}
	victim := first[0]

	// Tear the victim: length header far beyond the block's capacity,
	// persisted the way an interrupted write-back would leave it.
	sys.Region.Store(victim.Off+hdrLen, 1<<40)
	sys.Region.WriteBack(victim.Off, hdrWords)
	sys.Region.Fence()

	second := sys.CrashAndRecover()
	if len(second) != 49 {
		t.Fatalf("recovery after tear found %d payloads, want 49", len(second))
	}
	for _, r := range second {
		if r.Key == victim.Key {
			t.Fatalf("torn payload for key %d survived recovery", victim.Key)
		}
		if len(r.Data) != 1 || r.Data[0] != r.Key+1000 {
			t.Fatalf("intact payload %d corrupted: %v", r.Key, r.Data)
		}
	}

	// A negative length (huge uint64) must also be skipped, not sliced.
	victim2 := second[0]
	sys.Region.Store(victim2.Off+hdrLen, ^uint64(0))
	sys.Region.WriteBack(victim2.Off, hdrWords)
	sys.Region.Fence()
	third := sys.CrashAndRecover()
	if len(third) != 48 {
		t.Fatalf("recovery after negative-length tear found %d payloads, want 48", len(third))
	}
}

// TestLosingInsertIsNotRecovered commits a transaction whose Insert loses
// to a present key, then crashes: only the payload the index holds may
// come back. A losing Insert's block is never born, so nothing stamps or
// writes it back. (TestInsertFailureReleasesBlock misses this: its
// aborted Insert reuses the same block and zeroes its birth before the
// write-back.)
func TestLosingInsertIsNotRecovered(t *testing.T) {
	sys, store, h := newTestStore(t)
	put(t, store, h, 1, 100)
	if err := h.Tx().RunRetry(func() error {
		if store.Insert(h, 1, 999) {
			t.Error("Insert over a present key succeeded")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sys.Sync()
	rec := sys.CrashAndRecover()
	if len(rec) != 1 || rec[0].Key != 1 || rec[0].Data[0] != 100 {
		t.Fatalf("recovered %+v, want key 1 = 100 alone", rec)
	}
	idx := mhash.NewMap[Entry[uint64]](core.NewTxManager(), 1<<8)
	if got := contents(RebuildPStore(sys, idx, U64Codec(), rec)); len(got) != 1 || got[1] != 100 {
		t.Fatalf("rebuilt store holds %v, want key 1 = 100", got)
	}
}
