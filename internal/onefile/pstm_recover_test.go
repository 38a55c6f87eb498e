package onefile

import (
	"errors"
	"testing"

	"medley/internal/pmem"
)

func newTestPMap(t *testing.T) (*PSTM, *PMap) {
	t.Helper()
	p := NewPersistent(pmem.Config{Words: 1 << 16})
	return p, NewPMap(p, NewHashMap(p.STM, 1<<6))
}

func pmapPut(t *testing.T, p *PSTM, pm *PMap, k, v uint64) {
	t.Helper()
	if err := p.WriteTx(func(tx *Tx) error { pm.Put(tx, k, v); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestPMapRecoverKVRoundTrip commits puts, overwrites and removes, then
// crashes: RecoverKV must return exactly the committed map, with removed
// keys absent and overwritten keys at their last committed value.
func TestPMapRecoverKVRoundTrip(t *testing.T) {
	p, pm := newTestPMap(t)
	for k := uint64(0); k < 64; k++ {
		pmapPut(t, p, pm, k, k*2)
	}
	for k := uint64(0); k < 8; k++ {
		pmapPut(t, p, pm, k, k*5)
	}
	if err := p.WriteTx(func(tx *Tx) error {
		for k := uint64(56); k < 64; k++ {
			pm.Remove(tx, k)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	kv := pm.RecoverKV()
	if len(kv) != 56 {
		t.Fatalf("recovered %d entries, want 56", len(kv))
	}
	for k := uint64(0); k < 56; k++ {
		want := k * 2
		if k < 8 {
			want = k * 5
		}
		if kv[k] != want {
			t.Fatalf("key %d recovered as %d, want %d", k, kv[k], want)
		}
	}
	for k := uint64(56); k < 64; k++ {
		if _, ok := kv[k]; ok {
			t.Fatalf("removed key %d resurrected", k)
		}
	}
}

// TestPMapRecoverKVDropsAbortedWrites checks that a transaction whose body
// errors (aborts before commit) leaves no durable trace: its keys must not
// appear after a crash.
func TestPMapRecoverKVDropsAbortedWrites(t *testing.T) {
	p, pm := newTestPMap(t)
	pmapPut(t, p, pm, 1, 11)
	sentinel := errors.New("body aborts")
	if err := p.WriteTx(func(tx *Tx) error {
		pm.Put(tx, 2, 22)
		return sentinel
	}); err != sentinel {
		t.Fatalf("aborting tx returned %v", err)
	}
	kv := pm.RecoverKV()
	if len(kv) != 1 || kv[1] != 11 {
		t.Fatalf("recovered %v, want only {1:11}", kv)
	}
}

// TestPMapRecoverKVReplaysTornLog simulates a crash between redo-log
// persistence and home write-back: the log is durable but a home word
// still carries the old value. Recovery must replay the log and surface
// the logged value.
func TestPMapRecoverKVReplaysTornLog(t *testing.T) {
	p, pm := newTestPMap(t)
	pmapPut(t, p, pm, 5, 50)

	// The committed put assigned homes for key 5's directory words.
	mt := pm.metaFor(5)
	voff, ok := p.persistedHome(mt.val)
	if !ok {
		t.Fatal("value word has no persisted home")
	}

	// Hand-write a durable redo log installing 500 into the value home,
	// as an interrupted commit would have left it, without touching the
	// home itself.
	r := p.Region
	r.Store(p.logBase, uint64(voff))
	r.Store(p.logBase+1, 500)
	r.Store(0, 2) // log length header
	r.WriteBack(p.logBase, 2)
	r.WriteBack(0, 1)
	r.Fence()

	kv := pm.RecoverKV()
	if kv[5] != 500 {
		t.Fatalf("torn commit not replayed: key 5 = %d, want 500", kv[5])
	}
	// The log must be retired by recovery: a second crash replays nothing.
	if n := p.RecoverLog(); n != 0 {
		t.Fatalf("log not retired after recovery: %d entries replayed", n)
	}
}

// TestPMapRecoverRebuildsWithoutRepersisting rebuilds through Recover and
// checks (a) the fresh structure serves the committed contents, (b) the
// rebuild did not go through the persist path — no new home words, no log
// traffic — and (c) the recovered map keeps working transactionally.
func TestPMapRecoverRebuildsWithoutRepersisting(t *testing.T) {
	p, pm := newTestPMap(t)
	for k := uint64(0); k < 40; k++ {
		pmapPut(t, p, pm, k, k+7)
	}
	p.mu.Lock()
	homesBefore := len(p.homes)
	p.mu.Unlock()
	wbBefore := p.Region.Stats().WriteBackLines

	fresh := NewHashMap(p.STM, 1<<6)
	if n := pm.Recover(fresh); n != 40 {
		t.Fatalf("recovered %d entries, want 40", n)
	}
	p.mu.Lock()
	homesAfter := len(p.homes)
	p.mu.Unlock()
	if homesAfter != homesBefore {
		t.Fatalf("recovery allocated %d new home words", homesAfter-homesBefore)
	}
	// RecoverLog's replay of a retired log touches no lines beyond the
	// header reset; bulk-loading must add no data write-backs at all.
	if wb := p.Region.Stats().WriteBackLines - wbBefore; wb > 2 {
		t.Fatalf("recovery wrote %d lines back, want <= 2 (log header only)", wb)
	}
	got := make(map[uint64]uint64)
	pm.Range(func(k, v uint64) bool { got[k] = v; return true })
	if len(got) != 40 || got[3] != 10 {
		t.Fatalf("rebuilt contents wrong: %d entries, got[3]=%d", len(got), got[3])
	}
	pmapPut(t, p, pm, 100, 1000)
	if kv := pm.RecoverKV(); kv[100] != 1000 || len(kv) != 41 {
		t.Fatalf("post-recovery commit not durable: %v", kv[100])
	}
}

// TestSkiplistLoadMatchesTransactionalView checks the quiescent bulk
// loader produces a structure transactions can read and update.
func TestSkiplistLoadMatchesTransactionalView(t *testing.T) {
	stm := New()
	sl := NewSkiplist(stm)
	for _, k := range []uint64{5, 1, 9, 3, 7, 3} { // 3 twice: replace path
		sl.Load(k, k*10)
	}
	if err := stm.ReadTx(func(tx *Tx) error {
		for _, k := range []uint64{1, 3, 5, 7, 9} {
			if v, ok := sl.Get(tx, k); !ok || v != k*10 {
				t.Errorf("key %d = (%d, %v), want %d", k, v, ok, k*10)
			}
		}
		if _, ok := sl.Get(tx, 2); ok {
			t.Error("phantom key 2")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := stm.WriteTx(func(tx *Tx) error {
		sl.Put(tx, 4, 44)
		sl.Remove(tx, 9)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := sl.Len(); n != 5 {
		t.Fatalf("len = %d, want 5", n)
	}
}

// TestStoreHomeIsMonotoneInCommitOrder is the regression test for the
// stale-applier clobbering the crash-recovery verifier caught under
// -race: a laggard persister from an older commit must not overwrite a
// home word a newer commit already persisted.
func TestStoreHomeIsMonotoneInCommitOrder(t *testing.T) {
	p := NewPersistent(pmem.Config{Words: 1 << 12})
	w := NewWord[uint64](0)
	p.storeHome(w, 111, 4) // commit 4 persists first
	p.storeHome(w, 222, 2) // stale applier from commit 2 arrives late
	off, ok := p.persistedHome(w)
	if !ok {
		t.Fatal("no home assigned")
	}
	if got := p.Region.PersistedLoad(off); got != 111 {
		t.Fatalf("stale commit clobbered home: %d, want 111", got)
	}
	p.storeHome(w, 333, 6)
	if got := p.Region.PersistedLoad(off); got != 333 {
		t.Fatalf("newer commit did not advance home: %d, want 333", got)
	}
}

// TestHashMapAndSkiplistRange covers the Range iteration hooks recovery
// rebuilding depends on.
func TestHashMapAndSkiplistRange(t *testing.T) {
	stm := New()
	for _, m := range []KV{NewHashMap(stm, 8), NewSkiplist(stm)} {
		if err := stm.WriteTx(func(tx *Tx) error {
			for k := uint64(0); k < 32; k++ {
				m.Put(tx, k, k+100)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		got := make(map[uint64]uint64)
		m.Range(func(k, v uint64) bool {
			got[k] = v
			return true
		})
		if len(got) != 32 {
			t.Fatalf("%T: Range saw %d entries, want 32", m, len(got))
		}
		for k, v := range got {
			if v != k+100 {
				t.Fatalf("%T: key %d = %d", m, k, v)
			}
		}
		// Early termination.
		n := 0
		m.Range(func(k, v uint64) bool {
			n++
			return n < 5
		})
		if n != 5 {
			t.Fatalf("%T: Range ignored early stop (saw %d)", m, n)
		}
	}
}
