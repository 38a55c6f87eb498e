package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestReadOnlyFastPathCounters checks that a transaction with an empty
// write set commits through the read-only fast path and is counted as both
// a read-only and a fast-path commit.
func TestReadOnlyFastPathCounters(t *testing.T) {
	mgr := NewTxManager()
	tx := mgr.Register()
	o := newWord(7)
	for i := 0; i < 3; i++ {
		err := tx.Run(func() error {
			v, w := o.NbtcLoad(tx)
			if v != 7 {
				t.Errorf("NbtcLoad = %d, want 7", v)
			}
			tx.AddToReadSet(w)
			return nil
		})
		if err != nil {
			t.Fatalf("read-only Run: %v", err)
		}
	}
	st := mgr.Stats()
	if st.ReadOnlyCommits != 3 || st.FastPathCommits != 3 || st.Commits != 3 {
		t.Fatalf("ReadOnlyCommits,FastPathCommits,Commits = %d,%d,%d, want 3,3,3",
			st.ReadOnlyCommits, st.FastPathCommits, st.Commits)
	}
	// The descriptor must still end terminal, exactly as the general path
	// leaves it.
	if got := statusOf(tx.desc.status.Load()); got != StatusCommitted {
		t.Fatalf("descriptor status = %d, want Committed", got)
	}
}

// TestSingleWriteFastPathCounters checks that a transaction with exactly
// one installed word commits through the single-write fast path
// (a fast-path commit that is not a read-only commit) and that larger
// write sets fall back to the general protocol.
func TestSingleWriteFastPathCounters(t *testing.T) {
	mgr := NewTxManager()
	tx := mgr.Register()
	a, b := newWord(0), newWord(0)
	if err := tx.Run(func() error {
		if !a.NbtcCAS(tx, 0, 1, true, true) {
			t.Fatal("single-write install failed")
		}
		return nil
	}); err != nil {
		t.Fatalf("single-write Run: %v", err)
	}
	if err := tx.Run(func() error {
		if !a.NbtcCAS(tx, 1, 2, false, true) || !b.NbtcCAS(tx, 0, 1, true, true) {
			t.Fatal("double-write install failed")
		}
		return nil
	}); err != nil {
		t.Fatalf("double-write Run: %v", err)
	}
	st := mgr.Stats()
	if st.FastPathCommits != 1 || st.ReadOnlyCommits != 0 || st.Commits != 2 {
		t.Fatalf("FastPathCommits,ReadOnlyCommits,Commits = %d,%d,%d, want 1,0,2",
			st.FastPathCommits, st.ReadOnlyCommits, st.Commits)
	}
	if got := a.Load(); got != 2 {
		t.Fatalf("a = %d, want 2", got)
	}
	if got := b.Load(); got != 1 {
		t.Fatalf("b = %d, want 1", got)
	}
}

// TestFastPathsDisabled checks the ablation switch: with
// TxManager.DisableFastPaths, the same transactions run the full
// handshake and no fast-path commit is counted.
func TestFastPathsDisabled(t *testing.T) {
	mgr := NewTxManager()
	mgr.DisableFastPaths()
	tx := mgr.Register()
	o := newWord(0)
	if err := tx.Run(func() error {
		v, w := o.NbtcLoad(tx)
		tx.AddToReadSet(w)
		_ = v
		return nil
	}); err != nil {
		t.Fatalf("read-only Run: %v", err)
	}
	if err := tx.Run(func() error {
		if !o.NbtcCAS(tx, 0, 1, true, true) {
			t.Fatal("install failed")
		}
		return nil
	}); err != nil {
		t.Fatalf("single-write Run: %v", err)
	}
	st := mgr.Stats()
	if st.FastPathCommits != 0 || st.ReadOnlyCommits != 0 {
		t.Fatalf("FastPathCommits,ReadOnlyCommits = %d,%d, want 0,0 with fast paths off",
			st.FastPathCommits, st.ReadOnlyCommits)
	}
	if st.Commits != 2 {
		t.Fatalf("Commits = %d, want 2", st.Commits)
	}
}

// TestReadOnlyFastPathSerializable is the serializability property test of
// the read-only commit elision: writer goroutines move value between two
// slots transactionally (preserving their sum), reader goroutines commit
// read-only transactions over both slots through the fast path, and every
// committed read must observe the invariant sum. A reader whose validation
// were skipped or torn would observe a half-applied transfer. Run with
// -race for the memory-model half of the claim.
func TestReadOnlyFastPathSerializable(t *testing.T) {
	const (
		workers = 4
		total   = 1 << 10
		rounds  = 20000
	)
	mgr := NewTxManager()
	a, b := newWord(total), newWord(0)
	var wg sync.WaitGroup
	var torn atomic.Int64
	var readOnly atomic.Uint64
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			tx := mgr.Register()
			for i := 0; i < rounds; i++ {
				if (i+seed)%2 == 0 {
					// Transfer one unit a->b (or back), a two-write
					// transaction through the general protocol.
					_ = tx.RunRetry(func() error {
						av, aw := a.NbtcLoad(tx)
						tx.AddToReadSet(aw)
						bv, bw := b.NbtcLoad(tx)
						tx.AddToReadSet(bw)
						d := uint32(1)
						if av == 0 {
							d = ^uint32(0) // -1
						}
						if !a.NbtcCAS(tx, av, av-d, false, true) {
							tx.Abort()
						}
						if !b.NbtcCAS(tx, bv, bv+d, true, false) {
							tx.Abort()
						}
						return nil
					})
					continue
				}
				var av, bv uint32
				err := tx.Run(func() error {
					v, w := a.NbtcLoad(tx)
					tx.AddToReadSet(w)
					av = v
					v, w = b.NbtcLoad(tx)
					tx.AddToReadSet(w)
					bv = v
					return nil
				})
				if err == nil && av+bv != total {
					torn.Add(1)
				}
				if err == nil {
					readOnly.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d committed read-only transactions observed a torn transfer", n)
	}
	if readOnly.Load() == 0 {
		t.Fatal("no read-only transaction ever committed")
	}
	st := mgr.Stats()
	if st.ReadOnlyCommits == 0 {
		t.Fatal("read-only commits bypassed the fast path entirely")
	}
	if got := a.Load() + b.Load(); got != total {
		t.Fatalf("final sum = %d, want %d", got, total)
	}
}

// TestSingleWriteFastPathLinearizable hammers one slot with single-write
// increment transactions: the final value must equal the number of commits
// the workers observed, proving the InPrep->Committed fold linearizes
// correctly against helper aborts and competing installs.
func TestSingleWriteFastPathLinearizable(t *testing.T) {
	const (
		workers = 4
		rounds  = 20000
	)
	mgr := NewTxManager()
	o := newWord(0)
	var wg sync.WaitGroup
	var commits atomic.Int64
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := mgr.Register()
			for i := 0; i < rounds; i++ {
				err := tx.RunRetry(func() error {
					v, w := o.NbtcLoad(tx)
					tx.AddToReadSet(w)
					if !o.NbtcCAS(tx, v, v+1, true, true) {
						tx.Abort()
					}
					return nil
				})
				if err == nil {
					commits.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got, want := int64(o.Load()), commits.Load(); got != want {
		t.Fatalf("final value = %d, want %d committed increments", got, want)
	}
	if st := mgr.Stats(); st.FastPathCommits == 0 {
		t.Fatal("no increment took the single-write fast path")
	}
}

// TestReadSetDedup checks that consecutive witnesses of the same word and
// loaded value collapse to one read-set entry, while distinct words and
// changed values do not.
func TestReadSetDedup(t *testing.T) {
	mgr := NewTxManager()
	tx := mgr.Register()
	a, b := newWord(1), newWord(2)
	tx.Begin()
	defer tx.AbortNow()
	_, wa := a.NbtcLoad(tx)
	_, wb := b.NbtcLoad(tx)
	tx.AddToReadSet(wa)
	tx.AddToReadSet(wa) // duplicate of the last entry: dropped
	if len(tx.reads) != 1 {
		t.Fatalf("read set has %d entries after duplicate add, want 1", len(tx.reads))
	}
	tx.AddToReadSet(wb)
	tx.AddToReadSet(wa) // same word, but not consecutive: kept
	if len(tx.reads) != 3 {
		t.Fatalf("read set has %d entries, want 3", len(tx.reads))
	}
	// A changed word — here its counter advanced — is new evidence, not a
	// duplicate: the repeated witness is dropped, the changed one is kept.
	wa2 := wa
	wa2.w += 2
	tx.AddToReadSet(wa)
	tx.AddToReadSet(wa2)
	if len(tx.reads) != 4 {
		t.Fatalf("read set has %d entries after a counter advance, want 4", len(tx.reads))
	}
}

// TestReadOnlyAllocsUnpooledZero pins the allocation cost of a warm
// read-only transaction at zero on a Tx WITHOUT an EBR handle, which
// recycles nothing it publishes: the read-set array is
// reused in place because a fast-path commit never publishes it, and the
// elided publication is the only allocation the general read-only path
// performs.
func TestReadOnlyAllocsUnpooledZero(t *testing.T) {
	mgr := NewTxManager() // and no EBR handle: nothing recycles
	tx := mgr.Register()
	a, b := newWord(1), newWord(2)
	body := func() error {
		v, w := a.NbtcLoad(tx)
		tx.AddToReadSet(w)
		_ = v
		v, w = b.NbtcLoad(tx)
		tx.AddToReadSet(w)
		_ = v
		return nil
	}
	// Warm up: first Begin allocates the read-set array once.
	for i := 0; i < 8; i++ {
		if err := tx.RunRetry(body); err != nil {
			t.Fatalf("warmup: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		_ = tx.RunRetry(body)
	})
	if allocs != 0 {
		t.Fatalf("warm read-only transaction allocates %.2f objects/run without an EBR handle, want 0", allocs)
	}
}
