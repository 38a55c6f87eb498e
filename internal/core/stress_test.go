package core

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// TestTransferConservation is the canonical multi-word atomicity stress:
// concurrent transactions move value between slots; the sum is invariant.
func TestTransferConservation(t *testing.T) {
	const nAccounts = 32
	const perAccount = 1000
	const goroutines = 8
	iters := 3000
	if testing.Short() {
		iters = 500
	}

	mgr := NewTxManager()
	accounts := make([]*CASObj[int], nAccounts)
	for i := range accounts {
		accounts[i] = NewCASObj[int](perAccount)
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			tx := mgr.Register()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				from := rng.Intn(nAccounts)
				to := rng.Intn(nAccounts)
				if from == to {
					continue
				}
				amt := rng.Intn(10) + 1
				_ = tx.RunRetry(func() error {
					tx.OpStart()
					vf, wf := accounts[from].NbtcLoad(tx)
					tx.AddToReadSet(wf)
					if vf < amt {
						return errInsufficient
					}
					tx.OpStart()
					vt, wt := accounts[to].NbtcLoad(tx)
					tx.AddToReadSet(wt)
					tx.OpStart()
					if !accounts[from].NbtcCAS(tx, vf, vf-amt, true, true) {
						tx.Abort()
					}
					tx.OpStart()
					if !accounts[to].NbtcCAS(tx, vt, vt+amt, true, true) {
						tx.Abort()
					}
					return nil
				})
			}
		}(int64(g) + 1)
	}
	wg.Wait()

	total := 0
	for _, a := range accounts {
		v := a.Load()
		if v < 0 {
			t.Fatalf("negative balance %d", v)
		}
		total += v
	}
	if total != nAccounts*perAccount {
		t.Fatalf("conservation violated: total = %d, want %d", total, nAccounts*perAccount)
	}
}

// TestSnapshotConsistency checks strict serializability from the reader
// side: two slots are always updated together (x, -x); transactional
// readers must never observe a mixed state.
func TestSnapshotConsistency(t *testing.T) {
	mgr := NewTxManager()
	a := NewCASObj[int](0)
	b := NewCASObj[int](0)
	var stop atomic.Bool
	var bad atomic.Int64
	var wg sync.WaitGroup

	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			tx := mgr.Register()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				d := rng.Intn(100) - 50
				_ = tx.RunRetry(func() error {
					tx.OpStart()
					va, _ := a.NbtcLoad(tx)
					tx.OpStart()
					vb, _ := b.NbtcLoad(tx)
					tx.OpStart()
					if !a.NbtcCAS(tx, va, va+d, true, true) {
						tx.Abort()
					}
					tx.OpStart()
					if !b.NbtcCAS(tx, vb, vb-d, true, true) {
						tx.Abort()
					}
					return nil
				})
			}
		}(int64(w) + 99)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := mgr.Register()
			for !stop.Load() {
				var va, vb int
				err := tx.Run(func() error {
					tx.OpStart()
					v1, w1 := a.NbtcLoad(tx)
					tx.AddToReadSet(w1)
					tx.OpStart()
					v2, w2 := b.NbtcLoad(tx)
					tx.AddToReadSet(w2)
					va, vb = v1, v2
					return nil
				})
				if err == nil && va+vb != 0 {
					bad.Add(1)
				}
			}
		}()
	}

	iters := 20000
	if testing.Short() {
		iters = 2000
	}
	tx := mgr.Register()
	for i := 0; i < iters; i++ {
		_ = tx.RunRetry(func() error {
			tx.OpStart()
			va, _ := a.NbtcLoad(tx)
			tx.OpStart()
			if !a.NbtcCAS(tx, va, va+1, true, true) {
				tx.Abort()
			}
			tx.OpStart()
			vb, _ := b.NbtcLoad(tx)
			tx.OpStart()
			if !b.NbtcCAS(tx, vb, vb-1, true, true) {
				tx.Abort()
			}
			return nil
		})
	}
	stop.Store(true)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d committed reader transactions observed torn state", n)
	}
	if a.Load()+b.Load() != 0 {
		t.Fatalf("final state torn: a=%d b=%d", a.Load(), b.Load())
	}
}

// TestObstructionFreedomSolo verifies the liveness argument of Theorem 4 in
// its testable form: a transaction running with no concurrent activity must
// commit on the first retry even if it initially encounters a stale
// descriptor left by a paused (abandoned) transaction.
func TestObstructionFreedomSolo(t *testing.T) {
	mgr := NewTxManager()
	tStale := mgr.Register()
	o := NewCASObj[int](0)
	tStale.Begin()
	if !o.NbtcCAS(tStale, 0, 77, true, true) {
		t.Fatal("stale install failed")
	}
	// tStale is now "paused forever". A solo thread must make progress.
	tx := mgr.Register()
	err := tx.Run(func() error {
		if !o.NbtcCAS(tx, 0, 1, true, true) {
			return errors.New("CAS failed")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("solo transaction did not commit over abandoned descriptor: %v", err)
	}
	if o.Load() != 1 {
		t.Fatalf("Load = %d, want 1", o.Load())
	}
}

// TestQuickSequentialTx property: any sequence of single-threaded committed
// transactions over a pair of slots is equivalent to executing the same
// updates directly.
func TestQuickSequentialTx(t *testing.T) {
	f := func(ops []int8) bool {
		mgr := NewTxManager()
		tx := mgr.Register()
		a := NewCASObj[int](0)
		b := NewCASObj[int](0)
		refA, refB := 0, 0
		for _, op := range ops {
			d := int(op)
			err := tx.Run(func() error {
				va, _ := a.NbtcLoad(tx)
				tx.OpStart()
				if !a.NbtcCAS(tx, va, va+d, true, true) {
					tx.Abort()
				}
				tx.OpStart()
				vb, _ := b.NbtcLoad(tx)
				tx.OpStart()
				if !b.NbtcCAS(tx, vb, vb^d, true, true) {
					tx.Abort()
				}
				return nil
			})
			if err == nil {
				refA += d
				refB ^= d
			}
		}
		return a.Load() == refA && b.Load() == refB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAbortIsNoop property: a transaction that always aborts never
// changes observable state, for arbitrary op interleavings within the tx.
func TestQuickAbortIsNoop(t *testing.T) {
	f := func(writes []uint8) bool {
		mgr := NewTxManager()
		tx := mgr.Register()
		slots := make([]*CASObj[int], 4)
		for i := range slots {
			slots[i] = NewCASObj[int](i * 100)
		}
		_ = tx.Run(func() error {
			for _, w := range writes {
				s := slots[int(w)%len(slots)]
				tx.OpStart()
				v, _ := s.NbtcLoad(tx)
				_ = s.NbtcCAS(tx, v, v+1, true, true)
			}
			tx.Abort()
			return nil
		})
		for i, s := range slots {
			if s.Load() != i*100 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestManyThreadsManySlots is a broad randomized stress mixing
// transactional and plain accesses across goroutines under -race.
func TestManyThreadsManySlots(t *testing.T) {
	const nSlots = 16
	const goroutines = 6
	iters := 2000
	if testing.Short() {
		iters = 300
	}
	mgr := NewTxManager()
	slots := make([]*CASObj[uint64], nSlots)
	for i := range slots {
		slots[i] = NewCASObj[uint64](0)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			tx := mgr.Register()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				switch rng.Intn(3) {
				case 0: // plain CAS increment
					s := slots[rng.Intn(nSlots)]
					for {
						v := s.Load()
						if s.CAS(v, v+1) {
							break
						}
					}
				case 1: // read-only tx
					i1, i2 := rng.Intn(nSlots), rng.Intn(nSlots)
					_ = tx.Run(func() error {
						tx.OpStart()
						_, w1 := slots[i1].NbtcLoad(tx)
						tx.AddToReadSet(w1)
						tx.OpStart()
						_, w2 := slots[i2].NbtcLoad(tx)
						tx.AddToReadSet(w2)
						return nil
					})
				default: // update tx on 2-3 slots
					n := 2 + rng.Intn(2)
					idx := rng.Perm(nSlots)[:n]
					_ = tx.Run(func() error {
						for _, j := range idx {
							tx.OpStart()
							v, _ := slots[j].NbtcLoad(tx)
							if !slots[j].NbtcCAS(tx, v, v+1, true, true) {
								tx.Abort()
							}
						}
						return nil
					})
				}
			}
		}(int64(g) * 7)
	}
	wg.Wait()
	st := mgr.Stats()
	if st.Begins != st.Commits+st.Aborts {
		t.Fatalf("accounting broken: begins=%d commits=%d aborts=%d",
			st.Begins, st.Commits, st.Aborts)
	}
}

// TestWideTransactionSerializable is the large-write-set storm: every
// writer transaction is a run of 8 transfers between 16 distinct accounts,
// so each commit installs 16 descriptor cells through the general protocol
// where helpers can reach and eagerly abort it, while read-only sweeps of
// every account must see the conserved total. The other stresses in this
// file commit at most three cells per transaction. Workers park on a start
// gate so the storm begins with all of them live.
func TestWideTransactionSerializable(t *testing.T) {
	const (
		nAccounts  = 32
		perAccount = 1000
		writers    = 4
		readers    = 2
		transfers  = 8
	)
	rounds := 2000
	if testing.Short() {
		rounds = 300
	}
	mgr := NewTxManager()
	accounts := make([]*CASObj[int], nAccounts)
	for i := range accounts {
		accounts[i] = NewCASObj[int](perAccount)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	var torn atomic.Int64
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			tx := mgr.Register()
			rng := rand.New(rand.NewSource(seed))
			<-start
			for i := 0; i < rounds; i++ {
				idx := rng.Perm(nAccounts)[:2*transfers]
				err := tx.RunRetry(func() error {
					for j := 0; j < len(idx); j += 2 {
						from, to := accounts[idx[j]], accounts[idx[j+1]]
						tx.OpStart()
						vf, wf := from.NbtcLoad(tx)
						tx.AddToReadSet(wf)
						tx.OpStart()
						vt, wt := to.NbtcLoad(tx)
						tx.AddToReadSet(wt)
						tx.OpStart()
						if !from.NbtcCAS(tx, vf, vf-1, true, true) {
							tx.Abort()
						}
						tx.OpStart()
						if !to.NbtcCAS(tx, vt, vt+1, true, true) {
							tx.Abort()
						}
					}
					return nil
				})
				if err != nil {
					t.Errorf("wide transfer: %v", err)
					return
				}
			}
		}(int64(g) + 1)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := mgr.Register()
			<-start
			for i := 0; i < rounds; i++ {
				sum := 0
				err := tx.Run(func() error {
					sum = 0
					for _, a := range accounts {
						tx.OpStart()
						v, w := a.NbtcLoad(tx)
						tx.AddToReadSet(w)
						sum += v
					}
					return nil
				})
				if err == nil && sum != nAccounts*perAccount {
					torn.Add(1)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d committed sweeps observed a torn wide transfer", n)
	}
	total := 0
	for _, a := range accounts {
		total += a.Load()
	}
	if total != nAccounts*perAccount {
		t.Fatalf("final total = %d, want %d", total, nAccounts*perAccount)
	}
	st := mgr.Stats()
	if st.Commits < uint64(writers*rounds) {
		t.Fatalf("Commits = %d, want >= %d wide transfers", st.Commits, writers*rounds)
	}
	t.Logf("commits=%d aborts=%d by-others=%d helps=%d", st.Commits, st.Aborts, st.AbortsByOthers, st.HelpEvents)
}
