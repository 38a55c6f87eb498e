package mhash

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"medley/internal/core"
)

// The list tests run on a one-bucket map: its one chain is the whole of
// Michael's list.

func TestListSequentialBasics(t *testing.T) {
	mgr := core.NewTxManager()
	l := NewMap[string](mgr, 1)
	if _, ok := l.Get(nil, 5); ok {
		t.Fatal("empty list Get found something")
	}
	if _, replaced := l.Put(nil, 5, "five"); replaced {
		t.Fatal("Put into empty list reported replace")
	}
	if v, ok := l.Get(nil, 5); !ok || v != "five" {
		t.Fatalf("Get(5) = %q,%v", v, ok)
	}
	if old, replaced := l.Put(nil, 5, "FIVE"); !replaced || old != "five" {
		t.Fatalf("replace = %q,%v", old, replaced)
	}
	if v, _ := l.Get(nil, 5); v != "FIVE" {
		t.Fatalf("Get after replace = %q", v)
	}
	if !l.Insert(nil, 3, "three") {
		t.Fatal("Insert(3) failed")
	}
	if l.Insert(nil, 3, "x") {
		t.Fatal("duplicate Insert succeeded")
	}
	if v, ok := l.Remove(nil, 3); !ok || v != "three" {
		t.Fatalf("Remove(3) = %q,%v", v, ok)
	}
	if _, ok := l.Remove(nil, 3); ok {
		t.Fatal("double Remove succeeded")
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
}

func TestListSortedOrder(t *testing.T) {
	mgr := core.NewTxManager()
	l := NewMap[int](mgr, 1)
	for _, k := range []uint64{9, 1, 7, 3, 5} {
		l.Put(nil, k, int(k))
	}
	var keys []uint64
	l.Range(func(k uint64, v int) bool { keys = append(keys, k); return true })
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("keys out of order: %v", keys)
		}
	}
}

func TestMapSequentialVsReference(t *testing.T) {
	mgr := core.NewTxManager()
	m := NewMap[uint64](mgr, 64)
	ref := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(200))
		switch rng.Intn(3) {
		case 0:
			v := rng.Uint64()
			_, repl := m.Put(nil, k, v)
			_, had := ref[k]
			if repl != had {
				t.Fatalf("Put(%d) replaced=%v want %v", k, repl, had)
			}
			ref[k] = v
		case 1:
			v, ok := m.Remove(nil, k)
			rv, had := ref[k]
			if ok != had || (ok && v != rv) {
				t.Fatalf("Remove(%d) = %d,%v want %d,%v", k, v, ok, rv, had)
			}
			delete(ref, k)
		default:
			v, ok := m.Get(nil, k)
			rv, had := ref[k]
			if ok != had || (ok && v != rv) {
				t.Fatalf("Get(%d) = %d,%v want %d,%v", k, v, ok, rv, had)
			}
		}
	}
	if m.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(ref))
	}
}

func TestQuickMapMatchesReference(t *testing.T) {
	type op struct {
		Kind uint8
		Key  uint8
		Val  uint16
	}
	f := func(ops []op) bool {
		mgr := core.NewTxManager()
		m := NewMap[uint16](mgr, 16)
		ref := map[uint64]uint16{}
		for _, o := range ops {
			k := uint64(o.Key % 32)
			switch o.Kind % 4 {
			case 0:
				m.Put(nil, k, o.Val)
				ref[k] = o.Val
			case 1:
				m.Remove(nil, k)
				delete(ref, k)
			case 2:
				if m.Insert(nil, k, o.Val) {
					if _, had := ref[k]; had {
						return false
					}
					ref[k] = o.Val
				} else if _, had := ref[k]; !had {
					return false
				}
			default:
				v, ok := m.Get(nil, k)
				rv, had := ref[k]
				if ok != had || (ok && v != rv) {
					return false
				}
			}
		}
		return m.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestTransactionalTransferAcrossTables(t *testing.T) {
	// The paper's Figure 3: move v from account a1 in ht1 to a2 in ht2.
	mgr := core.NewTxManager()
	ht1 := NewMap[int](mgr, 128)
	ht2 := NewMap[int](mgr, 128)
	tx := mgr.Register()
	ht1.Put(nil, 1, 100)

	transfer := func(v int, a1, a2 uint64) error {
		return tx.Run(func() error {
			v1, ok := ht1.Get(tx, a1)
			if !ok || v1 < v {
				tx.Abort()
			}
			v2, _ := ht2.Get(tx, a2)
			ht1.Put(tx, a1, v1-v)
			ht2.Put(tx, a2, v+v2)
			return nil
		})
	}
	if err := transfer(30, 1, 2); err != nil {
		t.Fatalf("transfer: %v", err)
	}
	if v, _ := ht1.Get(nil, 1); v != 70 {
		t.Fatalf("ht1[1] = %d, want 70", v)
	}
	if v, _ := ht2.Get(nil, 2); v != 30 {
		t.Fatalf("ht2[2] = %d, want 30", v)
	}
	// Insufficient funds must abort without any effect.
	err := transfer(1000, 1, 2)
	if !errors.Is(err, core.ErrTxAborted) {
		t.Fatalf("overdraft transfer = %v, want abort", err)
	}
	if v, _ := ht1.Get(nil, 1); v != 70 {
		t.Fatalf("ht1[1] after abort = %d, want 70", v)
	}
}

func TestTxGetPutSameKeySameTable(t *testing.T) {
	// get(k) then put(k) in one transaction: the read-then-write-same-slot
	// path of MCNS validation.
	mgr := core.NewTxManager()
	m := NewMap[int](mgr, 64)
	tx := mgr.Register()
	m.Put(nil, 7, 1)
	err := tx.Run(func() error {
		v, ok := m.Get(tx, 7)
		if !ok {
			t.Fatal("Get(7) missing")
		}
		m.Put(tx, 7, v+10)
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v, _ := m.Get(nil, 7); v != 11 {
		t.Fatalf("m[7] = %d, want 11", v)
	}
}

func TestTxInsertThenGetOwnInsert(t *testing.T) {
	mgr := core.NewTxManager()
	m := NewMap[int](mgr, 64)
	tx := mgr.Register()
	err := tx.Run(func() error {
		if !m.Insert(tx, 4, 44) {
			t.Fatal("Insert failed")
		}
		v, ok := m.Get(tx, 4)
		if !ok || v != 44 {
			t.Fatalf("tx must see own insert: %d,%v", v, ok)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v, ok := m.Get(nil, 4); !ok || v != 44 {
		t.Fatalf("committed insert invisible: %d,%v", v, ok)
	}
}

func TestSpeculativeInsertInvisibleAndContentionManaged(t *testing.T) {
	// A non-transactional observer that touches a speculative insert never
	// sees the value; eager contention management aborts the InPrep
	// transaction instead.
	mgr := core.NewTxManager()
	m := NewMap[int](mgr, 64)
	tx := mgr.Register()
	err := tx.Run(func() error {
		if !m.Insert(tx, 4, 44) {
			t.Fatal("Insert failed")
		}
		if _, visible := m.Get(nil, 4); visible {
			t.Fatal("speculative insert returned to a non-transactional reader")
		}
		return nil
	})
	if !errors.Is(err, core.ErrTxAborted) {
		t.Fatalf("Run = %v, want ErrTxAborted (observer aborted us)", err)
	}
	if _, ok := m.Get(nil, 4); ok {
		t.Fatal("aborted speculative insert leaked")
	}
}

func TestTxRemoveThenInsertSameKey(t *testing.T) {
	mgr := core.NewTxManager()
	m := NewMap[int](mgr, 64)
	tx := mgr.Register()
	m.Put(nil, 9, 90)
	err := tx.Run(func() error {
		if _, ok := m.Remove(tx, 9); !ok {
			t.Fatal("Remove failed")
		}
		if _, ok := m.Get(tx, 9); ok {
			t.Fatal("tx sees key it removed")
		}
		if !m.Insert(tx, 9, 91) {
			t.Fatal("re-insert after own remove failed")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v, ok := m.Get(nil, 9); !ok || v != 91 {
		t.Fatalf("m[9] = %d,%v want 91,true", v, ok)
	}
}

func TestAbortedTxLeavesNoTrace(t *testing.T) {
	mgr := core.NewTxManager()
	m := NewMap[int](mgr, 64)
	tx := mgr.Register()
	m.Put(nil, 1, 10)
	m.Put(nil, 2, 20)
	_ = tx.Run(func() error {
		m.Put(tx, 1, 11)
		m.Remove(tx, 2)
		m.Insert(tx, 3, 30)
		tx.Abort()
		return nil
	})
	if v, _ := m.Get(nil, 1); v != 10 {
		t.Fatalf("m[1] = %d, want 10", v)
	}
	if v, ok := m.Get(nil, 2); !ok || v != 20 {
		t.Fatalf("m[2] = %d,%v want 20,true", v, ok)
	}
	if _, ok := m.Get(nil, 3); ok {
		t.Fatal("aborted insert leaked")
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	mgr := core.NewTxManager()
	m := NewMap[uint64](mgr, 256)
	const goroutines = 6
	iters := 3000
	if testing.Short() {
		iters = 500
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				k := uint64(rng.Intn(128))
				switch rng.Intn(3) {
				case 0:
					m.Put(nil, k, k*2)
				case 1:
					m.Remove(nil, k)
				default:
					if v, ok := m.Get(nil, k); ok && v != k*2 {
						t.Errorf("Get(%d) = %d, want %d", k, v, k*2)
					}
				}
			}
		}(int64(g) + 1)
	}
	wg.Wait()
}

func TestConcurrentTransactionalConservation(t *testing.T) {
	// Bank accounts in a hash table; concurrent transactional transfers
	// must conserve the total.
	mgr := core.NewTxManager()
	m := NewMap[int](mgr, 256)
	const nAccounts = 24
	const initial = 500
	for k := uint64(0); k < nAccounts; k++ {
		m.Put(nil, k, initial)
	}
	const goroutines = 6
	iters := 1000
	if testing.Short() {
		iters = 200
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			tx := mgr.Register()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				a := uint64(rng.Intn(nAccounts))
				b := uint64(rng.Intn(nAccounts))
				if a == b {
					continue
				}
				amt := rng.Intn(20) + 1
				_ = tx.RunRetry(func() error {
					va, ok := m.Get(tx, a)
					if !ok || va < amt {
						return errInsufficient
					}
					vb, _ := m.Get(tx, b)
					m.Put(tx, a, va-amt)
					m.Put(tx, b, vb+amt)
					return nil
				})
			}
		}(int64(g) * 31)
	}
	wg.Wait()
	total := 0
	for k := uint64(0); k < nAccounts; k++ {
		v, ok := m.Get(nil, k)
		if !ok {
			t.Fatalf("account %d disappeared", k)
		}
		if v < 0 {
			t.Fatalf("account %d negative: %d", k, v)
		}
		total += v
	}
	if total != nAccounts*initial {
		t.Fatalf("total = %d, want %d", total, nAccounts*initial)
	}
}

func TestConcurrentInsertRemoveDisjointTx(t *testing.T) {
	// Each goroutine owns a disjoint key range and repeatedly inserts and
	// removes transactionally; final state must be exactly the inserted
	// residue.
	mgr := core.NewTxManager()
	m := NewMap[int](mgr, 512)
	const goroutines = 4
	const keysPer = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			tx := mgr.Register()
			for k := base; k < base+keysPer; k++ {
				key := k
				_ = tx.RunRetry(func() error {
					m.Insert(tx, key, int(key))
					return nil
				})
				if key%2 == 0 {
					_ = tx.RunRetry(func() error {
						m.Remove(tx, key)
						return nil
					})
				}
			}
		}(uint64(g) * 1000)
	}
	wg.Wait()
	want := goroutines * keysPer / 2
	if m.Len() != want {
		t.Fatalf("Len = %d, want %d", m.Len(), want)
	}
	m.Range(func(k uint64, v int) bool {
		if k%2 == 0 {
			t.Errorf("even key %d survived", k)
		}
		return true
	})
}
