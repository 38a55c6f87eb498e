package fraserskip

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"medley/internal/core"
)

func TestSequentialBasics(t *testing.T) {
	mgr := core.NewTxManager()
	s := New[string](mgr)
	if _, ok := s.Get(nil, 5); ok {
		t.Fatal("empty Get found")
	}
	if _, repl := s.Put(nil, 5, "five"); repl {
		t.Fatal("Put on empty replaced")
	}
	if v, ok := s.Get(nil, 5); !ok || v != "five" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	if old, repl := s.Put(nil, 5, "FIVE"); !repl || old != "five" {
		t.Fatalf("replace = %q,%v", old, repl)
	}
	if v, _ := s.Get(nil, 5); v != "FIVE" {
		t.Fatalf("Get after replace = %q", v)
	}
	if !s.Insert(nil, 3, "three") || s.Insert(nil, 3, "x") {
		t.Fatal("Insert semantics broken")
	}
	if v, ok := s.Remove(nil, 3); !ok || v != "three" {
		t.Fatalf("Remove = %q,%v", v, ok)
	}
	if _, ok := s.Remove(nil, 3); ok {
		t.Fatal("double Remove succeeded")
	}
}

func TestAscendingOrderManyKeys(t *testing.T) {
	mgr := core.NewTxManager()
	s := New[int](mgr)
	rng := rand.New(rand.NewSource(7))
	seen := map[uint64]bool{}
	for i := 0; i < 2000; i++ {
		k := uint64(rng.Intn(5000))
		s.Put(nil, k, int(k))
		seen[k] = true
	}
	var prev uint64
	first := true
	count := 0
	s.Range(func(k uint64, v int) bool {
		if !first && k <= prev {
			t.Fatalf("order violated: %d after %d", k, prev)
		}
		if v != int(k) {
			t.Fatalf("value mismatch at %d", k)
		}
		prev, first = k, false
		count++
		return true
	})
	if count != len(seen) {
		t.Fatalf("Range saw %d, want %d", count, len(seen))
	}
}

func TestQuickVsReference(t *testing.T) {
	type op struct {
		Kind uint8
		Key  uint8
		Val  uint16
	}
	f := func(ops []op) bool {
		mgr := core.NewTxManager()
		s := New[uint16](mgr)
		ref := map[uint64]uint16{}
		for _, o := range ops {
			k := uint64(o.Key % 48)
			switch o.Kind % 4 {
			case 0:
				s.Put(nil, k, o.Val)
				ref[k] = o.Val
			case 1:
				s.Remove(nil, k)
				delete(ref, k)
			case 2:
				ins := s.Insert(nil, k, o.Val)
				_, had := ref[k]
				if ins == had {
					return false
				}
				if ins {
					ref[k] = o.Val
				}
			default:
				v, ok := s.Get(nil, k)
				rv, had := ref[k]
				if ok != had || (ok && v != rv) {
					return false
				}
			}
		}
		return s.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestTransactionalComposition(t *testing.T) {
	mgr := core.NewTxManager()
	s1 := New[int](mgr)
	s2 := New[int](mgr)
	tx := mgr.Register()
	s1.Put(nil, 1, 100)

	err := tx.Run(func() error {
		v, ok := s1.Get(tx, 1)
		if !ok || v < 30 {
			tx.Abort()
		}
		v2, _ := s2.Get(tx, 2)
		s1.Put(tx, 1, v-30)
		s2.Put(tx, 2, v2+30)
		return nil
	})
	if err != nil {
		t.Fatalf("transfer: %v", err)
	}
	if v, _ := s1.Get(nil, 1); v != 70 {
		t.Fatalf("s1[1] = %d", v)
	}
	if v, _ := s2.Get(nil, 2); v != 30 {
		t.Fatalf("s2[2] = %d", v)
	}
}

func TestTxSelfVisibilityAndRollback(t *testing.T) {
	mgr := core.NewTxManager()
	s := New[int](mgr)
	tx := mgr.Register()
	s.Put(nil, 10, 1)
	_ = tx.Run(func() error {
		if !s.Insert(tx, 20, 2) {
			t.Fatal("Insert failed")
		}
		if v, ok := s.Get(tx, 20); !ok || v != 2 {
			t.Fatal("own insert invisible")
		}
		if _, ok := s.Remove(tx, 10); !ok {
			t.Fatal("Remove failed")
		}
		if _, ok := s.Get(tx, 10); ok {
			t.Fatal("own remove invisible")
		}
		tx.Abort()
		return nil
	})
	if _, ok := s.Get(nil, 20); ok {
		t.Fatal("aborted insert leaked")
	}
	if v, ok := s.Get(nil, 10); !ok || v != 1 {
		t.Fatalf("aborted remove leaked: %d,%v", v, ok)
	}
}

func TestStaleReadAborts(t *testing.T) {
	mgr := core.NewTxManager()
	s := New[int](mgr)
	tx := mgr.Register()
	s.Put(nil, 5, 50)
	err := tx.Run(func() error {
		if _, ok := s.Get(tx, 5); !ok {
			t.Fatal("Get missing")
		}
		s.Put(nil, 5, 51) // committed interference
		return nil
	})
	if !errors.Is(err, core.ErrTxAborted) {
		t.Fatalf("stale read committed: %v", err)
	}
}

func TestAbsenceWitnessAborts(t *testing.T) {
	mgr := core.NewTxManager()
	s := New[int](mgr)
	tx := mgr.Register()
	err := tx.Run(func() error {
		if _, ok := s.Get(tx, 5); ok {
			t.Fatal("phantom key")
		}
		s.Put(nil, 5, 1) // insert into the observed gap
		return nil
	})
	if !errors.Is(err, core.ErrTxAborted) {
		t.Fatalf("phantom insert not detected: %v", err)
	}
}

func TestConcurrentMixed(t *testing.T) {
	mgr := core.NewTxManager()
	s := New[uint64](mgr)
	const goroutines = 6
	iters := 2000
	if testing.Short() {
		iters = 300
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				k := uint64(rng.Intn(256))
				switch rng.Intn(3) {
				case 0:
					s.Put(nil, k, k*3)
				case 1:
					s.Remove(nil, k)
				default:
					if v, ok := s.Get(nil, k); ok && v != k*3 {
						t.Errorf("Get(%d) = %d", k, v)
					}
				}
			}
		}(int64(g) + 11)
	}
	wg.Wait()
	// Structural sanity after churn.
	var prev uint64
	first := true
	s.Range(func(k uint64, v uint64) bool {
		if !first && k <= prev {
			t.Fatalf("order violated after churn: %d after %d", k, prev)
		}
		prev, first = k, false
		return true
	})
}

func TestConcurrentTransactionalConservation(t *testing.T) {
	mgr := core.NewTxManager()
	s := New[int](mgr)
	const nAccounts = 16
	const initial = 300
	for k := uint64(0); k < nAccounts; k++ {
		s.Put(nil, k, initial)
	}
	const goroutines = 5
	iters := 600
	if testing.Short() {
		iters = 100
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
				amt := rng.Intn(9) + 1
				_ = tx.RunRetry(func() error {
					va, ok := s.Get(tx, a)
					if !ok || va < amt {
						return errInsufficient
					}
					vb, _ := s.Get(tx, b)
					s.Put(tx, a, va-amt)
					s.Put(tx, b, vb+amt)
					return nil
				})
			}
		}(int64(g)*17 + 3)
	}
	wg.Wait()
	total := 0
	for k := uint64(0); k < nAccounts; k++ {
		v, ok := s.Get(nil, k)
		if !ok || v < 0 {
			t.Fatalf("account %d = %d,%v", k, v, ok)
		}
		total += v
	}
	if total != nAccounts*initial {
		t.Fatalf("total = %d, want %d", total, nAccounts*initial)
	}
}

func TestTowerIntegrityAfterChurn(t *testing.T) {
	// Index levels must remain consistent sublists of level 0.
	mgr := core.NewTxManager()
	s := New[int](mgr)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		k := uint64(rng.Intn(400))
		if rng.Intn(2) == 0 {
			s.Put(nil, k, 1)
		} else {
			s.Remove(nil, k)
		}
	}
	level0 := map[uint32]bool{}
	for c := target(s.linkAt(s.head, 0)); c != 0; c = target(s.linkAt(c, 0)) {
		if !isDeleted(s.linkAt(c, 0)) {
			level0[c] = true
		}
	}
	for l := 1; l < MaxLevel; l++ {
		var prevKey uint64
		first := true
		for c := target(s.linkAt(s.head, l)); c != 0; c = target(s.linkAt(c, l)) {
			if !level0[c] {
				t.Fatalf("level %d references node %d not live at level 0", l, s.slab.At(c).key)
			}
			if k := s.slab.At(c).key; !first && k <= prevKey {
				t.Fatalf("level %d key order violated", l)
			} else {
				prevKey, first = k, false
			}
		}
	}
}
