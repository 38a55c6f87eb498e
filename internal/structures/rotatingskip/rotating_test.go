package rotatingskip

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"medley/internal/core"
	"medley/internal/ebr"
)

func TestSequentialBasics(t *testing.T) {
	mgr := core.NewTxManager()
	l := New[string](mgr)
	if _, ok := l.Get(nil, 5); ok {
		t.Fatal("empty Get found")
	}
	if _, repl := l.Put(nil, 5, "five"); repl {
		t.Fatal("fresh Put replaced")
	}
	if old, repl := l.Put(nil, 5, "FIVE"); !repl || old != "five" {
		t.Fatalf("replace = %q,%v", old, repl)
	}
	if !l.Insert(nil, 3, "three") || l.Insert(nil, 3, "x") {
		t.Fatal("Insert semantics broken")
	}
	if v, ok := l.Remove(nil, 3); !ok || v != "three" {
		t.Fatalf("Remove = %q,%v", v, ok)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestIndexAcceleratedLookups(t *testing.T) {
	mgr := core.NewTxManager()
	l := New[int](mgr)
	for k := uint64(0); k < 4096; k++ {
		l.Put(nil, k, int(k))
	}
	l.Maintain()
	if len(*l.index.Load()) == 0 {
		t.Fatal("index empty after Maintain on large list")
	}
	for k := uint64(0); k < 4096; k += 97 {
		if v, ok := l.Get(nil, k); !ok || v != int(k) {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
	if _, ok := l.Get(nil, 5000); ok {
		t.Fatal("phantom key via index")
	}
}

func TestIndexStaysCorrectAfterRemovals(t *testing.T) {
	mgr := core.NewTxManager()
	l := New[int](mgr)
	for k := uint64(0); k < 2000; k++ {
		l.Put(nil, k, int(k))
	}
	l.Maintain()
	// Remove a band including sampled hints, without rebuilding.
	for k := uint64(500); k < 1500; k++ {
		l.Remove(nil, k)
	}
	for k := uint64(0); k < 2000; k++ {
		v, ok := l.Get(nil, k)
		wantOK := k < 500 || k >= 1500
		if ok != wantOK || (ok && v != int(k)) {
			t.Fatalf("Get(%d) = %d,%v want present=%v", k, v, ok, wantOK)
		}
	}
}

// newGuard brackets a maintenance rebuild in a critical section of a
// handle of its own, as store.System.Start does.
func newGuard() func(func()) {
	h := ebr.New(1).Register()
	return func(f func()) {
		h.Enter()
		f()
		h.Exit()
	}
}

func TestBackgroundMaintenance(t *testing.T) {
	mgr := core.NewTxManager()
	l := New[int](mgr)
	stop := l.StartGuardedMaintenance(time.Millisecond, newGuard())
	defer stop()
	for k := uint64(0); k < 3000; k++ {
		l.Put(nil, k, int(k))
	}
	time.Sleep(10 * time.Millisecond)
	if len(*l.index.Load()) == 0 {
		t.Fatal("background maintenance never built an index")
	}
	for k := uint64(0); k < 3000; k += 131 {
		if _, ok := l.Get(nil, k); !ok {
			t.Fatalf("Get(%d) missing with background maintenance", k)
		}
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
		l := New[uint16](mgr)
		ref := map[uint64]uint16{}
		for _, o := range ops {
			k := uint64(o.Key % 40)
			switch o.Kind % 4 {
			case 0:
				l.Put(nil, k, o.Val)
				ref[k] = o.Val
			case 1:
				l.Remove(nil, k)
				delete(ref, k)
			case 2:
				ins := l.Insert(nil, k, o.Val)
				if _, had := ref[k]; ins == had {
					return false
				} else if ins {
					ref[k] = o.Val
				}
			default:
				v, ok := l.Get(nil, k)
				rv, had := ref[k]
				if ok != had || (ok && v != rv) {
					return false
				}
			}
		}
		return l.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestTransactionalComposition(t *testing.T) {
	mgr := core.NewTxManager()
	l1 := New[int](mgr)
	l2 := New[int](mgr)
	tx := mgr.Register()
	l1.Put(nil, 1, 100)
	err := tx.Run(func() error {
		v, ok := l1.Get(tx, 1)
		if !ok || v < 25 {
			tx.Abort()
		}
		v2, _ := l2.Get(tx, 2)
		l1.Put(tx, 1, v-25)
		l2.Put(tx, 2, v2+25)
		return nil
	})
	if err != nil {
		t.Fatalf("transfer: %v", err)
	}
	if v, _ := l1.Get(nil, 1); v != 75 {
		t.Fatalf("l1[1] = %d", v)
	}
	if v, _ := l2.Get(nil, 2); v != 25 {
		t.Fatalf("l2[2] = %d", v)
	}
	// Abort path.
	_ = tx.Run(func() error {
		l1.Put(tx, 1, 0)
		l2.Remove(tx, 2)
		tx.Abort()
		return nil
	})
	if v, _ := l1.Get(nil, 1); v != 75 {
		t.Fatalf("abort leaked: l1[1] = %d", v)
	}
	if v, _ := l2.Get(nil, 2); v != 25 {
		t.Fatalf("abort leaked: l2[2] = %d", v)
	}
}

func TestStaleReadAborts(t *testing.T) {
	mgr := core.NewTxManager()
	l := New[int](mgr)
	tx := mgr.Register()
	l.Put(nil, 5, 50)
	err := tx.Run(func() error {
		if _, ok := l.Get(tx, 5); !ok {
			t.Fatal("Get missing")
		}
		l.Put(nil, 5, 51)
		return nil
	})
	if !errors.Is(err, core.ErrTxAborted) {
		t.Fatalf("stale read committed: %v", err)
	}
}

func TestConcurrentMixedWithMaintenance(t *testing.T) {
	mgr := core.NewTxManager()
	l := New[uint64](mgr)
	stop := l.StartGuardedMaintenance(500*time.Microsecond, newGuard())
	defer stop()
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
				k := uint64(rng.Intn(300))
				switch rng.Intn(3) {
				case 0:
					l.Put(nil, k, k*5)
				case 1:
					l.Remove(nil, k)
				default:
					if v, ok := l.Get(nil, k); ok && v != k*5 {
						t.Errorf("Get(%d) = %d", k, v)
					}
				}
			}
		}(int64(g) + 41)
	}
	wg.Wait()
	var prev uint64
	first := true
	l.Range(func(k uint64, v uint64) bool {
		if !first && k <= prev {
			t.Fatalf("order violated after churn")
		}
		prev, first = k, false
		return true
	})
}

func TestConcurrentTransactionalConservation(t *testing.T) {
	mgr := core.NewTxManager()
	l := New[int](mgr)
	stop := l.StartGuardedMaintenance(time.Millisecond, newGuard())
	defer stop()
	const nAccounts = 16
	const initial = 250
	for k := uint64(0); k < nAccounts; k++ {
		l.Put(nil, k, initial)
	}
	const goroutines = 4
	iters := 500
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
				amt := rng.Intn(5) + 1
				_ = tx.RunRetry(func() error {
					va, ok := l.Get(tx, a)
					if !ok || va < amt {
						return errInsufficient
					}
					vb, _ := l.Get(tx, b)
					l.Put(tx, a, va-amt)
					l.Put(tx, b, vb+amt)
					return nil
				})
			}
		}(int64(g)*29 + 11)
	}
	wg.Wait()
	total := 0
	for k := uint64(0); k < nAccounts; k++ {
		v, ok := l.Get(nil, k)
		if !ok || v < 0 {
			t.Fatalf("account %d = %d,%v", k, v, ok)
		}
		total += v
	}
	if total != nAccounts*initial {
		t.Fatalf("total = %d, want %d", total, nAccounts*initial)
	}
}
