package tdsl

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestSequentialBasics(t *testing.T) {
	sl := New()
	err := RunRetry(func(tx *Tx) error {
		if _, ok := tx.Get(sl, 5); ok {
			t.Fatal("empty Get found")
		}
		if _, had := tx.Put(sl, 5, 50); had {
			t.Fatal("fresh Put replaced")
		}
		if v, ok := tx.Get(sl, 5); !ok || v != 50 {
			t.Fatal("own write invisible")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = RunRetry(func(tx *Tx) error {
		if v, ok := tx.Get(sl, 5); !ok || v != 50 {
			t.Fatalf("committed put invisible: %d,%v", v, ok)
		}
		if !tx.Insert(sl, 3, 30) || tx.Insert(sl, 5, 1) {
			t.Fatal("Insert semantics broken")
		}
		if v, ok := tx.Remove(sl, 5); !ok || v != 50 {
			t.Fatal("Remove broken")
		}
		if _, ok := tx.Get(sl, 5); ok {
			t.Fatal("removed key visible in same tx")
		}
		return nil
	})
	if sl.Len() != 1 {
		t.Fatalf("Len = %d, want 1", sl.Len())
	}
}

func TestQuickVsReference(t *testing.T) {
	type op struct {
		Kind uint8
		Key  uint8
		Val  uint16
	}
	f := func(ops []op) bool {
		sl := New()
		ref := map[uint64]uint64{}
		good := true
		for _, o := range ops {
			k := uint64(o.Key % 40)
			_ = RunRetry(func(tx *Tx) error {
				switch o.Kind % 4 {
				case 0:
					tx.Put(sl, k, uint64(o.Val))
				case 1:
					tx.Remove(sl, k)
				case 2:
					ins := tx.Insert(sl, k, uint64(o.Val))
					if _, had := ref[k]; ins == had {
						good = false
					}
				default:
					v, ok := tx.Get(sl, k)
					rv, had := ref[k]
					if ok != had || (ok && v != rv) {
						good = false
					}
				}
				return nil
			})
			switch o.Kind % 4 {
			case 0:
				ref[k] = uint64(o.Val)
			case 1:
				delete(ref, k)
			case 2:
				if _, had := ref[k]; !had {
					ref[k] = uint64(o.Val)
				}
			}
		}
		return good && sl.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossStructureTransaction(t *testing.T) {
	s1 := New()
	s2 := New()
	_ = RunRetry(func(tx *Tx) error { tx.Put(s1, 1, 100); return nil })
	err := RunRetry(func(tx *Tx) error {
		v, ok := tx.Get(s1, 1)
		if !ok || v < 40 {
			return errors.New("insufficient")
		}
		tx.Put(s1, 1, v-40)
		v2, _ := tx.Get(s2, 9)
		tx.Put(s2, 9, v2+40)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = RunRetry(func(tx *Tx) error {
		if v, _ := tx.Get(s1, 1); v != 60 {
			t.Fatalf("s1[1] = %d", v)
		}
		if v, _ := tx.Get(s2, 9); v != 40 {
			t.Fatalf("s2[9] = %d", v)
		}
		return nil
	})
}

func TestReadValidationAbortsStale(t *testing.T) {
	sl := New()
	_ = RunRetry(func(tx *Tx) error { tx.Put(sl, 5, 50); return nil })
	tx := NewTx()
	if _, ok := tx.Get(sl, 5); !ok {
		t.Fatal("Get missing")
	}
	// Interfering committed write.
	_ = RunRetry(func(tx2 *Tx) error { tx2.Put(sl, 5, 51); return nil })
	tx.Put(sl, 7, 70)
	if err := tx.Commit(); !errors.Is(err, ErrAborted) {
		t.Fatalf("stale read committed: %v", err)
	}
	_ = RunRetry(func(tx3 *Tx) error {
		if _, ok := tx3.Get(sl, 7); ok {
			t.Fatal("aborted write leaked")
		}
		return nil
	})
}

func TestAbsenceWitness(t *testing.T) {
	sl := New()
	tx := NewTx()
	if _, ok := tx.Get(sl, 5); ok {
		t.Fatal("phantom")
	}
	_ = RunRetry(func(tx2 *Tx) error { tx2.Put(sl, 5, 1); return nil })
	tx.Put(sl, 99, 1)
	if err := tx.Commit(); !errors.Is(err, ErrAborted) {
		t.Fatalf("phantom insert undetected: %v", err)
	}
}

func TestConcurrentConservation(t *testing.T) {
	sl := New()
	const nAccounts = 16
	const initial = 400
	_ = RunRetry(func(tx *Tx) error {
		for k := uint64(0); k < nAccounts; k++ {
			tx.Put(sl, k, initial)
		}
		return nil
	})
	var wg sync.WaitGroup
	iters := 600
	if testing.Short() {
		iters = 120
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				a := uint64(rng.Intn(nAccounts))
				b := uint64(rng.Intn(nAccounts))
				if a == b {
					continue
				}
				amt := uint64(rng.Intn(7) + 1)
				_ = RunRetry(func(tx *Tx) error {
					va, ok := tx.Get(sl, a)
					if !ok || va < amt {
						return nil // no-op commit
					}
					vb, _ := tx.Get(sl, b)
					tx.Put(sl, a, va-amt)
					tx.Put(sl, b, vb+amt)
					return nil
				})
			}
		}(int64(g) + 13)
	}
	wg.Wait()
	var total uint64
	_ = RunRetry(func(tx *Tx) error {
		total = 0
		for k := uint64(0); k < nAccounts; k++ {
			v, _ := tx.Get(sl, k)
			total += v
		}
		return nil
	})
	if total != nAccounts*initial {
		t.Fatalf("total = %d, want %d", total, nAccounts*initial)
	}
}

// TestReadersNeverSeeHalfACommit: a writer bumps a counter in one
// skiplist and inserts the new count as a key in another, so the two
// always agree in a committed state. Reads are lock-free and may overlap
// a commit's apply; a reader that saw half of one must not commit, and an
// error it derived from that half must be retried, not returned.
func TestReadersNeverSeeHalfACommit(t *testing.T) {
	counter, log := New(), New()
	errHalf := errors.New("half a commit seen")
	iters := 3000
	if testing.Short() {
		iters = 600
	}
	var stop sync.WaitGroup
	done := make(chan struct{})
	stop.Add(1)
	go func() {
		defer stop.Done()
		defer close(done)
		for i := 0; i < iters; i++ {
			_ = RunRetry(func(tx *Tx) error {
				n, _ := tx.Get(counter, 0)
				tx.Put(counter, 0, n+1)
				tx.Insert(log, n+1, 1)
				return nil
			})
		}
	}()
	for r := 0; r < 2; r++ {
		stop.Add(1)
		go func(asError bool) {
			defer stop.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				half := false
				err := RunRetry(func(tx *Tx) error {
					n, _ := tx.Get(counter, 0)
					_, logged := tx.Get(log, n)
					half = n > 0 && !logged
					if half && asError {
						return errHalf
					}
					return nil
				})
				if err != nil || half {
					t.Errorf("reader committed or returned half a commit: err %v, half %v", err, half)
					return
				}
			}
		}(r == 0)
	}
	stop.Wait()
}

func TestConcurrentInsertRemoveChurn(t *testing.T) {
	sl := New()
	var wg sync.WaitGroup
	iters := 1500
	if testing.Short() {
		iters = 250
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				k := uint64(rng.Intn(64))
				if rng.Intn(2) == 0 {
					_ = RunRetry(func(tx *Tx) error { tx.Put(sl, k, k); return nil })
				} else {
					_ = RunRetry(func(tx *Tx) error { tx.Remove(sl, k); return nil })
				}
			}
		}(int64(g) + 1)
	}
	wg.Wait()
	var prev uint64
	first := true
	sl.Range(func(k, v uint64) bool {
		if !first && k <= prev {
			t.Fatalf("order violated")
		}
		if v != k {
			t.Fatalf("value mismatch at %d", k)
		}
		prev, first = k, false
		return true
	})
}

func TestNoDeadlockOnCrossingTransfers(t *testing.T) {
	// Two structures, opposite lock orders at user level; the sorted
	// try-lock commit must not deadlock.
	s1, s2 := New(), New()
	_ = RunRetry(func(tx *Tx) error { tx.Put(s1, 1, 1000); tx.Put(s2, 1, 1000); return nil })
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(flip bool) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_ = RunRetry(func(tx *Tx) error {
					a, b := s1, s2
					if flip {
						a, b = s2, s1
					}
					va, _ := tx.Get(a, 1)
					vb, _ := tx.Get(b, 1)
					tx.Put(a, 1, va+1)
					tx.Put(b, 1, vb-1)
					return nil
				})
			}
		}(g == 1)
	}
	wg.Wait()
	var v1, v2 uint64
	_ = RunRetry(func(tx *Tx) error {
		v1, _ = tx.Get(s1, 1)
		v2, _ = tx.Get(s2, 1)
		return nil
	})
	if v1+v2 != 2000 {
		t.Fatalf("sum = %d, want 2000", v1+v2)
	}
}
