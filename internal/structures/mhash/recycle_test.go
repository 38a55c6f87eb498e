package mhash

import (
	"math/rand"
	"sync"
	"testing"

	"medley/internal/core"
	"medley/internal/ebr"
)

// TestRecycleStressMap hammers node and cell recycling through the full
// map API on a hot key range: inserts, replaces and removes churn every
// node through unlink → limbo → pool → reuse continuously. The value
// discipline (val == key+tag) turns any stale read or mis-recycled node
// into a detectable corruption, and -race catches reuse before grace.
func TestRecycleStressMap(t *testing.T) {
	const keys = 64
	const goroutines = 8
	const tag = uint64(1) << 32
	iters := 3000
	if testing.Short() {
		iters = 600
	}

	mgr := core.NewTxManager()
	dom := ebr.New(4)
	m := NewMap[uint64](mgr, 1<<6) // few buckets: long chains, hot unlinks

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			tx := mgr.Register()
			h := dom.Register()
			tx.SetSMR(h)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				k := uint64(rng.Intn(keys))
				h.Enter()
				_ = tx.RunRetry(func() error {
					switch rng.Intn(4) {
					case 0:
						m.Put(tx, k, k|tag)
					case 1:
						m.Insert(tx, k, k|tag)
					case 2:
						m.Remove(tx, k)
					default:
						if v, ok := m.Get(tx, k); ok && v != k|tag {
							t.Errorf("key %d read corrupt value %#x", k, v)
						}
					}
					return nil
				})
				h.Exit()
			}
		}(int64(g)*104729 + 3)
	}
	wg.Wait()

	// Quiescent sweep: every surviving entry must carry its own tag.
	m.Range(func(k, v uint64) bool {
		if v != k|tag {
			t.Errorf("key %d holds corrupt value %#x after churn", k, v)
		}
		return true
	})
	st := mgr.Stats()
	if st.PoolRetires == 0 || st.PoolHits == 0 {
		t.Fatalf("recycling never engaged: %+v", st)
	}
}
