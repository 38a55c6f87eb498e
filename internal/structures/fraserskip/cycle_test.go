package fraserskip

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"medley/internal/core"
)

// checkNoCycles walks every index level with a step bound; exceeding the
// bound implies a cycle (the list can never legitimately exceed the node
// count).
func checkNoCycles[V any](t *testing.T, s *List[V], maxNodes int) {
	t.Helper()
	for l := 0; l < MaxLevel; l++ {
		steps := 0
		seen := map[uint32]int{}
		for c := target(s.linkAt(s.head, l)); c != 0; c = target(s.linkAt(c, l)) {
			if prev, dup := seen[c]; dup {
				t.Fatalf("cycle at level %d: node key=%d revisited (first at step %d, now %d)",
					l, s.slab.At(c).key, prev, steps)
			}
			seen[c] = steps
			steps++
			if steps > maxNodes*4 {
				t.Fatalf("level %d walk exceeded %d steps without nil", l, maxNodes*4)
			}
		}
	}
}

// linkAt is node i's link at level l: its level-0 Word's payload, or an
// index link.
func (s *List[V]) linkAt(i uint32, l int) uint32 {
	n := s.slab.At(i)
	if l == 0 {
		return n.next.Load()
	}
	return s.links(n)[l-1].Load()
}

// TestReplaceChurnNoIndexCycle hammers Put (replace) and Remove on a tiny
// key space from several goroutines — the racing tower-build scenario that
// can weave same-key nodes into an index-level cycle — then verifies every
// level is acyclic. Regression test for the search() livelock.
func TestReplaceChurnNoIndexCycle(t *testing.T) {
	mgr := core.NewTxManager()
	s := New[uint64](mgr)
	const keys = 32
	var wg sync.WaitGroup
	var stop atomic.Bool
	var totalOps atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			tx := mgr.Register()
			for !stop.Load() {
				// Mirror the paper's microbenchmark: transactions of 1-10
				// uniformly random put/remove operations.
				n := 1 + rng.Intn(10)
				_ = tx.RunRetry(func() error {
					for i := 0; i < n; i++ {
						k := uint64(rng.Intn(keys))
						if rng.Intn(2) == 0 {
							s.Put(tx, k, k)
						} else {
							s.Remove(tx, k)
						}
					}
					return nil
				})
				totalOps.Add(1)
			}
		}(int64(g) + 3)
	}
	deadline := time.After(1500 * time.Millisecond)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	last := int64(0)
	for {
		select {
		case <-deadline:
			stop.Store(true)
			wg.Wait()
			checkNoCycles(t, s, keys*4)
			return
		case <-tick.C:
			cur := totalOps.Load()
			if cur == last && cur > 0 {
				stop.Store(true)
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Logf("stall stacks:\n%s", buf[:n])
				// Don't wg.Wait(): workers may be wedged in a cycle.
				checkNoCycles(t, s, keys*4)
				t.Fatal("workers stalled but no cycle found — investigate")
			}
			last = cur
		}
	}
}
