package fraserskip

import (
	"errors"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"medley/internal/core"
	"medley/internal/ebr"
)

// smrTx registers a Tx with an EBR handle of its own, so the nodes it
// unlinks come back after a grace period, and returns a runner that
// brackets a transaction in the handle's critical section.
func smrTx(t testing.TB, mgr *core.TxManager) (*core.Tx, *ebr.Handle, func(body func()) error) {
	t.Helper()
	tx := mgr.Register()
	h := ebr.New(1).Register()
	tx.SetSMR(h)
	return tx, h, func(body func()) error {
		h.Enter()
		defer h.Exit()
		return tx.Run(func() error { body(); return nil })
	}
}

// TestBytesPerKey pins the skiplist's footprint where it is decided — a
// 32-byte slab node a key and, for the half of the keys that stand taller
// than one level, a tower slot — on a Tx with an EBR handle, as
// medleyd builds one. The ceiling is what the list cost when nodes were
// heap objects whose links pointed to cells (128.4 bytes/key): the slab
// layout must never cost more.
func TestBytesPerKey(t *testing.T) {
	const keys = 1 << 16
	const ceiling = 130 // bytes of live heap per key

	if s := unsafe.Sizeof(node[uint64]{}); s != 32 {
		t.Errorf("node[uint64] is %d bytes, want 32", s)
	}
	scattered := func(i uint64) uint64 { // splitmix64 of the index
		z := (i + 1) * 0x9E3779B97F4A7C15
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return z ^ z>>31
	}
	heap := func() int64 { // twice: a sync.Pool empties over two collections
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	mgr := core.NewTxManager()
	tx, _, run := smrTx(t, mgr)
	before := heap()
	s := New[uint64](mgr)
	const perTx = 16
	for base := uint64(0); base < keys; base += perTx {
		err := run(func() {
			for i := base; i < base+perTx; i++ {
				s.Put(tx, scattered(i), i)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	perKey := float64(heap()-before) / keys
	t.Logf("%.1f bytes of live heap per key", perKey)
	if perKey > ceiling {
		t.Errorf("%d keys hold %.1f bytes/key, ceiling %d", keys, perKey, ceiling)
	}
	if n := s.Len(); n != keys {
		t.Fatalf("list holds %d keys, want %d", n, keys)
	}
}

// TestWarmChurnAllocatesNothing runs a warm churn of inserts and removes
// on a Tx with an EBR handle: the node slots come back through the slab,
// and the post-commit work — a tower build after each insert and a kill after each remove — is a cleanup record, not a
// closure, so a pair allocates nothing (2 when each deferred a closure).
func TestWarmChurnAllocatesNothing(t *testing.T) {
	mgr := core.NewTxManager()
	l := New[uint64](mgr)
	tx, h, run := smrTx(t, mgr)
	churn := func(k uint64) { // run's closures would allocate: call RunRetry directly
		h.Enter()
		defer h.Exit()
		if err := tx.RunRetry(func() error { l.Insert(tx, k, k); return nil }); err != nil {
			t.Fatal(err)
		}
		if err := tx.RunRetry(func() error { l.Remove(tx, k); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 4000; k++ {
		if k%2 == 0 {
			if err := run(func() { l.Insert(tx, k, k) }); err != nil {
				t.Fatal(err)
			}
		}
		churn(k % 64)
	}
	k := uint64(0)
	allocs := testing.AllocsPerRun(2000, func() {
		k++
		churn(k % 64)
	})
	if allocs != 0 {
		t.Errorf("an insert/remove churn allocates %.3f objects, want 0", allocs)
	}
}

// TestRecycledSlotNeverValidatesStaleWitness has a reader witness key 5's
// level-0 link, then a writer remove key 5, wait out the grace period and
// reuse the very slot for key 6, whose link holds the same payload (the
// nil link) as the one witnessed. The reader keeps no critical section —
// its witness outlives the grace period, as one in a stale published read
// set does — so only the counter the slot's Init advanced tells the two
// lives apart: the reader's commit must fail.
func TestRecycledSlotNeverValidatesStaleWitness(t *testing.T) {
	mgr := core.NewTxManager()
	s := New[uint64](mgr)
	writer, h, write := smrTx(t, mgr)
	if err := write(func() { s.Insert(writer, 5, 50) }); err != nil {
		t.Fatal(err)
	}
	slot := s.search(nil, 5).curr

	reader := mgr.Register()
	reader.Begin()
	if v, ok := s.Get(reader, 5); !ok || v != 50 {
		t.Fatalf("reader Get(5) = %d, %v", v, ok)
	}

	if err := write(func() { s.Remove(writer, 5) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		h.TryAdvance()
	}
	if err := write(func() { s.Insert(writer, 6, 60) }); err != nil {
		t.Fatal(err)
	}
	if got := s.search(nil, 6).curr; got != slot {
		t.Fatalf("key 6 went to slot %d, not key 5's recycled slot %d: the test did not reach its case", got, slot)
	}
	if reader.ValidateReads() {
		t.Error("a witness of key 5's link validates against the recycled slot now holding key 6")
	}
	if err := reader.End(); !errors.Is(err, core.ErrTxAborted) {
		t.Errorf("reader End = %v, want ErrTxAborted", err)
	}
}

// TestAbortedUnlinkRecyclesNoSlot aborts a remove or replace of every key:
// the removal's marking CAS is the linearizing one, and its teardown — the
// only place a node is retired — is post-commit work, so an aborted
// transaction must recycle none of the nodes it would have unlinked. Every
// slot handed out after a grace period must be one no key is linked in.
func TestAbortedUnlinkRecyclesNoSlot(t *testing.T) {
	mgr := core.NewTxManager()
	s := New[uint64](mgr)
	tx, h, run := smrTx(t, mgr)
	const keys = 64
	for k := uint64(1); k <= keys; k++ {
		if err := run(func() { s.Insert(tx, k, k) }); err != nil {
			t.Fatal(err)
		}
	}
	linked := map[uint32]bool{}
	for c := target(s.linkAt(s.head, 0)); c != 0; c = target(s.linkAt(c, 0)) {
		linked[c] = true
	}
	for k := uint64(1); k <= keys; k++ {
		err := run(func() {
			if k%2 == 0 {
				s.Remove(tx, k)
			} else {
				s.Put(tx, k, k+1)
			}
			tx.Abort()
		})
		if !errors.Is(err, core.ErrTxAborted) {
			t.Fatalf("Run = %v, want ErrTxAborted", err)
		}
	}
	for i := 0; i < 4; i++ {
		h.TryAdvance()
	}
	for range 4 * keys {
		if i := s.slab.Get(tx); linked[i] {
			t.Fatalf("slot %d, linked in the list, handed out after aborted unlinks", i)
		}
	}
	for k := uint64(1); k <= keys; k++ {
		if v, ok := s.Get(nil, k); !ok || v != k {
			t.Errorf("Get(%d) = %d, %v after aborted unlinks; want %d, true", k, v, ok, k)
		}
	}
}

// TestRecycleStorm has every worker churn sixteen keys of its own, spread
// between a run of stable keys — inserting, removing and replacing them,
// in transactions and bare — while the collector runs back to back and
// EBR advances at every retire, so an unlinked node comes back within a
// few operations as another of the worker's keys, elsewhere in the list
// and often of another height, and the index levels are torn down and
// rebuilt around it. Each worker is its keys' only writer and so knows
// what every one of its operations must return; a hop through a recycled
// node — at level 0 or through a stale index link — shows up as a wrong
// answer, as a broken index after the storm, or under -race as a race
// report. Workers park on a start gate so the storm begins with all of
// them live.
//
// The unpooled run gives the workers' Txs no EBR handle, so nothing is
// reused: a fault both runs show is the list's own, not recycling's.
func TestRecycleStorm(t *testing.T) {
	const (
		stable  = 8
		workers = 6
		owned   = 16 // keys a worker churns
		tag     = uint64(1) << 40
	)
	rounds := 3000
	if testing.Short() {
		rounds = 300
	}
	for _, pooled := range []bool{false, true} {
		t.Run(map[bool]string{false: "unpooled", true: "pooled"}[pooled], func(t *testing.T) {
			mgr := core.NewTxManager()
			dom := ebr.New(1)
			s := New[uint64](mgr)
			// Stable keys are multiples of 1000; worker w's keys are odd
			// and interleave with every other worker's across them all.
			for k := uint64(0); k < stable; k++ {
				s.Put(nil, 1000*k, 1000*k|tag)
			}

			start := make(chan struct{})
			var stop atomic.Bool
			var wg, gcDone sync.WaitGroup
			gcDone.Add(1)
			go func() {
				defer gcDone.Done()
				<-start
				for !stop.Load() {
					runtime.GC()
				}
			}()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w uint64) {
					defer wg.Done()
					tx := mgr.Register()
					h := dom.Register()
					if pooled {
						tx.SetSMR(h)
					}
					rng := rand.New(rand.NewPCG(w, 7))
					var has [owned]bool
					var vals [owned]uint64
					<-start
					for i := 0; i < rounds && !t.Failed(); i++ {
						j := rng.IntN(owned)
						k := 1 + 2*41*(uint64(j)*workers+w)
						next := k | tag | uint64(i)<<16
						present, val := has[j], vals[j]
						remove := present && i%3 == 0
						body := func() {
							switch {
							case !present:
								if !s.Insert(tx, k, next) {
									t.Errorf("key %d: Insert of an absent key refused", k)
								}
							case remove:
								if v, ok := s.Remove(tx, k); !ok || v != val {
									t.Errorf("key %d: Remove = %#x, %v; want %#x, true", k, v, ok, val)
								}
							default:
								if v, ok := s.Put(tx, k, next); !ok || v != val {
									t.Errorf("key %d: Put replaced %#x, %v; want %#x, true", k, v, ok, val)
								}
							}
							st := 1000 * (uint64(i) % stable)
							if v, ok := s.Get(tx, st); !ok || v != st|tag {
								t.Errorf("stable key %d: Get = %#x, %v", st, v, ok)
							}
						}
						h.Enter()
						if i%4 == 3 {
							body()
						} else if err := tx.RunRetry(func() error { body(); return nil }); err != nil {
							t.Error(err)
						}
						h.Exit()
						has[j], vals[j] = !remove, next
					}
					tx.SettleBare()
				}(uint64(w))
			}
			close(start)
			wg.Wait()
			stop.Store(true)
			gcDone.Wait()

			n := 0
			s.Range(func(k, v uint64) bool {
				if k%2 == 0 && v != k|tag {
					t.Errorf("stable key %d holds %#x", k, v)
				}
				n++
				return true
			})
			if n < stable || n > stable+workers*owned {
				t.Errorf("list holds %d keys, want %d stable and up to %d more", n, stable, workers*owned)
			}
			checkNoCycles(t, s, stable+workers*owned)
			checkIndexLive(t, s)
		})
	}
}

// checkIndexLive requires, of a quiescent list, that every node linked at
// an index level is live at level 0, in strictly ascending key order: a
// dead node's teardown has run by then, and a recycled node would sit in
// the index out of order or not at level 0 at all.
func checkIndexLive[V any](t *testing.T, s *List[V]) {
	t.Helper()
	live := map[uint32]bool{}
	for c := target(s.linkAt(s.head, 0)); c != 0; c = target(s.linkAt(c, 0)) {
		if !isDeleted(s.linkAt(c, 0)) {
			live[c] = true
		}
	}
	for l := 1; l < MaxLevel; l++ {
		var prev uint64
		for c := target(s.linkAt(s.head, l)); c != 0; c = target(s.linkAt(c, l)) {
			k := s.slab.At(c).key
			if !live[c] {
				t.Fatalf("level %d links node %d (key %d), not live at level 0", l, c, k)
			}
			if prev != 0 && k <= prev {
				t.Fatalf("level %d: key %d after %d", l, k, prev)
			}
			prev = k
		}
	}
}
