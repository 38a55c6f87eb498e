package msqueue

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"medley/internal/core"
	"medley/internal/ebr"
)

// smrTx registers a Tx with an EBR handle of its own, so the dummies it
// dequeues come back after a grace period, and returns a runner that
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

// TestRecycledSlotNeverValidatesStaleWitness has a reader witness the
// empty successor link of the queue's dummy, then a writer enqueue and
// dequeue a value — which retires the dummy — wait out the grace period
// and enqueue again into the very slot, whose link holds the same payload
// (no successor) as the one witnessed. The reader keeps no critical
// section, as a stale published read set does not, so only the counter the
// slot's Init advanced tells the two lives apart: the reader's commit must
// fail.
func TestRecycledSlotNeverValidatesStaleWitness(t *testing.T) {
	mgr := core.NewTxManager()
	q := New[uint64](mgr)
	writer, h, write := smrTx(t, mgr)
	dummy := q.head.Load()

	reader := mgr.Register()
	reader.Begin()
	next, w := q.slab.At(dummy).next.NbtcLoad(reader)
	if next != 0 {
		t.Fatalf("an empty queue's dummy links %d", next)
	}
	reader.AddToReadSet(w)

	if err := write(func() { q.Enqueue(writer, 1) }); err != nil {
		t.Fatal(err)
	}
	if err := write(func() { q.Dequeue(writer) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		h.TryAdvance()
	}
	if err := write(func() { q.Enqueue(writer, 2) }); err != nil {
		t.Fatal(err)
	}
	if got := q.slab.At(q.head.Load()).next.Load(); got != dummy {
		t.Fatalf("value 2 went to slot %d, not the old dummy's recycled slot %d: the test did not reach its case", got, dummy)
	}
	if q.slab.At(dummy).next.Load() != 0 {
		t.Fatal("the recycled slot links a successor")
	}
	if reader.ValidateReads() {
		t.Error("a witness of the old dummy's link validates against its recycled slot")
	}
	if err := reader.End(); !errors.Is(err, core.ErrTxAborted) {
		t.Errorf("reader End = %v, want ErrTxAborted", err)
	}
}

// TestAbortedUnlinkRecyclesNoSlot aborts a dequeue of every element: the
// head-advancing CAS is the linearizing one and retires the old dummy, a
// retirement that takes effect only if the transaction commits. Every slot
// handed out after a grace period must be one the queue does not link.
func TestAbortedUnlinkRecyclesNoSlot(t *testing.T) {
	mgr := core.NewTxManager()
	q := New[uint64](mgr)
	tx, h, run := smrTx(t, mgr)
	const n = 64
	for v := uint64(1); v <= n; v++ {
		if err := run(func() { q.Enqueue(tx, v) }); err != nil {
			t.Fatal(err)
		}
	}
	linked := map[uint32]bool{}
	for c := q.head.Load(); c != 0; c = q.slab.At(c).next.Load() {
		linked[c] = true
	}
	for range n {
		err := run(func() {
			if _, ok := q.Dequeue(tx); !ok {
				t.Error("Dequeue of a full queue failed")
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
	for range 4 * n {
		if i := q.slab.Get(tx); linked[i] {
			t.Fatalf("slot %d, linked in the queue, handed out after aborted dequeues", i)
		}
	}
	if got := q.Drain(); len(got) != n || got[0] != 1 || got[n-1] != n {
		t.Errorf("after aborted dequeues the queue drains %d values, want 1..%d", len(got), n)
	}
}

// TestRecycleStorm has every worker move values through one short queue —
// dequeue one, enqueue one of its own, in transactions and bare — while
// the collector runs back to back and EBR advances at every retire, so
// each dequeued dummy comes back as an enqueued node within a few
// operations. Every value is enqueued once, so the values dequeued and
// the values left must be exactly those enqueued, each producer's in its
// order: a node linked after a dummy already reused (a tail that still
// named it) loses values, and under -race shows as a race report. Workers
// park on a start gate so the storm begins with all of them live.
//
// The unpooled run gives the workers' Txs no EBR handle, so nothing is
// reused: a fault both runs show is the queue's own, not recycling's.
func TestRecycleStorm(t *testing.T) {
	const (
		workers = 6
		initial = 4
	)
	rounds := 3000
	if testing.Short() {
		rounds = 300
	}
	for _, pooled := range []bool{false, true} {
		t.Run(map[bool]string{false: "unpooled", true: "pooled"}[pooled], func(t *testing.T) {
			mgr := core.NewTxManager()
			dom := ebr.New(1)
			q := New[uint64](mgr)
			for v := uint64(0); v < initial; v++ {
				q.Enqueue(nil, workers<<32|v) // producer "workers": the preload
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
			got := make([][]uint64, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w uint64) {
					defer wg.Done()
					tx := mgr.Register()
					h := dom.Register()
					if pooled {
						tx.SetSMR(h)
					}
					<-start
					for i := uint64(0); i < uint64(rounds) && !t.Failed(); i++ {
						var v uint64
						var ok bool
						body := func() {
							v, ok = q.Dequeue(tx)
							q.Enqueue(tx, w<<32|i)
						}
						h.Enter()
						if i%4 == 3 {
							body()
						} else if err := tx.RunRetry(func() error { body(); return nil }); err != nil {
							t.Error(err)
						}
						h.Exit()
						if ok {
							got[w] = append(got[w], v)
						}
					}
					tx.SettleBare()
				}(uint64(w))
			}
			close(start)
			wg.Wait()
			stop.Store(true)
			gcDone.Wait()

			// Each consumer, and the drain, sees every producer's values in
			// the order they were enqueued; no value comes out twice.
			seen := map[uint64]bool{}
			check := func(vs []uint64) {
				last := map[uint64]uint64{}
				for _, v := range vs {
					if seen[v] {
						t.Errorf("value %#x dequeued twice", v)
					}
					seen[v] = true
					p, seq := v>>32, v&(1<<32-1)+1
					if seq <= last[p] {
						t.Errorf("producer %d: value %d after %d", p, seq-1, last[p]-1)
					}
					last[p] = seq
				}
			}
			for _, vs := range got {
				check(vs)
			}
			check(q.Drain())
			if want := initial + workers*rounds; len(seen) != want {
				t.Errorf("%d distinct values dequeued or left, want %d enqueued", len(seen), want)
			}
		})
	}
}
