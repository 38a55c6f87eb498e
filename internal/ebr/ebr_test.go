package ebr

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRetireNotFreedWhileReaderActive(t *testing.T) {
	m := New(1)
	reader := m.Register()
	writer := m.Register()

	reader.Enter() // reader pins current epoch

	freed := false
	writer.Retire(func() { freed = true })
	for i := 0; i < 10; i++ {
		writer.TryAdvance()
	}
	if freed {
		t.Fatal("block freed while a reader from its epoch is still active")
	}

	reader.Exit()
	for i := 0; i < 4; i++ {
		writer.TryAdvance()
		writer.Retire(func() {}) // churn slots
	}
	if !freed {
		t.Fatal("block never freed after reader exited and epochs advanced")
	}
}

func TestGracePeriodTwoEpochs(t *testing.T) {
	m := New(1000000) // no auto-advance
	h := m.Register()
	e0 := m.Stats().Epoch

	freed := false
	h.Retire(func() { freed = true })

	if !h.TryAdvance() {
		t.Fatal("advance 1 failed with no active readers")
	}
	if freed {
		t.Fatalf("freed after one advance (epoch %d -> %d)", e0, m.Stats().Epoch)
	}
	if !h.TryAdvance() {
		t.Fatal("advance 2 failed")
	}
	if !freed {
		t.Fatal("not freed after two advances")
	}
}

func TestAdvanceBlockedByLaggard(t *testing.T) {
	m := New(1)
	active := m.Register()
	other := m.Register()

	active.Enter()
	other.Enter()
	other.Exit()
	if !other.TryAdvance() {
		t.Fatal("advance should succeed while all active handles announce current epoch")
	}
	// Now 'active' is pinned at the old epoch and still active: no advance.
	if other.TryAdvance() {
		t.Fatal("advance should fail with an active laggard")
	}
	active.Exit()
	if !other.TryAdvance() {
		t.Fatal("advance should succeed after laggard exits")
	}
}

func TestDrain(t *testing.T) {
	m := New(1000000)
	h := m.Register()
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		h.Retire(func() { n.Add(1) })
	}
	h.Drain()
	if n.Load() != 100 {
		t.Fatalf("Drain freed %d, want 100", n.Load())
	}
	st := m.Stats()
	if st.Retired != 100 || st.Reclaimed != 100 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConcurrentRetireReclaimAll(t *testing.T) {
	m := New(8)
	const goroutines = 6
	const perG = 500
	var freed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := m.Register()
			for i := 0; i < perG; i++ {
				h.Enter()
				h.Retire(func() { freed.Add(1) })
				h.Exit()
			}
			h.Drain()
		}()
	}
	wg.Wait()
	if freed.Load() != goroutines*perG {
		t.Fatalf("freed %d, want %d", freed.Load(), goroutines*perG)
	}
}

func TestEpochMonotonic(t *testing.T) {
	m := New(1)
	h := m.Register()
	last := m.Stats().Epoch
	for i := 0; i < 50; i++ {
		h.Enter()
		h.Exit()
		h.TryAdvance()
		e := m.Stats().Epoch
		if e < last {
			t.Fatalf("epoch went backwards: %d -> %d", last, e)
		}
		last = e
	}
}

// recordPool collects recycled objects for assertions.
type recordPool struct{ got []any }

func (p *recordPool) Recycle(obj any) { p.got = append(p.got, obj) }

// TestRetireIntoRoutesThroughGracePeriod verifies the allocation-free
// retire path: objects retired with RetireInto reach their pool only after
// the same two-advance grace period as closure-based retires, and arrive
// on the retiring goroutine.
func TestRetireIntoRoutesThroughGracePeriod(t *testing.T) {
	m := New(1000) // no automatic advances: the test drives epochs
	h := m.Register()
	p := &recordPool{}

	x, y := new(int), new(int)
	h.RetireInto(p, x)
	h.RetireInto(p, y)
	if len(p.got) != 0 {
		t.Fatal("recycled before any epoch advance")
	}
	h.TryAdvance()
	if len(p.got) != 0 {
		t.Fatal("recycled after one advance (grace is two)")
	}
	h.TryAdvance()
	h.TryAdvance()
	// Flush happens on the handle's next retire/advance touching the slot.
	h.TryAdvance()
	if len(p.got) != 2 {
		t.Fatalf("got %d recycled objects, want 2", len(p.got))
	}
	if p.got[0] != x || p.got[1] != y {
		t.Fatal("objects recycled out of order or corrupted")
	}
	st := m.Stats()
	if st.Retired != 2 || st.Reclaimed != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestRetireIntoBlockedByActiveReader pins the grace guarantee: an active
// handle announcing an old epoch blocks reclamation of objects retired
// since it entered.
func TestRetireIntoBlockedByActiveReader(t *testing.T) {
	m := New(1000)
	w := m.Register() // writer/retirer
	r := m.Register() // reader
	p := &recordPool{}

	r.Enter() // reader pins the current epoch
	w.RetireInto(p, new(int))
	for i := 0; i < 5; i++ {
		w.TryAdvance()
	}
	if len(p.got) != 0 {
		t.Fatal("object recycled while a reader from its epoch is still active")
	}
	r.Exit()
	for i := 0; i < 4; i++ {
		w.TryAdvance()
	}
	if len(p.got) != 1 {
		t.Fatalf("object not recycled after reader exit: %d", len(p.got))
	}
}

// TestRetireBatchCountsBlocks pins the accounting: the advance trigger
// counts the blocks a retire stands for, not the calls, while Stats keeps
// counting limbo entries.
func TestRetireBatchCountsBlocks(t *testing.T) {
	const every = 256
	m := New(every)
	h := m.Register()
	p := &recordPool{}
	epoch := func() uint64 { return m.Stats().Epoch }

	e := epoch()
	h.RetireBatch(p, new(int), every)
	if epoch() != e+1 {
		t.Fatalf("a batch of %d blocks moved the epoch %d -> %d, want an advance on that call", every, e, epoch())
	}
	for i, want := range []uint64{e + 1, e + 1, e + 2} { // 100, 200, 300 >= 256
		h.RetireBatch(p, new(int), 100)
		if epoch() != want {
			t.Fatalf("after %d batches of 100 blocks: epoch %d, want %d", i+1, epoch(), want)
		}
	}
	for i := 1; i <= every; i++ { // a single block weighs one
		h.RetireInto(p, new(int))
		if want := e + 2 + uint64(i/every); epoch() != want {
			t.Fatalf("after %d single retires: epoch %d, want %d", i, epoch(), want)
		}
	}
	if st := m.Stats(); st.Retired != 1+3+every {
		t.Fatalf("Retired = %d, want %d limbo entries whatever they weigh", st.Retired, 1+3+every)
	}
}

// TestEnterWaitsOutOverfullLimbo pins the pacing in Enter: a handle whose
// last limboSlack advance attempts all failed waits at its next Enter.
// While a stalled reader holds the epoch that wait is bounded and reclaims
// nothing; once the reader has left it ends at the first advance. Size
// alone never trips it: a handle retiring batches far larger than
// limboSlack*advanceEvery blocks, with nobody stalled, is never paced.
func TestEnterWaitsOutOverfullLimbo(t *testing.T) {
	const every = 4
	m := New(every)
	w, r := m.Register(), m.Register()
	p := &recordPool{}

	r.Enter() // a reader stalled in its critical section
	// The first attempt moves the epoch past the reader's; the rest fail.
	for i := 0; i < (limboSlack+1)*every; i++ {
		w.RetireInto(p, new(int))
	}
	if w.failed < limboSlack {
		t.Fatalf("failed = %d with a stalled reader, want >= %d", w.failed, limboSlack)
	}
	held := len(p.got)
	w.Enter() // must return although the epoch cannot move
	w.Exit()
	if len(p.got) != held {
		t.Fatalf("recycled %d objects past a stalled reader", len(p.got)-held)
	}
	if w.failed < limboSlack+graceTries {
		t.Fatalf("failed = %d after a paced Enter, want the %d attempts of awaitGrace on top of %d", w.failed, graceTries, limboSlack)
	}

	r.Exit()
	w.Enter() // the first attempt succeeds: grace granted, pacing over
	w.Exit()
	if w.failed != 0 || len(p.got) == held {
		t.Fatalf("after the reader left: failed %d, recycled %d", w.failed, len(p.got)-held)
	}

	bulk := New(256)
	b, idle := bulk.Register(), bulk.Register()
	idle.Enter()
	idle.Exit()
	for i := 0; i < 3; i++ {
		if b.failed >= limboSlack {
			t.Fatalf("batch %d: failed = %d, the next Enter would be paced", i, b.failed)
		}
		b.Enter()
		b.RetireBatch(p, new(int), 10000)
		b.Exit()
	}
	if st := bulk.Stats(); st.Advances != 3 || st.Reclaimed != 2 {
		t.Fatalf("three bulk batches: %+v, want an advance at each settle and all but the last batch back", st)
	}
}

// TestRegisterWhileAdvancing exercises the lock-free registry scan:
// handles register and enter critical sections while others retire and
// advance. A reader inside a section must never see the block it loaded
// freed — which is what an advance that missed a registered, active
// handle would produce.
func TestRegisterWhileAdvancing(t *testing.T) {
	iters := 8000
	if testing.Short() {
		iters = 2000
	}
	type block struct{ freed atomic.Bool }
	m := New(1) // an attempt on every retire
	var cur atomic.Pointer[block]
	cur.Store(new(block))
	var retired, freed atomic.Int64

	start := make(chan struct{})
	var wg sync.WaitGroup
	writers := []*Handle{m.Register(), m.Register()}
	for _, h := range writers { // swap the block, retire the old one
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				h.Enter()
				old := cur.Swap(new(block))
				h.Retire(func() { old.freed.Store(true); freed.Add(1) })
				h.Exit()
			}
			retired.Add(int64(iters))
		}()
	}
	for g := 0; g < 4; g++ { // readers: a fresh handle every 32 sections
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var h *Handle
			for i := 0; i < iters; i++ {
				if i%32 == 0 {
					h = m.Register()
				}
				h.Enter()
				b := cur.Load()
				for k := 0; k < 4; k++ {
					if b.freed.Load() {
						t.Error("block freed under a registered reader's critical section")
						h.Exit()
						return
					}
					runtime.Gosched()
				}
				h.Exit()
			}
		}()
	}
	close(start)
	wg.Wait()
	for _, h := range writers {
		h.Drain() // every reader has left
	}
	if freed.Load() != retired.Load() {
		t.Fatalf("freed %d of %d retired blocks", freed.Load(), retired.Load())
	}
	if st := m.Stats(); st.Retired != uint64(retired.Load()) || st.Reclaimed != st.Retired {
		t.Fatalf("stats %+v, want %d retired and reclaimed", st, retired.Load())
	}
}
