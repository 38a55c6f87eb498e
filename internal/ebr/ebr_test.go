package ebr

import (
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

// TestEnterWaitsOutOverfullLimbo pins the pacing in Enter: a handle whose
// limbo has outgrown limboSlack advance attempts gets its grace period at
// the next Enter when nothing holds the epoch back; when a stalled reader
// does, Enter still returns (the wait is bounded) and reclaims nothing.
func TestEnterWaitsOutOverfullLimbo(t *testing.T) {
	const every = 4
	m := New(every)
	w, r := m.Register(), m.Register()
	p := &recordPool{}
	fill := func() {
		for i := 0; i < limboSlack*every; i++ {
			w.RetireInto(p, new(int))
		}
	}

	r.Enter() // a reader stalled in its critical section
	fill()
	if w.pending < limboSlack*every {
		t.Fatalf("pending = %d with a stalled reader, want >= %d", w.pending, limboSlack*every)
	}
	held := len(p.got)
	w.Enter() // must return although the epoch cannot move
	w.Exit()
	if len(p.got) != held {
		t.Fatalf("recycled %d objects past a stalled reader", len(p.got)-held)
	}

	r.Exit()
	w.Enter() // advances until the limbo is back under its bound
	w.Exit()
	if w.pending >= limboSlack*every || len(p.got) == held {
		t.Fatalf("after the reader left: pending %d (bound %d), recycled %d", w.pending, limboSlack*every, len(p.got)-held)
	}
	if st := m.Stats(); st.Retired-st.Reclaimed != uint64(w.pending) {
		t.Fatalf("pending %d disagrees with stats %+v", w.pending, st)
	}
}
