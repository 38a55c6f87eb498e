package mhash

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"medley/internal/core"
	"medley/internal/ebr"
)

// TestLinkLayout pins what a chain link costs: it is one 8-byte word with
// no cell behind it, a node is its key, value and link, and a committed put
// over an existing key — a node slot, a descriptor entry, a deferred
// unlink, all reused — allocates nothing.
func TestLinkLayout(t *testing.T) {
	if s := unsafe.Sizeof(core.Word{}); s != 8 {
		t.Errorf("a link is %d bytes, want 8", s)
	}
	if s := unsafe.Sizeof(node[uint64]{}); s != 24 {
		t.Errorf("node[uint64] is %d bytes, want 24", s)
	}
	m, tx, h := pooledMap(t)
	put := func(k uint64) {
		h.Enter()
		if err := tx.RunRetry(func() error { m.Put(tx, k, k); return nil }); err != nil {
			t.Fatal(err)
		}
		h.Exit()
	}
	for k := uint64(0); k < 64; k++ {
		put(k)
	}
	i := uint64(0)
	allocs := testing.AllocsPerRun(2000, func() {
		i++
		put(i % 64)
	})
	if allocs != 0 {
		t.Errorf("a committed put over an existing key allocates %.3f objects, want 0", allocs)
	}
}

func TestLinkEncoding(t *testing.T) {
	for _, c := range []struct {
		name   string
		l      uint32
		target uint32
		mark   bool
	}{
		{"link(0)", link(0), 0, false},
		{"link(7)", link(7), 7, false},
		{"deleted(0)", deleted(0), 0, true},
		{"deleted(7)", deleted(7), 7, true},
		{"link(max)", link(1<<31 - 1), 1<<31 - 1, false},
	} {
		if target(c.l) != c.target || isDeleted(c.l) != c.mark {
			t.Errorf("%s decodes to (%d, %v), want (%d, %v)", c.name, target(c.l), isDeleted(c.l), c.target, c.mark)
		}
	}
	if link(0) != 0 {
		t.Error("the unmarked nil link is not the zero payload: a never-written bucket would not read as an empty chain")
	}
	if deleted(0) == link(0) || deleted(7) == link(7) {
		t.Error("a marked link compares equal to its unmarked form: a CAS expecting an unmarked link could change a marked one")
	}
}

// TestMarkedLinkKeepsReplacementAlive stops a replace of the tail node
// between its linearizing CAS and its unlink, where the replacement hangs
// off the chain by nothing but its victim's marked link, and has the
// collector run and the allocator hand out slots. The replacement's slot
// must stay its own: no later allocation may return it, and the chain must
// read through the marked link to it.
func TestMarkedLinkKeepsReplacementAlive(t *testing.T) {
	mgr := core.NewTxManager()
	m := NewMap[uint64](mgr, 1)
	m.Put(nil, 1, 10)
	m.Put(nil, 2, 20)

	r := m.find(nil, 2)
	nn := m.newNode(nil, 2, 21, link(r.next))
	if !m.slab.At(r.curr).next.NbtcCAS(nil, link(r.next), deleted(nn), true, true) {
		t.Fatal("uncontended replace CAS failed")
	}
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	for i := 0; i < 4*core.SlabChunk; i++ {
		if got := m.slab.Get(nil); got == nn {
			t.Fatalf("allocation %d handed out slot %d, which the replacement still occupies", i, nn)
		}
	}
	if v, ok := m.Get(nil, 2); !ok || v != 21 { // unlinks the victim on its way
		t.Fatalf("Get(2) = %d, %v after the replace; want 21, true", v, ok)
	}
	if n := m.Len(); n != 2 {
		t.Fatalf("chain holds %d keys, want 2", n)
	}
	if v, ok := m.Remove(nil, 2); !ok || v != 21 { // the tail: a marked nil link
		t.Fatalf("Remove(2) = %d, %v; want 21, true", v, ok)
	}
	if _, ok := m.Get(nil, 2); ok || m.Len() != 1 {
		t.Fatal("removed tail still present")
	}
}

// TestRecycledSlotNeverValidatesStaleWitness has a reader witness key 5's
// link, then a writer remove key 5, wait out the grace period and reuse
// the very slot for key 6, whose link holds the same payload (the nil
// link) as the one witnessed. The reader keeps no critical section — its
// witness outlives the grace period, as one in a stale published read set
// does — so only the counter its slot's Init advanced can tell the two
// lives apart: the reader's commit must fail.
func TestRecycledSlotNeverValidatesStaleWitness(t *testing.T) {
	mgr := core.NewTxManager()
	m := NewMap[uint64](mgr, 1)
	writer := mgr.Register()
	h := ebr.New(1).Register()
	writer.SetSMR(h)
	write := func(body func()) {
		h.Enter()
		if err := writer.RunRetry(func() error { body(); return nil }); err != nil {
			t.Fatal(err)
		}
		h.Exit()
	}
	write(func() { m.Insert(writer, 5, 50) })
	slot := m.find(nil, 5).curr

	reader := mgr.Register()
	reader.Begin()
	if v, ok := m.Get(reader, 5); !ok || v != 50 {
		t.Fatalf("reader Get(5) = %d, %v", v, ok)
	}

	write(func() { m.Remove(writer, 5) })
	for i := 0; i < 4; i++ {
		h.TryAdvance()
	}
	write(func() { m.Insert(writer, 6, 60) })
	if got := m.find(nil, 6).curr; got != slot {
		t.Fatalf("key 6 went to slot %d, not key 5's recycled slot %d: the test did not reach its case", got, slot)
	}
	if reader.ValidateReads() {
		t.Error("a witness of key 5's link validates against the recycled slot now holding key 6")
	}
	if err := reader.End(); !errors.Is(err, core.ErrTxAborted) {
		t.Errorf("reader End = %v, want ErrTxAborted", err)
	}
}

// TestLinkStorm churns the tail of a one-bucket table — every worker
// removes, reinserts and replaces a key of its own above a run of stable
// keys, so whichever worker key is present last is the chain's tail and
// its neighbours' links flip between node, marked node, nil and marked nil
// — while the collector runs back to back. Each worker is its key's only
// writer and so knows what every one of its operations must return; a lost
// node, a duplicated key or a slot reused before its grace period shows up
// as a wrong answer, under -race as a race report. Pooled, the workers'
// Txs hold EBR handles, so unlinked slots come back through the grace
// period and Init and the transactions' read sets recycle too; unpooled,
// they hold none and nothing is reused, so a fault both runs show is the
// map's own, not recycling's.
func TestLinkStorm(t *testing.T) {
	const (
		stable  = 4
		workers = 6
		tag     = uint64(1) << 40
	)
	rounds := 4000
	if testing.Short() {
		rounds = 400
	}
	for _, pooled := range []bool{false, true} {
		name := "unpooled"
		if pooled {
			name = "pooled"
		}
		t.Run(name, func(t *testing.T) {
			mgr := core.NewTxManager()
			dom := ebr.New(4)
			m := NewMap[uint64](mgr, 1)
			for k := uint64(0); k < stable; k++ {
				m.Put(nil, k, k|tag)
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
				go func(k uint64) {
					defer wg.Done()
					tx := mgr.Register()
					h := dom.Register()
					if pooled {
						tx.SetSMR(h)
					}
					op := func(body func()) {
						h.Enter()
						if err := tx.RunRetry(func() error { body(); return nil }); err != nil {
							t.Error(err)
						}
						h.Exit()
					}
					<-start
					present, val := false, uint64(0)
					for i := 0; i < rounds && !t.Failed(); i++ {
						next := k | tag | uint64(i)<<8
						remove := present && i%3 == 0
						op(func() {
							switch {
							case !present:
								if v, ok := m.Get(tx, k); ok {
									t.Errorf("key %d: removed, yet Get finds %#x (duplicated node)", k, v)
								}
								if !m.Insert(tx, k, next) {
									t.Errorf("key %d: Insert of an absent key refused", k)
								}
							case remove:
								if v, ok := m.Remove(tx, k); !ok || v != val {
									t.Errorf("key %d: Remove = %#x, %v; want %#x, true (lost node)", k, v, ok, val)
								}
							default:
								if v, ok := m.Put(tx, k, next); !ok || v != val {
									t.Errorf("key %d: Put replaced %#x, %v; want %#x, true (lost node)", k, v, ok, val)
								}
							}
							// A stable key sits below every churned link.
							s := uint64(i) % stable
							if v, ok := m.Get(tx, s); !ok || v != s|tag {
								t.Errorf("stable key %d: Get = %#x, %v", s, v, ok)
							}
						})
						present, val = !remove, next
					}
					op(func() { m.Put(tx, k, k|tag) })
				}(uint64(stable + w))
			}
			close(start)
			wg.Wait()
			stop.Store(true)
			gcDone.Wait()

			// Quiescent: exactly the stable and worker keys, once each, in order.
			want := uint64(0)
			m.Range(func(k, v uint64) bool {
				if k != want || v != k|tag {
					t.Errorf("position %d holds key %d = %#x", want, k, v)
				}
				want++
				return true
			})
			if want != stable+workers {
				t.Errorf("chain holds %d keys, want %d", want, stable+workers)
			}
		})
	}
}

// TestAbortedInsertReturnsItsSlot aborts thousands of transactions that
// insert a fresh key: each takes a node slot and links it speculatively,
// and the abort must give the slot back, or the slab grows by one node per
// abort for ever. It runs without an SMR handle, like a plain Tx.
func TestAbortedInsertReturnsItsSlot(t *testing.T) {
	mgr := core.NewTxManager()
	m := NewMap[uint64](mgr, 64)
	tx := mgr.Register()
	for i := uint64(0); i < 4*core.SlabChunk; i++ {
		err := tx.Run(func() error {
			m.Insert(tx, i, i)
			m.Put(tx, i+1<<32, i)
			tx.Abort()
			return nil
		})
		if !errors.Is(err, core.ErrTxAborted) {
			t.Fatalf("Run = %v, want ErrTxAborted", err)
		}
	}
	if n := m.slab.Chunks(); n != 1 {
		t.Errorf("%d aborted inserts grew the slab to %d chunks, want 1", 4*core.SlabChunk, n)
	}
	if m.Len() != 0 {
		t.Errorf("aborted inserts left %d keys", m.Len())
	}
}

// TestTxsOfTwoManagersKeepTheirOwnSlots has transactions of two managers —
// both their first Tx, so both tid 0 — insert into one map at once. Each
// must draw node slots from a cache of its own: a shared one would hand
// both the same slot, and a key would lose its node.
func TestTxsOfTwoManagersKeepTheirOwnSlots(t *testing.T) {
	m := NewMap[uint64](core.NewTxManager(), 1<<10)
	dom := ebr.New(4)
	const keys = 2000
	var wg sync.WaitGroup
	for w := uint64(0); w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := core.NewTxManager().Register()
			h := dom.Register()
			tx.SetSMR(h)
			for k := w; k < 2*keys; k += 2 {
				h.Enter()
				if err := tx.RunRetry(func() error { m.Put(tx, k, k); return nil }); err != nil {
					t.Error(err)
				}
				h.Exit()
			}
		}()
	}
	wg.Wait()
	for k := uint64(0); k < 2*keys; k++ {
		if v, ok := m.Get(nil, k); !ok || v != k {
			t.Fatalf("Get(%d) = %d, %v; want %d, true", k, v, ok, k)
		}
	}
}

// TestDroppedTxHoldsNoMap writes a map of 2^20 buckets — 8 MB of heads —
// through a Tx and drops both. The Tx's descriptor has installed words, so
// it is kept for the life of the process (core's wordDescs), and it must
// let go of what its last transaction touched: its entries' slots and its
// published read set both point into the map's heads.
func TestDroppedTxHoldsNoMap(t *testing.T) {
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	func() {
		tx := core.NewTxManager().Register()
		m := NewMap[uint64](tx.Manager(), 1<<20)
		err := tx.RunRetry(func() error { // two writes: the full commit, which publishes
			m.Get(tx, 3)
			m.Put(tx, 1, 1)
			m.Put(tx, 2, 2)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}()
	if held := int64(heap()) - int64(before); held > 1<<20 {
		t.Errorf("a dropped 8 MB map still holds %.1f MB after its Tx was dropped too", float64(held)/(1<<20))
	}
}

// TestTxWithHandleRecyclesSlots replaces 64 keys over and over: every put
// unlinks a node. Through a Tx with an EBR handle each unlinked slot must
// come back, so the slab stays at one chunk; through a Tx without one no
// slot ever does, so the slab grows a node a put.
func TestTxWithHandleRecyclesSlots(t *testing.T) {
	const puts = 32 * core.SlabChunk
	for _, withHandle := range []bool{true, false} {
		mgr := core.NewTxManager()
		m := NewMap[uint64](mgr, 64)
		tx := mgr.Register()
		h := ebr.New(64).Register()
		if withHandle {
			tx.SetSMR(h)
		}
		for i := uint64(0); i < puts; i++ {
			h.Enter()
			if err := tx.RunRetry(func() error { m.Put(tx, i%64, i); return nil }); err != nil {
				t.Fatal(err)
			}
			h.Exit()
		}
		want := 1
		if !withHandle {
			want = puts / core.SlabChunk
		}
		if n := m.slab.Chunks(); n < want || withHandle && n > want {
			t.Errorf("EBR handle %v: %d puts over 64 keys grew the slab to %d chunks, want %d", withHandle, puts, n, want)
		}
	}
}

// TestLoadLinkStorm races the bare Put's one-CAS link into an empty
// bucket against everything else that writes a bucket head, on a table
// of four buckets whose heads keep going empty: loaders putting with
// nodes from slot runs (PutRun; the runs released every few rounds, so
// their unused tails go back to the frontier under contention) and bare
// Puts on Txs with EBR handles, with nodes from their slot caches, or on
// no Tx at all, against transactional Put/Insert/Remove — so an
// empty-head CAS meets installed descriptors and invalidates read
// witnesses. Each worker writes only its own keys, linking and removing
// them in rounds, and so knows what every operation must return; the
// quiescent table must hold every worker's keys with its last values,
// and no slot may be reachable twice. All start at once on a gate, and
// every worker writes inside EBR critical sections: a Tx with a handle
// recycles the nodes it unlinks, whoever linked them. A slot handed out
// twice — a run giving back a tail that a later claim already took,
// say — more often ties a chain into a loop than returns a wrong value,
// and then wedges the storm: run it with a timeout.
func TestLoadLinkStorm(t *testing.T) {
	const (
		kinds    = 4 // run loader, bare Put on a Tx, transactional, bare Put
		workers  = 2 * kinds
		keysEach = 3
		tag      = uint64(1) << 40
	)
	rounds := 3000
	if testing.Short() {
		rounds = 300
	}
	mgr := core.NewTxManager()
	dom := ebr.New(4)
	m := NewMap[uint64](mgr, 4)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := mgr.Register()
			h := dom.Register()
			tx.SetSMR(h)
			var run core.SlotRun
			defer run.Release()
			var keys [keysEach]uint64
			for j := range keys {
				keys[j] = uint64(w*keysEach + j)
			}
			check := func(k, want uint64, what string) {
				if v, ok := m.Get(nil, k); !ok || v != want {
					t.Errorf("worker %d key %d after %s: Get = %#x, %v; want %#x", w, k, what, v, ok, want)
				}
			}
			// write binds every key to val and, unless last, removes it again.
			write := func(val uint64, last bool) {
				h.Enter()
				defer h.Exit()
				switch w % kinds {
				case 0:
					for _, k := range keys {
						m.PutRun(&run, k, val)
						m.PutRun(&run, k, val|k) // a repeat: the replace
						check(k, val|k, "PutRun")
					}
					for _, k := range keys {
						if !last {
							if v, ok := m.Remove(nil, k); !ok || v != val|k {
								t.Errorf("worker %d key %d: Remove = %#x, %v", w, k, v, ok)
							}
						}
					}
					if val>>8&7 == 0 {
						run.Release()
					}
				case 1:
					for _, k := range keys {
						m.Put(tx, k, val|k)
						check(k, val|k, "bare put on a Tx")
					}
					for _, k := range keys {
						if !last {
							if v, ok := m.Remove(tx, k); !ok || v != val|k {
								t.Errorf("worker %d key %d: Remove = %#x, %v", w, k, v, ok)
							}
						}
					}
					tx.SettleBare()
				case 2:
					if err := tx.RunRetry(func() error {
						for _, k := range keys {
							if !m.Insert(tx, k, val|k) {
								t.Errorf("worker %d key %d: Insert of an absent key refused", w, k)
							}
						}
						return nil
					}); err != nil {
						t.Error(err)
					}
					for _, k := range keys {
						check(k, val|k, "transactional insert")
					}
					if !last {
						if err := tx.RunRetry(func() error {
							for _, k := range keys {
								m.Put(tx, k, val|k|1<<39) // a replace, then the remove of the replacement
								if v, ok := m.Remove(tx, k); !ok || v != val|k|1<<39 {
									t.Errorf("worker %d key %d: Remove = %#x, %v", w, k, v, ok)
								}
							}
							return nil
						}); err != nil {
							t.Error(err)
						}
					}
				case 3:
					for _, k := range keys {
						m.Put(nil, k, val|k)
						check(k, val|k, "bare put")
						if !last {
							m.Remove(nil, k)
						}
					}
				}
			}
			<-start
			for i := 0; i < rounds && !t.Failed(); i++ {
				write(tag|uint64(i)<<8, false)
			}
			write(tag|uint64(rounds)<<8, true)
		}()
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}

	linked := map[uint32]bool{} // and no chain runs into another, or itself
	for b := range m.buckets {
		for i := target(m.buckets[b].Load()); i != 0; i = target(m.slab.At(i).next.Load()) {
			if linked[i] {
				t.Fatalf("slot %d is linked twice (bucket %d)", i, b)
			}
			linked[i] = true
		}
	}
	want := tag | uint64(rounds)<<8
	n := 0
	m.Range(func(k, v uint64) bool {
		if k >= workers*keysEach || v != want|k {
			t.Errorf("key %d holds %#x, want %#x", k, v, want|k)
		}
		n++
		return true
	})
	if n != workers*keysEach {
		t.Errorf("table holds %d keys, want %d", n, workers*keysEach)
	}
}
