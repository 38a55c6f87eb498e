package nmbst

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

// smrTx registers a Tx with an EBR handle of its own, so the nodes it
// unlinks come back after a grace period, and returns a runner that brackets
// a transaction in the handle's critical section.
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

// TestRecycledSlotNeverValidatesStaleWitness has a reader witness key 10's
// leaf edge, then a writer remove key 10, wait out the grace period and
// insert key 10 again into the very slots it freed: the parent's slot is
// the parent again, and its left edge holds the same payload — an edge to
// the leaf's slot — as the one witnessed. The reader keeps no critical
// section, as a stale published read set does not, so only the counter
// the parent's Init advanced tells the two lives apart: the reader's commit
// must fail.
func TestRecycledSlotNeverValidatesStaleWitness(t *testing.T) {
	mgr := core.NewTxManager()
	tr := New[uint64](mgr)
	writer, h, write := smrTx(t, mgr)
	if err := write(func() { tr.Insert(writer, 10, 100) }); err != nil {
		t.Fatal(err)
	}
	r := tr.seek(nil, 10, 0, 0)

	reader := mgr.Register()
	reader.Begin()
	if v, ok := tr.Get(reader, 10); !ok || v != 100 {
		t.Fatalf("reader Get(10) = %d, %v", v, ok)
	}

	if err := write(func() { tr.Remove(writer, 10) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		h.TryAdvance()
	}
	if err := write(func() { tr.Insert(writer, 10, 100) }); err != nil {
		t.Fatal(err)
	}
	if again := tr.seek(nil, 10, 0, 0); again.p != r.p || again.leaf != r.leaf || again.pVal != r.pVal {
		t.Fatalf("key 10 went to parent %d, leaf %d (edge %#x), not the recycled %d, %d (edge %#x): the test did not reach its case",
			again.p, again.leaf, again.pVal, r.p, r.leaf, r.pVal)
	}
	if reader.ValidateReads() {
		t.Error("a witness of key 10's leaf edge validates against the recycled parent holding the same edge")
	}
	if err := reader.End(); !errors.Is(err, core.ErrTxAborted) {
		t.Errorf("reader End = %v, want ErrTxAborted", err)
	}
}

// TestAbortedInsertReturnsItsSlots aborts thousands of transactions that
// insert fresh keys: each insert takes a leaf and an internal node and
// links them speculatively, and the abort must give both back, or the slab
// grows by a node or two per insert for ever. It runs without an SMR
// handle, like a plain Tx.
func TestAbortedInsertReturnsItsSlots(t *testing.T) {
	mgr := core.NewTxManager()
	tr := New[uint64](mgr)
	tx := mgr.Register()
	const txns = 2 * core.SlabChunk
	for i := uint64(0); i < txns; i++ {
		err := tx.Run(func() error {
			tr.Insert(tx, i, i)
			tr.Put(tx, i+1<<32, i)
			tx.Abort()
			return nil
		})
		if !errors.Is(err, core.ErrTxAborted) {
			t.Fatalf("Run = %v, want ErrTxAborted", err)
		}
	}
	if n := tr.slab.Chunks(); n != 1 {
		t.Errorf("%d aborted transactions of two inserts grew the slab to %d chunks, want 1", txns, n)
	}
	if n := tr.Len(); n != 0 {
		t.Errorf("aborted inserts left %d keys", n)
	}
}

// TestAbortedUnlinkRecyclesNoSlot aborts a remove or a replace of every
// key. Each retires what it unlinks right after its linearizing CAS, which
// has already closed the speculation interval; the retirement must still
// wait for the commit that never comes. Were the slots recycled, the gets
// that follow the grace period would be handed the leaves and parents of
// keys still in the tree.
func TestAbortedUnlinkRecyclesNoSlot(t *testing.T) {
	mgr := core.NewTxManager()
	tr := New[uint64](mgr)
	tx, h, run := smrTx(t, mgr)
	const keys = 64
	for k := uint64(1); k <= keys; k++ {
		if err := run(func() { tr.Insert(tx, k, k) }); err != nil {
			t.Fatal(err)
		}
	}
	linked := map[uint32]bool{}
	var walk func(i uint32)
	walk = func(i uint32) {
		linked[i] = true
		if n := tr.slab.At(i); n.internal {
			walk(target(n.left.Load()))
			walk(target(n.right.Load()))
		}
	}
	walk(tr.root)
	for k := uint64(1); k <= keys; k++ {
		err := run(func() {
			if k%2 == 0 {
				tr.Remove(tx, k)
			} else {
				tr.Put(tx, k, k+1)
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
		if i := tr.slab.Get(tx); linked[i] {
			t.Fatalf("slot %d, linked in the tree, handed out after aborted unlinks", i)
		}
	}
	for k := uint64(1); k <= keys; k++ {
		if v, ok := tr.Get(nil, k); !ok || v != k {
			t.Errorf("Get(%d) = %d, %v after aborted unlinks; want %d, true", k, v, ok, k)
		}
	}
}

// TestRecycleStorm churns keys that sit side by side in the tree — every
// worker removes, reinserts and replaces a key of its own among stable
// keys, so the workers' deletions flag, tag and splice neighbouring edges
// and help each other — while the collector runs back to back. Every
// worker holds an EBR handle, so each unlinked leaf and parent comes back
// through the grace period and Init; a quarter of the operations run
// outside any transaction. Each worker is its key's only writer and so
// knows what every one of its operations must return; a lost node, a
// duplicated key or a slot reused before its grace period shows up as a
// wrong answer, under -race as a race report.
func TestRecycleStorm(t *testing.T) {
	const (
		stable  = 8
		workers = 6
		tag     = uint64(1) << 40
	)
	rounds := 3000
	if testing.Short() {
		rounds = 300
	}
	for _, pooled := range []bool{false, true} {
		t.Run(map[bool]string{false: "unpooled", true: "pooled"}[pooled], func(t *testing.T) {
			mgr := core.NewTxManager()
			if pooled {
				mgr.EnablePooling()
			}
			dom := ebr.New(4)
			tr := New[uint64](mgr)
			for k := uint64(0); k < 2*stable; k += 2 { // workers' keys fall between
				tr.Put(nil, k, k|tag)
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
					tx.SetSMR(h)
					<-start
					present, val := false, uint64(0)
					for i := 0; i < rounds && !t.Failed(); i++ {
						next := k | tag | uint64(i)<<8
						remove := present && i%3 == 0
						body := func() {
							switch {
							case !present:
								if !tr.Insert(tx, k, next) {
									t.Errorf("key %d: Insert of an absent key refused", k)
								}
							case remove:
								if v, ok := tr.Remove(tx, k); !ok || v != val {
									t.Errorf("key %d: Remove = %#x, %v; want %#x, true", k, v, ok, val)
								}
							default:
								if v, ok := tr.Put(tx, k, next); !ok || v != val {
									t.Errorf("key %d: Put replaced %#x, %v; want %#x, true", k, v, ok, val)
								}
							}
							s := uint64(i) % stable * 2
							if v, ok := tr.Get(tx, s); !ok || v != s|tag {
								t.Errorf("stable key %d: Get = %#x, %v", s, v, ok)
							}
						}
						h.Enter()
						if i%4 == 3 {
							body()
						} else if err := tx.RunRetry(func() error { body(); return nil }); err != nil {
							t.Error(err)
						}
						h.Exit()
						present, val = !remove, next
					}
					tx.SettleBare()
				}(uint64(2*w + 1))
			}
			close(start)
			wg.Wait()
			stop.Store(true)
			gcDone.Wait()

			n := 0
			tr.Range(func(k, v uint64) bool {
				if k%2 == 0 && v != k|tag {
					t.Errorf("stable key %d holds %#x", k, v)
				}
				n++
				return true
			})
			if n < stable || n > stable+workers {
				t.Errorf("tree holds %d keys, want %d stable and up to %d more", n, stable, workers)
			}
		})
	}
}

// TestNodeLayout pins what a key costs the tree: a leaf and an internal
// node, each its key, value, kind and two one-word edges with no cell
// behind them; and a warm churn of inserts and removes — two node slots an
// insert, two descriptor entries a remove, all reused — allocates nothing.
func TestNodeLayout(t *testing.T) {
	if s := unsafe.Sizeof(node[uint64]{}); s != 40 {
		t.Errorf("node[uint64] is %d bytes, want 40", s)
	}
	mgr := core.NewTxManager()
	mgr.EnablePooling()
	tr := New[uint64](mgr)
	tx, h, run := smrTx(t, mgr)
	churn := func(k uint64) { // run's closures would allocate: call RunRetry directly
		h.Enter()
		defer h.Exit()
		if err := tx.RunRetry(func() error { tr.Insert(tx, k, k); return nil }); err != nil {
			t.Fatal(err)
		}
		if err := tx.RunRetry(func() error { tr.Remove(tx, k); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 4000; k++ {
		if k%2 == 0 {
			run(func() { tr.Insert(tx, k, k) })
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

// TestBytesPerKey pins the tree's footprint where it is decided — two slab
// nodes a key — on a pooled Tx with an EBR handle, as medleyd builds one.
// It was ~144 bytes/key when nodes were heap objects whose edges were
// pointers to cells.
func TestBytesPerKey(t *testing.T) {
	const keys = 1 << 16
	const ceiling = 96 // bytes of live heap per key

	scattered := func(i uint64) uint64 { // splitmix64 of the index, below MaxKey
		z := (i + 1) * 0x9E3779B97F4A7C15
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return (z ^ z>>31) >> 1
	}
	heap := func() int64 { // twice: a sync.Pool empties over two collections
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	mgr := core.NewTxManager()
	mgr.EnablePooling()
	tx, _, run := smrTx(t, mgr)
	before := heap()
	tr := New[uint64](mgr)
	const perTx = 16
	for base := uint64(0); base < keys; base += perTx {
		err := run(func() {
			for i := base; i < base+perTx; i++ {
				tr.Put(tx, scattered(i), i)
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
	if n := tr.Len(); n != keys {
		t.Fatalf("tree holds %d keys, want %d", n, keys)
	}
}
