package mhash

import (
	"runtime"
	"testing"

	"medley/internal/core"
	"medley/internal/ebr"
)

// pooledMap builds a pooling-enabled map with one registered worker whose
// EBR grace periods are as short as possible, then churns it until the
// recycling economy is warm (cells and nodes for the working set have been
// minted, retired, and recycled at least once).
func pooledMap(t testing.TB) (*Map[uint64], *core.Tx, *ebr.Handle) {
	t.Helper()
	mgr := core.NewTxManager()
	mgr.EnablePooling()
	dom := ebr.New(1)
	m := NewMap[uint64](mgr, 1<<8)
	tx := mgr.Register()
	h := dom.Register()
	tx.SetSMR(h)
	for i := 0; i < 4000; i++ {
		k := uint64(i % 64)
		h.Enter()
		_ = tx.RunRetry(func() error {
			m.Put(tx, k, k)
			if i%3 == 0 {
				m.Remove(tx, k)
			}
			return nil
		})
		h.Exit()
	}
	return m, tx, h
}

// TestAllocsPerOpGet pins the steady-state allocation cost of the
// transactional Get hot path at zero: a read-only transaction reuses its
// read-set array, its publishedReads shell, and every witness is a plain
// struct — nothing escapes.
func TestAllocsPerOpGet(t *testing.T) {
	m, tx, h := pooledMap(t)
	allocs := testing.AllocsPerRun(500, func() {
		h.Enter()
		_ = tx.RunRetry(func() error {
			m.Get(tx, 7)
			m.Get(tx, 13)
			return nil
		})
		h.Exit()
	})
	if allocs > 0.1 {
		t.Fatalf("Get transaction allocates %.2f objects/run, want 0", allocs)
	}
}

// TestAllocsPerOpPut pins the steady-state cost of the update hot path:
// node slot, descriptor entry and deferred unlink are all reused once warm.
func TestAllocsPerOpPut(t *testing.T) {
	m, tx, h := pooledMap(t)
	i := uint64(0)
	allocs := testing.AllocsPerRun(500, func() {
		i++
		h.Enter()
		_ = tx.RunRetry(func() error {
			m.Put(tx, i%64, i)
			return nil
		})
		h.Exit()
	})
	// The EBR limbo population breathes with epoch parity, so an
	// occasional slice growth is tolerated; steady state must stay well
	// under one object per transaction.
	if allocs > 0.5 {
		t.Fatalf("Put transaction allocates %.2f objects/run, want ~0", allocs)
	}
}

// TestAllocsPerOpTransfer pins the composed read-modify-write transaction
// (the paper's bank transfer): two witnessed Gets plus two Puts.
func TestAllocsPerOpTransfer(t *testing.T) {
	m, tx, h := pooledMap(t)
	i := uint64(0)
	allocs := testing.AllocsPerRun(500, func() {
		i++
		from, to := i%64, (i+7)%64
		h.Enter()
		_ = tx.RunRetry(func() error {
			vf, _ := m.Get(tx, from)
			vt, _ := m.Get(tx, to)
			m.Put(tx, from, vf-1)
			m.Put(tx, to, vt+1)
			return nil
		})
		h.Exit()
	})
	if allocs > 1.0 {
		t.Fatalf("transfer transaction allocates %.2f objects/run, want ~0", allocs)
	}
}

// TestAllocsPerOpGetUnpooled pins the read-only hot path at zero
// allocations with pooling OFF: a read-only fast-path commit never
// publishes its read set, so the backing array is reused in place and no
// publishedReads shell is ever minted — the recycling arenas have nothing
// left to remove from this path.
func TestAllocsPerOpGetUnpooled(t *testing.T) {
	mgr := core.NewTxManager() // pooling off
	m := NewMap[uint64](mgr, 1<<8)
	tx := mgr.Register()
	for i := uint64(0); i < 64; i++ {
		m.Put(tx, i, i)
	}
	body := func() error {
		m.Get(tx, 7)
		m.Get(tx, 13)
		return nil
	}
	for i := 0; i < 8; i++ {
		if err := tx.RunRetry(body); err != nil {
			t.Fatalf("warmup: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		_ = tx.RunRetry(body)
	})
	if allocs != 0 {
		t.Fatalf("warm unpooled Get transaction allocates %.2f objects/run, want 0", allocs)
	}
}

// TestBytesPerKey pins the store's footprint where it is decided — node
// slot and bucket head — on the configuration medleyd builds (pooling on,
// as many buckets as keys). Each key costs a 24-byte node in the slab and
// an 8-byte bucket head, both words with no cell behind them: 32 bytes
// however the keys fall into chains, plus the slab's unused tail. It was
// 48 when every written link had a 16-byte cell, 56 when a value cell
// carried a descriptor pointer and ~84 when a link was two words and every
// node's link had a cell.
// The second half is the read side of the same contract: looking up absent
// keys — many of them in buckets nobody has ever written — must allocate
// nothing.
func TestBytesPerKey(t *testing.T) {
	scattered := func(i uint64) uint64 { // splitmix64 of the index
		z := (i + 1) * 0x9E3779B97F4A7C15
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return z ^ z>>31
	}
	t.Run("scattered", func(t *testing.T) { testBytesPerKey(t, scattered) })
	t.Run("dense", func(t *testing.T) { testBytesPerKey(t, func(i uint64) uint64 { return i }) })
}

func testBytesPerKey(t *testing.T, key func(i uint64) uint64) {
	const keys = 1 << 16
	const ceiling = 40 // bytes of live heap per preloaded key

	mgr := core.NewTxManager()
	mgr.EnablePooling()
	tx := mgr.Register()
	h := ebr.New(1).Register()
	tx.SetSMR(h)

	heap := func() int64 { // twice: a sync.Pool empties over two collections
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	m := NewMap[uint64](mgr, keys)
	base := uint64(0)
	const perTx = 16
	run := func(body func() error) {
		h.Enter()
		if err := tx.RunRetry(body); err != nil {
			t.Fatal(err)
		}
		h.Exit()
	}
	put := func() error {
		for i := base; i < base+perTx; i++ {
			m.Put(tx, key(i), i)
		}
		return nil
	}
	for base = 0; base < keys; base += perTx {
		run(put)
	}
	perKey := float64(heap()-before) / keys
	t.Logf("%.1f bytes of live heap per key", perKey)
	if perKey > ceiling {
		t.Errorf("preload of %d keys into %d buckets holds %.1f bytes/key, ceiling %d", keys, keys, perKey, ceiling)
	}

	missed := 0
	get := func() error {
		for i := base; i < base+perTx; i++ {
			if _, ok := m.Get(tx, key(i)); !ok {
				missed++
			}
		}
		return nil
	}
	base = keys
	run(get) // the read set grows to its working size once
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for base = keys; base < 2*keys; base += perTx {
		run(get)
	}
	runtime.ReadMemStats(&m1)
	if missed != keys+perTx {
		t.Fatalf("%d of %d absent keys missed", missed, keys+perTx)
	}
	if n, b := m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc; n != 0 || b != 0 {
		t.Errorf("looking up %d absent keys allocated %d objects, %d bytes; want 0", keys, n, b)
	}
	runtime.KeepAlive(m)
}

// TestBulkTransactionRecyclesItsCells pins that EBR prices limbo in blocks:
// a transaction whose write set is large against advanceEvery attempts an
// epoch advance at its own settle, so the node slots it unlinks are back in
// its cache two batches later. Each transaction here overwrites 512
// existing keys: a put gets a slot for the replacement and a descriptor
// entry (reused after the first transaction), and retires the slot it
// replaced as part of one batch. Only the first few batches may miss on
// the slot. Counted in entries (one per settle), 128 transactions never
// reach an attempt and every slot get misses: 1.00 misses/key.
func TestBulkTransactionRecyclesItsCells(t *testing.T) {
	const (
		txns  = 128
		perTx = 512
		keys  = txns * perTx
	)

	mgr := core.NewTxManager()
	mgr.EnablePooling()
	tx := mgr.Register()
	h := ebr.New(256).Register() // the harness's setting
	tx.SetSMR(h)
	m := NewMap[uint64](mgr, keys)
	for k := uint64(0); k < keys; k++ {
		m.Put(nil, k, k)
	}

	for base := uint64(0); base < keys; base += perTx {
		h.Enter()
		err := tx.RunRetry(func() error {
			for k := base; k < base+perTx; k++ {
				m.Put(tx, k, k+1)
			}
			return nil
		})
		h.Exit()
		if err != nil {
			t.Fatal(err)
		}
	}
	st := mgr.Stats()
	misses := st.PoolGets - st.PoolHits
	t.Logf("%d pool gets, %d hits: %.2f misses/key", st.PoolGets, st.PoolHits, float64(misses)/keys)
	if ceiling := uint64(8 * perTx); misses > ceiling {
		t.Errorf("bulk transaction missed the pool %.2f×/key (%d misses over %d keys), ceiling %d: a settle batch must weigh its length in limbo",
			float64(misses)/keys, misses, keys, ceiling)
	}
}
