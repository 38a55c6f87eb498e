package tpcc

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"medley/internal/montage"
	"medley/internal/onefile"
)

func smallScale() Scale {
	return Scale{Warehouses: 2, Districts: 2, Customers: 10, Items: 50}
}

// namedBackend is a backend under the name its subtests run as.
type namedBackend struct {
	name string
	b    Backend
}

func backends(t *testing.T) []namedBackend {
	t.Helper()
	mustKV := func(structure string, shards int) Backend {
		b, err := NewKVBackend(structure, shards)
		if err != nil {
			t.Fatalf("NewKVBackend(%s): %v", structure, err)
		}
		return b
	}
	return []namedBackend{
		{"Medley", NewMedleyBackend()},
		{"Medley-bst", mustKV("bst", 1)},
		{"Medley-hash-4shard", mustKV("hash", 4)},
		{"txMontage", NewMontageBackend(montage.NewSystem(montage.Config{RegionWords: 1 << 20}))},
		{"OneFile", NewOneFileBackend(onefile.New())},
		{"TDSL", NewTDSLBackend()},
	}
}

func TestLoadAllBackends(t *testing.T) {
	sc := smallScale()
	for _, e := range backends(t) {
		db := NewDB(e.b)
		if err := Load(db, sc); err != nil {
			t.Fatalf("%s: load: %v", e.name, err)
		}
		w := db.Conn()
		err := w.Run(func(c Ctx) error {
			if _, ok := c.Get(TWarehouse, WarehouseKey(1)); !ok {
				t.Errorf("%s: warehouse 1 missing", e.name)
			}
			if _, ok := c.Get(TDistrict, DistrictKey(2, 2)); !ok {
				t.Errorf("%s: district 2/2 missing", e.name)
			}
			if _, ok := c.Get(TStock, StockKey(1, 50)); !ok {
				t.Errorf("%s: stock 1/50 missing", e.name)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: verify: %v", e.name, err)
		}
	}
}

func TestNewOrderEffects(t *testing.T) {
	sc := smallScale()
	for _, e := range backends(t) {
		db := NewDB(e.b)
		if err := Load(db, sc); err != nil {
			t.Fatalf("%s: load: %v", e.name, err)
		}
		w := db.Conn()
		items := []OrderItem{{Item: 1, SupplyW: 1, Qty: 3}, {Item: 2, SupplyW: 1, Qty: 5}}
		if err := NewOrder(w, 1, 1, 1, items); err != nil {
			t.Fatalf("%s: newOrder: %v", e.name, err)
		}
		err := w.Run(func(c Ctx) error {
			dh, _ := c.Get(TDistrict, DistrictKey(1, 1))
			if got := w.row(dh)[2]; got != 2 {
				t.Errorf("%s: nextOID = %d, want 2", e.name, got)
			}
			if _, ok := c.Get(TOrder, OrderKey(1, 1, 1)); !ok {
				t.Errorf("%s: order row missing", e.name)
			}
			if _, ok := c.Get(TNewOrder, OrderKey(1, 1, 1)); !ok {
				t.Errorf("%s: new-order row missing", e.name)
			}
			if _, ok := c.Get(TOrderLine, OrderLineKey(1, 1, 1, 1)); !ok {
				t.Errorf("%s: order line missing", e.name)
			}
			sh, _ := c.Get(TStock, StockKey(1, 1))
			if got := w.row(sh)[2]; got != 1 {
				t.Errorf("%s: stock orderCnt = %d, want 1", e.name, got)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: verify: %v", e.name, err)
		}
	}
}

func TestPaymentEffects(t *testing.T) {
	sc := smallScale()
	for _, e := range backends(t) {
		db := NewDB(e.b)
		if err := Load(db, sc); err != nil {
			t.Fatalf("%s: load: %v", e.name, err)
		}
		w := db.Conn()
		if err := Payment(w, 1, 1, 1, 12345); err != nil {
			t.Fatalf("%s: payment: %v", e.name, err)
		}
		err := w.Run(func(c Ctx) error {
			wh, _ := c.Get(TWarehouse, WarehouseKey(1))
			if got := w.row(wh)[0]; got != 30000000+12345 {
				t.Errorf("%s: warehouse ytd = %d", e.name, got)
			}
			ch, _ := c.Get(TCustomer, CustomerKey(1, 1, 1))
			crow := w.row(ch)
			if crow[1] != 12345 || crow[2] != 1 {
				t.Errorf("%s: customer row = %v", e.name, crow)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: verify: %v", e.name, err)
		}
	}
}

// TestConcurrentMixConsistency runs the 1:1 mix concurrently on every
// backend and checks TPC-C's money/order-count invariants afterwards.
func TestConcurrentMixConsistency(t *testing.T) {
	sc := smallScale()
	iters := 150
	if testing.Short() {
		iters = 40
	}
	for _, e := range backends(t) {
		db := NewDB(e.b)
		t.Run(e.name, func(t *testing.T) {
			if err := Load(db, sc); err != nil {
				t.Fatalf("load: %v", err)
			}
			var wg sync.WaitGroup
			var mu sync.Mutex
			newOrders := 0
			payments := 0
			var paid uint64
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					d := NewDriver(db, sc, seed, PaperMix())
					localNO, localPay := 0, 0
					var localPaid uint64
					for i := 0; i < iters; i++ {
						kind, err := d.Step()
						if err != nil {
							t.Errorf("step: %v", err)
							return
						}
						if kind == TxNewOrder {
							localNO++
						} else {
							localPay++
						}
						_ = localPaid
					}
					mu.Lock()
					newOrders += localNO
					payments += localPay
					paid += localPaid
					mu.Unlock()
				}(int64(g) + 9)
			}
			wg.Wait()

			// Invariant 1: sum over districts of (nextOID - 1) == total
			// committed newOrder transactions.
			w := db.Conn()
			totalOrders := uint64(0)
			err := w.Run(func(c Ctx) error {
				totalOrders = 0
				for wh := 1; wh <= sc.Warehouses; wh++ {
					for d := 1; d <= sc.Districts; d++ {
						dh, ok := c.Get(TDistrict, DistrictKey(uint64(wh), uint64(d)))
						if !ok {
							t.Fatal("district missing")
						}
						totalOrders += w.row(dh)[2] - 1
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("verify: %v", err)
			}
			if totalOrders != uint64(newOrders) {
				t.Fatalf("order ids allocated = %d, committed newOrders = %d", totalOrders, newOrders)
			}

			// Invariant 2: every allocated order id has order, new-order and
			// first order line rows.
			err = w.Run(func(c Ctx) error {
				for wh := 1; wh <= sc.Warehouses; wh++ {
					for d := 1; d <= sc.Districts; d++ {
						dh, _ := c.Get(TDistrict, DistrictKey(uint64(wh), uint64(d)))
						next := w.row(dh)[2]
						for o := uint64(1); o < next; o++ {
							if _, ok := c.Get(TOrder, OrderKey(uint64(wh), uint64(d), o)); !ok {
								t.Fatalf("order %d/%d/%d missing", wh, d, o)
							}
							if _, ok := c.Get(TNewOrder, OrderKey(uint64(wh), uint64(d), o)); !ok {
								t.Fatalf("new-order %d/%d/%d missing", wh, d, o)
							}
							oh, _ := c.Get(TOrder, OrderKey(uint64(wh), uint64(d), o))
							olCnt := w.row(oh)[1]
							for ol := uint64(0); ol < olCnt; ol++ {
								if _, ok := c.Get(TOrderLine, OrderLineKey(uint64(wh), uint64(d), o, ol)); !ok {
									t.Fatalf("order line %d/%d/%d/%d missing", wh, d, o, ol)
								}
							}
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("verify2: %v", err)
			}

			// Invariant 3: warehouse ytd - initial == sum of district ytd
			// deltas (payments applied atomically).
			err = w.Run(func(c Ctx) error {
				for wh := 1; wh <= sc.Warehouses; wh++ {
					whh, _ := c.Get(TWarehouse, WarehouseKey(uint64(wh)))
					wytd := w.row(whh)[0] - 30000000
					var dsum uint64
					for d := 1; d <= sc.Districts; d++ {
						dhh, _ := c.Get(TDistrict, DistrictKey(uint64(wh), uint64(d)))
						dsum += w.row(dhh)[0] - 3000000
					}
					if wytd != dsum {
						t.Fatalf("warehouse %d ytd delta %d != district sum %d", wh, wytd, dsum)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("verify3: %v", err)
			}
		})
	}
}

// TestDBServesAnyNumberOfConns: a database takes as many sessions as its
// callers open, well past one per CPU. Each writing Conn claims a chunk of
// its own, and Check, which writes nothing, claims none.
func TestDBServesAnyNumberOfConns(t *testing.T) {
	sc := smallScale()
	db := NewDB(NewMedleyBackend())
	if err := Load(db, sc); err != nil {
		t.Fatalf("load: %v", err)
	}
	conns := make([]*Conn, 200)
	for i := range conns {
		conns[i] = db.Conn()
	}
	for i, cn := range conns {
		if err := Payment(cn, uint64(i%sc.Warehouses+1), 1, 1, 100); err != nil {
			t.Fatalf("conn %d: payment: %v", i, err)
		}
	}
	if got := db.rows.claimed.Load(); got != 1+int64(len(conns)) {
		t.Errorf("%d arena chunks claimed, want one for Load and one per Conn (%d)", got, 1+len(conns))
	}
	requireClean(t, db, sc)
}

// TestArenaRowsResolveAcrossChunks: two writers interleave past a chunk
// boundary each, so their chunks alternate in the arena; every handle is
// distinct and resolves to the row put under it.
func TestArenaRowsResolveAcrossChunks(t *testing.T) {
	db := NewDB(NewTDSLBackend())
	cns := [2]*Conn{db.Conn(), db.Conn()}
	seen := make(map[uint64]Row)
	for i := uint64(0); i < arenaChunkSize+3; i++ {
		for c, cn := range cns {
			r := Row{uint64(c), i}
			h := cn.put(r)
			if _, dup := seen[h]; dup {
				t.Fatalf("handle %#x handed out twice", h)
			}
			seen[h] = r
		}
	}
	for h, r := range seen {
		if got := cns[0].row(h); got != r {
			t.Fatalf("handle %#x reads %v, want %v", h, got, r)
		}
	}
	if got := db.rows.claimed.Load(); got != 4 {
		t.Errorf("%d arena chunks claimed, want 4", got)
	}
}

func TestMontageTPCCDurability(t *testing.T) {
	sc := Scale{Warehouses: 1, Districts: 2, Customers: 5, Items: 20}
	sys := montage.NewSystem(montage.Config{RegionWords: 1 << 20})
	db := NewDB(NewMontageBackend(sys))
	if err := Load(db, sc); err != nil {
		t.Fatalf("load: %v", err)
	}
	w := db.Conn()
	if err := NewOrder(w, 1, 1, 1, []OrderItem{{Item: 1, SupplyW: 1, Qty: 2}}); err != nil {
		t.Fatalf("newOrder: %v", err)
	}
	sys.Sync()
	rec := sys.CrashAndRecover()
	// Count of live payloads: every table row that should exist.
	// 20 items + 1 warehouse + 2 districts + 10 customers + 20 stock +
	// 1 order + 1 neworder + 1 orderline + 1 custorder = 57.
	want := 20 + 1 + 2 + 10 + 20 + 1 + 1 + 1 + 1
	if len(rec) != want {
		t.Fatalf("recovered %d payloads, want %d", len(rec), want)
	}
}

// TestRunRetriesAnErrorFromAStaleRead: a body that reads a row, loses a
// race to a concurrent commit, and then fails on what that commit changed
// is not a failed transaction but a doomed one — its reads no longer
// validate — so Run must retry it, not return the error. Here a second
// worker delivers the same district between the first worker's read of the
// delivery cursor and its removal of the new-order entry: Delivery's
// interleaving behind the tpcc-full scenario's rare `execution`
// violations. Every backend keeps this contract: core.Tx (Medley,
// txMontage) and TDSL validate the reads behind a body error, and OneFile
// restarts the body at the stale read itself.
func TestRunRetriesAnErrorFromAStaleRead(t *testing.T) {
	dk := DistrictKey(1, 1)
	for _, e := range backends(t) {
		db := NewDB(e.b)
		w1, w2 := db.Conn(), db.Conn()
		if err := w1.Run(func(c Ctx) error {
			c.Put(TDistrict, dk, w1.put(Row{0, 0, 3, 1})) // orders 1 and 2 undelivered
			c.Insert(TNewOrder, OrderKey(1, 1, 1), w1.put(Row{}))
			c.Insert(TNewOrder, OrderKey(1, 1, 2), w1.put(Row{}))
			return nil
		}); err != nil {
			t.Fatalf("%s: setup: %v", e.name, err)
		}
		deliverOne := func(w *Conn, between func()) error {
			return w.Run(func(c Ctx) error {
				dh, _ := c.Get(TDistrict, dk)
				d := w.row(dh)
				between()
				if !c.Remove(TNewOrder, OrderKey(1, 1, d[3])) {
					return fmt.Errorf("%w: new-order 1/1/%d", errRowMissing, d[3])
				}
				c.Put(TDistrict, dk, w.put(Row{d[0], d[1], d[2], d[3] + 1}))
				return nil
			})
		}
		raced := false
		err := deliverOne(w1, func() {
			if raced {
				return
			}
			raced = true
			done := make(chan error)
			go func() { done <- deliverOne(w2, func() {}) }()
			if err := <-done; err != nil {
				t.Errorf("%s: racing delivery: %v", e.name, err)
			}
		})
		if err != nil {
			t.Errorf("%s: a body error from a stale read escaped Run: %v", e.name, err)
			continue
		}
		if err := w1.Run(func(c Ctx) error {
			dh, _ := c.Get(TDistrict, dk)
			if cursor := w1.row(dh)[3]; cursor != 3 {
				t.Errorf("%s: delivery cursor %d after two deliveries, want 3", e.name, cursor)
			}
			for o := uint64(1); o <= 2; o++ {
				if _, ok := c.Get(TNewOrder, OrderKey(1, 1, o)); ok {
					t.Errorf("%s: new-order 1/1/%d still present", e.name, o)
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("%s: verify: %v", e.name, err)
		}
	}
}

// TestKVWorkerRecyclesReadSets runs a warm worker of each Medley backend
// through transactions that read and write two keys — full commits that
// publish their read sets to helpers. The worker's Tx has an EBR handle,
// so it recycles what it publishes and its pool counters move, and the
// post-commit work (a skiplist's tower build and kill, a txMontage
// payload's birth and death) is a cleanup record, not a closure: a
// transaction allocates nothing. Fresh read sets cost 2 a transaction;
// closures cost 2 on the KV skiplist, and closures and encoded values 8 on
// txMontage.
func TestKVWorkerRecyclesReadSets(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    func() (Backend, error)
	}{
		{"hash", func() (Backend, error) { return NewKVBackend("hash", 1) }},
		{"skip", func() (Backend, error) { return NewKVBackend("skip", 1) }},
		{"montage", func() (Backend, error) { return NewMontageBackend(montage.NewSystem(montage.DefaultConfig())), nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := tc.b()
			if err != nil {
				t.Fatal(err)
			}
			w := b.NewWorker()
			i := uint64(0)
			body := func(c Ctx) error {
				for k := i % 64; k < i%64+2; k++ {
					v, _ := c.Get(0, k)
					c.Put(0, k, v+1)
				}
				return nil
			}
			txn := func() {
				if err := w.Run(body); err != nil {
					t.Fatal(err)
				}
				i++
			}
			for range 256 {
				txn()
			}
			if allocs := testing.AllocsPerRun(512, txn); allocs != 0 {
				t.Errorf("a warm two-key transaction allocates %.0f objects, want 0", allocs)
			}
			if st := w.(StatsWorker).TxStats(); st.PoolHits == 0 {
				t.Errorf("the worker's Tx counted no pool hits: %+v", st)
			}
		})
	}
}

// TestMontageChurnRecyclesNodes replaces the same 16 keys of one table of
// a txMontage backend over and over, with the epoch advancer running so
// the payloads come back too. Each worker holds an EBR handle, entered
// around each transaction, so every index node a replace unlinks comes
// back to its skiplist's slab after a grace period: a long churn retains
// no more heap than its first rounds did. A worker without a handle, as
// MontageBackend's once were, strands a node a put, about 45 bytes of slab.
func TestMontageChurnRecyclesNodes(t *testing.T) {
	b := NewMontageBackend(montage.NewSystem(montage.DefaultConfig()))
	stop := b.StartAdvancer(time.Millisecond)
	defer stop()
	w := b.NewWorker()
	churn := func(rounds int) {
		for r := 0; r < rounds; r++ {
			err := w.Run(func(c Ctx) error {
				for k := uint64(0); k < 16; k++ {
					c.Put(0, k, uint64(r))
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // a sync.Pool empties over two collections
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	churn(500)
	before := heap()
	churn(4000)
	if grown := heap() - before; grown > 1<<20 {
		t.Errorf("64k replaces of 16 keys grew the live heap by %d KB: unlinked index nodes are not recycled", grown>>10)
	}
}
