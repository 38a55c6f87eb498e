package store

import (
	"maps"
	"runtime"
	"testing"

	"medley/internal/cdc"
	"medley/internal/kv"
	"medley/internal/obs"
)

// TestQuiesceFlushesExecutorLimbo pins the barrier flush: advancing the
// epoch alone reclaims nothing parked in an executor's limbo, and handing
// Quiesce the executor reclaims every block it retired.
func TestQuiesceFlushesExecutorLimbo(t *testing.T) {
	st, err := New("medley-hash", Opts{Buckets: 1 << 8, KeyRange: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	sys := st.(*System)
	ebrStats := func() (retired, reclaimed uint64) {
		for _, m := range sys.MetricsSnapshot() {
			switch m.Name {
			case "ebr_retired":
				retired = m.Value
			case "ebr_reclaimed":
				reclaimed = m.Value
			}
		}
		return retired, reclaimed
	}
	ex := sys.NewExecutor()
	ops := make([]kv.Op, 64)
	for round := uint64(0); round < 4; round++ {
		for i := range ops {
			ops[i] = kv.Op{Kind: kv.OpPut, Key: uint64(i), Val: round}
		}
		if err := ex.ExecBatch(ops, nil); err != nil {
			t.Fatal(err)
		}
	}
	retired, before := ebrStats()
	if retired == 0 || before >= retired {
		t.Fatalf("retired %d, reclaimed %d: the overwrites left nothing in limbo", retired, before)
	}
	sys.Quiesce(nil)
	if _, after := ebrStats(); after != before {
		t.Fatalf("Quiesce(nil) reclaimed %d → %d: an epoch advance alone must not touch an executor's limbo", before, after)
	}
	sys.Quiesce([]kv.Executor{ex})
	if _, after := ebrStats(); after != retired {
		t.Fatalf("Quiesce(ex) reclaimed %d → %d of %d retired: the executor's limbo was not flushed", before, after, retired)
	}
	res := make([]kv.Result, 1)
	if err := ex.ExecBatch([]kv.Op{{Kind: kv.OpGet, Key: 3}}, res); err != nil {
		t.Fatal(err)
	}
	if res[0] != (kv.Result{Val: 3, Ok: true}) {
		t.Errorf("flushed executor reads %+v, want 3", res[0])
	}
}

// Every system medleyd serves takes a follower's bootstrap through Load:
// a chunk of fresh puts, then one of puts over existing keys and deletes,
// each op a bare operation on the executor's Tx. The store ends exact, no
// transaction begins, the feed holds one ticket a chunk and one entry a
// write, and on a store whose executors transact — each over a Tx with an
// EBR handle, which counts its pool traffic — everything the second chunk
// replaced or unlinked has been retired into the pools by the time Load
// returns.
func TestLoadEverySystem(t *testing.T) {
	for _, spec := range append(Systems.Names(), "medley-hash@4", "medley-skip-nofast") {
		t.Run(spec, func(t *testing.T) {
			st, err := New(spec, Opts{Buckets: 1 << 10, KeyRange: 1 << 14})
			if err != nil {
				t.Fatal(err)
			}
			ex := st.NewExecutor()
			feed := cdc.New(4, 0, nil)
			tapped := ex.(*worker).SetChangeFeed(feed)
			if tapped != st.SupportsChangeFeed() {
				t.Fatalf("SetChangeFeed %v on a store whose SupportsChangeFeed is %v", tapped, st.SupportsChangeFeed())
			}
			counter := func(name string) uint64 {
				for _, m := range st.(obs.MetricsSnapshotter).MetricsSnapshot() {
					if m.Name == name {
						return m.Value
					}
				}
				return 0
			}
			want := map[uint64]uint64{}
			var fresh, over []kv.Op
			for k := uint64(0); k < 1024; k++ {
				fresh = append(fresh, kv.Op{Kind: kv.OpPut, Key: k, Val: k})
				want[k] = k
			}
			for k := uint64(0); k < 768; k++ {
				if k < 512 {
					over = append(over, kv.Op{Kind: kv.OpPut, Key: k, Val: 2*k + 1})
					want[k] = 2*k + 1
				} else {
					over = append(over, kv.Op{Kind: kv.OpDelete, Key: k})
					delete(want, k)
				}
			}
			ex.(*worker).Load(fresh)
			retires := counter("pool_retires")
			ex.(*worker).Load(over)

			got := map[uint64]uint64{}
			st.(interface {
				StateSnapshot(func(k, v uint64) bool)
			}).StateSnapshot(func(k, v uint64) bool {
				got[k] = v
				return true
			})
			if !maps.Equal(got, want) {
				t.Errorf("store holds %d keys after the loads, want %d", len(got), len(want))
			}
			if n := counter("tx_begins"); n != 0 {
				t.Errorf("the loads began %d transactions, want none", n)
			}
			if fs := feed.Stats(); tapped && (fs.Drawn != 2 || fs.Published != 2 || fs.Entries != uint64(len(fresh)+len(over))) {
				t.Errorf("feed drew %d and published %d tickets of %d entries, want 2 and 2 of %d",
					fs.Drawn, fs.Published, fs.Entries, len(fresh)+len(over))
			}
			if tapped {
				if n := counter("pool_retires") - retires; n < uint64(len(over)) {
					t.Errorf("the second load retired %d blocks into the pools, want at least one per op (%d)", n, len(over))
				}
			}
		})
	}
}

// liveHeap is the heap the live objects hold, after a collection.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC() // a sync.Pool empties over two collections
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestTxOffChurnRecyclesNodes replaces the same 64 keys of a TxOff store
// over and over. Its operations run outside any transaction, but on the
// executor's registered Tx with an EBR handle, each batch closed by
// SettleBare, so every node a replace unlinks comes back to the skiplist's
// slab after a grace period: a long churn retains no more heap than its
// first rounds did. Run on a nil Tx, as TxOff executors once were, each of
// the 128k replaces strands its node, about 45 bytes of slab a put.
func TestTxOffChurnRecyclesNodes(t *testing.T) {
	st, err := New("txoff-skip", Opts{KeyRange: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	sys := st.(*System)
	ex := sys.NewExecutor()
	ops := make([]kv.Op, 64)
	churn := func(rounds int) {
		for r := 0; r < rounds; r++ {
			for i := range ops {
				ops[i] = kv.Op{Kind: kv.OpPut, Key: uint64(i), Val: uint64(r)}
			}
			if err := ex.ExecBatch(ops, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	churn(100)
	sys.Quiesce([]kv.Executor{ex})
	before := liveHeap()
	churn(2000)
	sys.Quiesce([]kv.Executor{ex})
	if grown := liveHeap() - before; grown > 1<<20 {
		t.Errorf("128k replaces of 64 keys grew the live heap by %d KB: unlinked nodes are not recycled", grown>>10)
	}
	if n := sys.m.(kv.Lener).Len(); n != len(ops) {
		t.Errorf("store holds %d keys, want %d", n, len(ops))
	}
}

// TestTxMontageWorkerRecyclesReadSets runs a warm txMontage executor
// through batches of two adds — a read and a write of each of two keys,
// a full commit that publishes its read set to helpers. The executor's Tx
// has an EBR handle, so it recycles what it publishes, and its pool
// counters move; each payload birth and death is a cleanup record and each
// value is encoded into the handle's buffer, so a transaction allocates
// nothing (8 with fresh read sets, 6 with closures and a slice a write).
func TestTxMontageWorkerRecyclesReadSets(t *testing.T) {
	st, err := New("txmontage-hash", Opts{Buckets: 1 << 8, KeyRange: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = uint64(i)
	}
	st.Preload(keys)
	ex := st.NewExecutor()
	ops := make([]kv.Op, 2)
	i := uint64(0)
	batch := func() {
		ops[0] = kv.Op{Kind: kv.OpAdd, Key: i % 64, Val: 1}
		ops[1] = kv.Op{Kind: kv.OpAdd, Key: (i + 1) % 64, Val: 1}
		i++
		if err := ex.ExecBatch(ops, nil); err != nil {
			t.Fatal(err)
		}
	}
	for range 256 {
		batch()
	}
	if allocs := testing.AllocsPerRun(512, batch); allocs != 0 {
		t.Errorf("a warm two-add transaction allocates %.0f objects, want 0", allocs)
	}
	var hits uint64
	for _, m := range st.(obs.MetricsSnapshotter).MetricsSnapshot() {
		if m.Name == "pool_hits" {
			hits = m.Value
		}
	}
	if hits == 0 {
		t.Error("the executor's Tx counted no pool hits")
	}
}
