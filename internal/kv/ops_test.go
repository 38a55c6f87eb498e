package kv

import (
	"math/rand"
	"reflect"
	"testing"

	"medley/internal/core"
)

// applyEnv builds an 8-shard store and a single instance over one manager,
// so Apply on a store that routes by key can be checked against Apply on
// one structure.
func applyEnv(t *testing.T) (*core.TxManager, *ShardedStore, TxMap) {
	t.Helper()
	mgr := core.NewTxManager()
	sharded, err := NewShardedNamed("hash", 8, Options{Mgr: mgr, Buckets: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	single, err := New("hash", Options{Mgr: mgr, Buckets: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return mgr, sharded, single
}

// TestApplySemantics pins the Op/Result contract on a sharded store and
// on a single instance: Get/Put/Delete results,
// Add's fetch-and-add with wraparound debits, and Scan's entry count.
func TestApplySemantics(t *testing.T) {
	mgr, sharded, single := applyEnv(t)
	for name, m := range map[string]TxMap{"sharded": sharded, "single": single} {
		tx := mgr.Register()
		ops := []Op{
			{Kind: OpPut, Key: 1, Val: 100},
			{Kind: OpPut, Key: 2, Val: 50},
			{Kind: OpGet, Key: 1},
			{Kind: OpAdd, Key: 1, Val: ^uint64(0) - 29}, // -30
			{Kind: OpAdd, Key: 2, Val: 30},
			{Kind: OpDelete, Key: 3},
			{Kind: OpGet, Key: 404},
		}
		res := make([]Result, len(ops))
		if err := tx.RunRetry(func() error {
			Apply(tx, m, ops, res)
			return nil
		}); err != nil {
			t.Fatalf("%s: apply: %v", name, err)
		}
		if res[2].Val != 100 || !res[2].Ok {
			t.Fatalf("%s: get after put = %+v", name, res[2])
		}
		if res[3].Val != 70 || !res[3].Ok {
			t.Fatalf("%s: add -30 = %+v, want 70", name, res[3])
		}
		if res[4].Val != 80 {
			t.Fatalf("%s: add +30 = %+v, want 80", name, res[4])
		}
		if res[5].Ok {
			t.Fatalf("%s: delete of absent key reported ok", name)
		}
		if res[6].Ok {
			t.Fatalf("%s: get of absent key reported ok", name)
		}
		// Scans run outside transactions (see OpScan): apply with a nil tx
		// after commit, the way Executor implementations hoist them.
		scan := []Op{{Kind: OpScan, Val: 2}}
		sres := make([]Result, 1)
		Apply(nil, m, scan, sres)
		if sres[0].Val != 2 || !sres[0].Ok {
			t.Fatalf("%s: scan visited %+v entries, want 2", name, sres[0])
		}
		v, ok := m.Get(nil, 1)
		if !ok || v != 70 {
			t.Fatalf("%s: committed value = %d,%v, want 70", name, v, ok)
		}
	}
}

// TestApplyShardRoutingMatchesLoop is the differential test of "a batch
// runs in request order on whatever map it is handed": random batches —
// duplicate keys, Adds, Deletes, interleaved Scans, lengths on both sides
// of 64 (where a shard-grouping pass once changed strategy) — must give
// identical Result slices and identical final contents on a single hash
// instance, an 8-shard store, and the Bind view of another 8-shard store.
// Scan-free batches run as one transaction; batches with scans run with a
// nil Tx, the way executors hoist them (see OpScan).
func TestApplyShardRoutingMatchesLoop(t *testing.T) {
	mgr, sharded, single := applyEnv(t)
	other, err := NewShardedNamed("hash", 8, Options{Mgr: mgr, Buckets: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	tx := mgr.Register()
	maps := []struct {
		name string
		m    TxMap
	}{{"single", single}, {"sharded", sharded}, {"bound", Bind(other, tx)}}

	r := rand.New(rand.NewSource(18))
	const keySpace = 96 // small: every longer batch repeats keys
	for _, n := range []int{1, 2, 10, 64, 65, 200} {
		for _, scans := range []bool{false, true} {
			kinds := []OpKind{OpGet, OpPut, OpDelete, OpAdd}
			if scans {
				kinds = append(kinds, OpScan)
			}
			ops := make([]Op, n)
			for i := range ops {
				ops[i] = Op{Kind: kinds[r.Intn(len(kinds))], Key: uint64(r.Intn(keySpace)), Val: uint64(r.Intn(2 * keySpace))}
			}
			var want []Result
			for _, c := range maps {
				res := make([]Result, n)
				if scans {
					Apply(nil, c.m, ops, res)
				} else if err := tx.RunRetry(func() error {
					Apply(tx, c.m, ops, res)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = res
					continue
				}
				for i := range res {
					if res[i] != want[i] {
						t.Fatalf("n=%d scans=%v op %d %+v: %s %+v != %s %+v",
							n, scans, i, ops[i], c.name, res[i], maps[0].name, want[i])
					}
				}
			}
		}
	}
	contents := func(m TxMap) map[uint64]uint64 {
		out := map[uint64]uint64{}
		m.Range(func(k, v uint64) bool { out[k] = v; return true })
		return out
	}
	want := contents(maps[0].m)
	if len(want) == 0 {
		t.Fatal("final contents empty: the batches exercised nothing")
	}
	for _, c := range maps[1:] {
		if got := contents(c.m); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s final contents differ from %s:\n got %v\nwant %v", c.name, maps[0].name, got, want)
		}
	}
}

// TestApplyAtomicTransfer expresses a transfer as two Adds and checks a
// concurrent reader never sees a torn intermediate across shards.
func TestApplyAtomicTransfer(t *testing.T) {
	mgr, sharded, _ := applyEnv(t)
	sharded.Put(nil, 10, 1000)
	sharded.Put(nil, 11, 1000)
	done := make(chan struct{})
	go func() {
		defer close(done)
		tx := mgr.Register()
		for i := 0; i < 2000; i++ {
			_ = tx.RunRetry(func() error {
				Apply(tx, sharded, []Op{
					{Kind: OpAdd, Key: 10, Val: ^uint64(0)}, // -1
					{Kind: OpAdd, Key: 11, Val: 1},
				}, nil)
				return nil
			})
		}
	}()
	tx := mgr.Register()
	ops := []Op{{Kind: OpGet, Key: 10}, {Kind: OpGet, Key: 11}}
	res := make([]Result, 2)
	for i := 0; i < 2000; i++ {
		_ = tx.RunRetry(func() error {
			Apply(tx, sharded, ops, res)
			return nil
		})
		if sum := res[0].Val + res[1].Val; sum != 2000 {
			t.Fatalf("torn transfer observed: %d + %d = %d", res[0].Val, res[1].Val, sum)
		}
	}
	<-done
}
