package store

import (
	"maps"
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
// write, and on a pooled store everything the second chunk replaced or
// unlinked has been retired into the pools by the time Load returns.
func TestLoadEverySystem(t *testing.T) {
	for _, spec := range append(Systems.Names(), "medley-hash@4", "medley-skip-nopool") {
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
			if sys, ok := st.(*System); ok && sys.mgr != nil && sys.mgr.PoolingEnabled() {
				if n := counter("pool_retires") - retires; n < uint64(len(over)) {
					t.Errorf("the second load retired %d blocks into the pools, want at least one per op (%d)", n, len(over))
				}
			}
		})
	}
}
