package harness

import (
	"testing"

	"medley/internal/cdc"
	"medley/internal/kv"
)

// feedSystem builds a transactional KVSystem with a change feed attached to
// one executor, returning both plus the executor.
func feedSystem(t *testing.T) (*KVSystem, *cdc.Feed, kv.Executor) {
	t.Helper()
	sys, err := NewSystem("medley-hash@2", SystemOpts{Buckets: 1 << 8, KeyRange: 1 << 12})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	ks, ok := sys.(*KVSystem)
	if !ok || !ks.SupportsChangeFeed() {
		t.Fatalf("medley-hash does not support change feeds")
	}
	f := cdc.New(2, 1<<10, nil)
	ex := ks.NewExecutor()
	if !ex.(interface{ SetChangeFeed(*cdc.Feed) bool }).SetChangeFeed(f) {
		t.Fatal("SetChangeFeed refused on transactional executor")
	}
	return ks, f, ex
}

func feedEntries(t *testing.T, f *cdc.Feed) []cdc.Entry {
	t.Helper()
	var out []cdc.Entry
	buf := make([]cdc.Entry, 64)
	for s := 0; s < f.ShardCount(); s++ {
		from := uint64(1)
		for {
			got, err := f.ReadFrom(s, from, buf)
			if err != nil {
				t.Fatalf("ReadFrom: %v", err)
			}
			if len(got) == 0 {
				break
			}
			out = append(out, got...)
			from = got[len(got)-1].Seq + 1
		}
	}
	return out
}

func TestFeedTapPublishesCommittedBatches(t *testing.T) {
	_, f, ex := feedSystem(t)
	ops := []kv.Op{
		{Kind: kv.OpPut, Key: 1, Val: 10},
		{Kind: kv.OpPut, Key: 2, Val: 20},
	}
	if err := ex.ExecBatch(ops, nil); err != nil {
		t.Fatalf("ExecBatch: %v", err)
	}
	entries := feedEntries(t, f)
	if len(entries) != 2 {
		t.Fatalf("entries = %v, want 2", entries)
	}
	vals := map[uint64]uint64{}
	var txid uint64
	for _, e := range entries {
		vals[e.Key] = e.Val
		if txid == 0 {
			txid = e.TxID
		} else if e.TxID != txid {
			t.Fatalf("one batch split across tickets: %v", entries)
		}
	}
	if vals[1] != 10 || vals[2] != 20 {
		t.Fatalf("feed values = %v", vals)
	}
}

func TestFeedTapAddPublishesAbsoluteValue(t *testing.T) {
	_, f, ex := feedSystem(t)
	if err := ex.ExecBatch([]kv.Op{{Kind: kv.OpPut, Key: 9, Val: 100}}, nil); err != nil {
		t.Fatalf("put: %v", err)
	}
	// res == nil: the executor must still capture the post-value for the feed.
	if err := ex.ExecBatch([]kv.Op{{Kind: kv.OpAdd, Key: 9, Val: 5}}, nil); err != nil {
		t.Fatalf("add: %v", err)
	}
	entries := feedEntries(t, f)
	last := entries[len(entries)-1]
	if last.Key != 9 || last.Val != 105 {
		t.Fatalf("add entry = %+v, want absolute post-value 105", last)
	}
}

func TestFeedTapDeleteTombstone(t *testing.T) {
	_, f, ex := feedSystem(t)
	_ = ex.ExecBatch([]kv.Op{{Kind: kv.OpPut, Key: 3, Val: 30}}, nil)
	_ = ex.ExecBatch([]kv.Op{{Kind: kv.OpDelete, Key: 3}}, nil)
	entries := feedEntries(t, f)
	last := entries[len(entries)-1]
	if last.Key != 3 || !last.Del {
		t.Fatalf("delete entry = %+v, want tombstone", last)
	}
}

func TestFeedTapReadOnlyPublishesNothing(t *testing.T) {
	_, f, ex := feedSystem(t)
	res := make([]kv.Result, 1)
	if err := ex.ExecBatch([]kv.Op{{Kind: kv.OpGet, Key: 42}}, res); err != nil {
		t.Fatalf("get: %v", err)
	}
	if st := f.Stats(); st.Drawn != 0 || st.Entries != 0 {
		t.Fatalf("read-only batch touched feed: %+v", st)
	}
}

// TestFeedTapReplayConvergence is the end-to-end correctness claim: replay
// a fuzzy snapshot + feed suffix into a fresh map and diff against the
// store's final state.
func TestFeedTapReplayConvergence(t *testing.T) {
	ks, f, ex := feedSystem(t)
	// A write mix with overwrites, deletes and adds.
	for i := 0; i < 400; i++ {
		k := uint64(i % 64)
		var op kv.Op
		switch i % 5 {
		case 0, 1:
			op = kv.Op{Kind: kv.OpPut, Key: k, Val: uint64(i)}
		case 2:
			op = kv.Op{Kind: kv.OpAdd, Key: k, Val: 3}
		case 3:
			op = kv.Op{Kind: kv.OpDelete, Key: k}
		case 4:
			op = kv.Op{Kind: kv.OpPut, Key: k + 1000, Val: uint64(i)}
		}
		if err := ex.ExecBatch([]kv.Op{op}, nil); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}

	// Fuzzy-snapshot protocol: record heads BEFORE scanning state.
	heads := f.Heads()
	replica := map[uint64]uint64{}
	ks.StateSnapshot(func(key, val uint64) bool {
		replica[key] = val
		return true
	})
	// Replay each shard from head+1 (last-writer-wins; absolute values).
	buf := make([]cdc.Entry, 64)
	for s := 0; s < f.ShardCount(); s++ {
		from := heads[s] + 1
		for {
			got, err := f.ReadFrom(s, from, buf)
			if err != nil {
				t.Fatalf("replay shard %d: %v", s, err)
			}
			if len(got) == 0 {
				break
			}
			for _, e := range got {
				if e.Del {
					delete(replica, e.Key)
				} else {
					replica[e.Key] = e.Val
				}
			}
			from = got[len(got)-1].Seq + 1
		}
	}

	leader := map[uint64]uint64{}
	ks.StateSnapshot(func(key, val uint64) bool {
		leader[key] = val
		return true
	})
	for k, v := range leader {
		if rv, ok := replica[k]; !ok || rv != v {
			t.Fatalf("replica diverges at key %d: leader %d, replica %d (present=%v)", k, v, rv, ok)
		}
	}
	for k := range replica {
		if _, ok := leader[k]; !ok {
			t.Fatalf("replica leaked key %d", k)
		}
	}
}
