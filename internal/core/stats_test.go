package core

import "testing"

// TestShardStatsAttributesWorkPerWorker checks that the sharded counters
// both attribute work to the registering worker and aggregate to the same
// totals Stats always reported.
func TestShardStatsAttributesWorkPerWorker(t *testing.T) {
	mgr := NewTxManager()
	obj := newWord(0)
	tx1 := mgr.Register()
	tx2 := mgr.Register()

	for i := 0; i < 5; i++ {
		if err := tx1.Run(func() error {
			v, w := obj.NbtcLoad(tx1)
			tx1.AddToReadSet(w)
			obj.NbtcCAS(tx1, v, uint32(i), true, true)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		_ = tx2.Run(func() error {
			tx2.Abort()
			return nil
		})
	}

	shards := mgr.ShardStats()
	if len(shards) != 2 {
		t.Fatalf("want 2 shards, got %d", len(shards))
	}
	if shards[0].Commits != 5 || shards[0].Aborts != 0 {
		t.Fatalf("worker 1 shard wrong: %+v", shards[0])
	}
	if shards[1].Commits != 0 || shards[1].Aborts != 3 {
		t.Fatalf("worker 2 shard wrong: %+v", shards[1])
	}

	total := mgr.Stats()
	if total.Begins != 8 || total.Commits != 5 || total.Aborts != 3 {
		t.Fatalf("aggregate wrong: %+v", total)
	}
	var sum Stats
	for _, s := range shards {
		sum.add(s)
	}
	if sum != total {
		t.Fatalf("shard sum %+v != Stats %+v", sum, total)
	}
}
