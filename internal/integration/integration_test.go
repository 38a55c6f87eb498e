// Package integration exercises whole-system behavior across modules:
// transactions spanning every structure type, persistence under concurrent
// load, and the statistics plumbing.
package integration

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"medley/internal/core"
	"medley/internal/ebr"
	"medley/internal/montage"
	"medley/internal/structures/fraserskip"
	"medley/internal/structures/mhash"
	"medley/internal/structures/msqueue"
	"medley/internal/structures/nmbst"
	"medley/internal/structures/rotatingskip"
)

// TestFiveStructureTransaction composes one transaction across all five
// NBTC-transformed structure types and checks atomicity both ways.
func TestFiveStructureTransaction(t *testing.T) {
	mgr := core.NewTxManager()
	ht := mhash.NewMap[uint64](mgr, 256)
	sk := fraserskip.New[uint64](mgr)
	rt := rotatingskip.New[uint64](mgr)
	bt := nmbst.New[uint64](mgr)
	q := msqueue.New[uint64](mgr)
	tx := mgr.Register()

	err := tx.RunRetry(func() error {
		ht.Put(tx, 1, 11)
		sk.Put(tx, 2, 22)
		rt.Put(tx, 3, 33)
		bt.Put(tx, 4, 44)
		q.Enqueue(tx, 55)
		return nil
	})
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	for _, check := range []struct {
		name string
		got  uint64
		ok   bool
		want uint64
	}{
		{"ht", first(ht.Get(nil, 1)), second(ht.Get(nil, 1)), 11},
		{"sk", first(sk.Get(nil, 2)), second(sk.Get(nil, 2)), 22},
		{"rt", first(rt.Get(nil, 3)), second(rt.Get(nil, 3)), 33},
		{"bt", first(bt.Get(nil, 4)), second(bt.Get(nil, 4)), 44},
	} {
		if !check.ok || check.got != check.want {
			t.Fatalf("%s = %d,%v want %d", check.name, check.got, check.ok, check.want)
		}
	}
	if v, ok := q.Peek(nil); !ok || v != 55 {
		t.Fatalf("queue = %d,%v", v, ok)
	}

	// All-or-nothing on abort.
	_ = tx.Run(func() error {
		ht.Remove(tx, 1)
		sk.Remove(tx, 2)
		rt.Remove(tx, 3)
		bt.Remove(tx, 4)
		q.Dequeue(tx)
		tx.Abort()
		return nil
	})
	if !second(ht.Get(nil, 1)) || !second(sk.Get(nil, 2)) ||
		!second(rt.Get(nil, 3)) || !second(bt.Get(nil, 4)) || q.Len() != 1 {
		t.Fatal("aborted five-structure transaction leaked")
	}
}

func first(v uint64, _ bool) uint64 { return v }
func second(_ uint64, ok bool) bool { return ok }

// TestWorkQueuePipeline models the paper's motivating composition: move a
// task from a queue into a map ("claim") atomically; under concurrency no
// task is lost or claimed twice.
func TestWorkQueuePipeline(t *testing.T) {
	mgr := core.NewTxManager()
	pending := msqueue.New[uint64](mgr)
	claimed := mhash.NewMap[uint64](mgr, 512)
	const tasks = 300
	for i := uint64(0); i < tasks; i++ {
		pending.Enqueue(nil, i)
	}
	var wg sync.WaitGroup
	errEmpty := errors.New("empty")
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			tx := mgr.Register()
			for {
				err := tx.RunRetry(func() error {
					task, ok := pending.Dequeue(tx)
					if !ok {
						return errEmpty
					}
					if !claimed.Insert(tx, task, id) {
						t.Errorf("task %d claimed twice", task)
					}
					return nil
				})
				if errors.Is(err, errEmpty) {
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	if pending.Len() != 0 {
		t.Fatalf("%d tasks stranded", pending.Len())
	}
	if claimed.Len() != tasks {
		t.Fatalf("claimed %d tasks, want %d", claimed.Len(), tasks)
	}
}

// TestPersistentAndTransientMix runs a transaction touching a txMontage
// persistent store AND a transient Medley map; crash recovery keeps the
// persistent part consistent with itself.
func TestPersistentAndTransientMix(t *testing.T) {
	sys := montage.NewSystem(montage.Config{RegionWords: 1 << 18})
	mgr := core.NewTxManager()
	durable := montage.NewPStore[uint64](sys,
		mhash.NewMap[montage.Entry[uint64]](mgr, 256), montage.U64Codec())
	cache := mhash.NewMap[uint64](mgr, 256) // transient index next to it

	tx := mgr.Register()
	h := sys.Wrap(tx)
	if err := tx.RunRetry(func() error {
		durable.Put(h, 1, 100)
		durable.Put(h, 2, 200)
		cache.Put(tx, 1, 100)
		cache.Put(tx, 2, 200)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sys.Sync()
	_ = tx.RunRetry(func() error {
		durable.Put(h, 1, 101)
		cache.Put(tx, 1, 101)
		return nil
	}) // unsynced: will be lost together with nothing else

	rec := sys.CrashAndRecover()
	got := map[uint64]uint64{}
	for _, r := range rec {
		got[r.Key] = r.Data[0]
	}
	if got[1] != 100 || got[2] != 200 || len(got) != 2 {
		t.Fatalf("recovered %v, want {1:100 2:200}", got)
	}
}

// TestStatsPlumbing checks that manager statistics reflect a mixed
// workload plausibly across modules. Pooling is enabled so the EBR domain
// sees real retire traffic: fraserskip recycles its link cells through the
// workers' arenas (its nodes stay GC-reclaimed by design — see the node
// audit note in the package).
func TestStatsPlumbing(t *testing.T) {
	mgr := core.NewTxManager()
	mgr.EnablePooling()
	sk := fraserskip.New[uint64](mgr)
	smr := ebr.New(16)
	var wg sync.WaitGroup
	handles := make([]*ebr.Handle, 3)
	for g := range handles {
		wg.Add(1)
		h := smr.Register()
		handles[g] = h
		go func(seed int64) {
			defer wg.Done()
			tx := mgr.Register()
			tx.SetSMR(h)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				h.Enter()
				_ = tx.RunRetry(func() error {
					k := uint64(rng.Intn(64))
					sk.Put(tx, k, k)
					sk.Remove(tx, (k+3)%64)
					return nil
				})
				h.Exit()
			}
		}(int64(g) + 2)
	}
	wg.Wait()
	// Drain skips the grace period, so it waits until every worker is done:
	// a worker draining while another still ran recycled cells under it.
	for _, h := range handles {
		h.Drain()
	}
	st := mgr.Stats()
	if st.Commits != 1200 {
		t.Fatalf("commits = %d, want 1200", st.Commits)
	}
	if st.Begins != st.Commits+st.Aborts {
		t.Fatalf("accounting: %+v", st)
	}
	es := smr.Stats()
	if es.Retired == 0 || es.Reclaimed != es.Retired {
		t.Fatalf("ebr stats: %+v", es)
	}
}

// TestOpacityValidateReads exercises the paper's optional mid-transaction
// validation across structures.
func TestOpacityValidateReads(t *testing.T) {
	mgr := core.NewTxManager()
	ht := mhash.NewMap[uint64](mgr, 64)
	ht.Put(nil, 1, 10)
	tx := mgr.Register()
	_ = tx.Run(func() error {
		if _, ok := ht.Get(tx, 1); !ok {
			t.Fatal("get failed")
		}
		if !tx.ValidateReads() {
			t.Fatal("fresh read invalid")
		}
		ht.Put(nil, 1, 11) // external commit invalidates
		if tx.ValidateReads() {
			t.Fatal("stale read validated")
		}
		tx.Abort()
		return nil
	})
}
