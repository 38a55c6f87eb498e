package kv

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"medley/internal/core"
)

// TestCrossShardTransferAtomicity is the sharded-store counterpart of the
// paper's composition claim: concurrent transfers between accounts that
// live on different shards, with concurrent auditors summing every
// account transactionally. The total is invariant; a half-applied
// transfer would break it.
func TestCrossShardTransferAtomicity(t *testing.T) {
	const (
		accounts  = 64
		initial   = 1000
		movers    = 4
		transfers = 2000
	)
	mgr := core.NewTxManager()
	s, err := NewShardedNamed("hash", 8, Options{Mgr: mgr, Buckets: 1 << 8})
	if err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < accounts; a++ {
		s.Put(nil, a, initial)
	}
	var stop atomic.Bool
	var moverWG, auditWG sync.WaitGroup
	for w := 0; w < movers; w++ {
		w := w
		moverWG.Add(1)
		go func() {
			defer moverWG.Done()
			tx := mgr.Register()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < transfers; i++ {
				from := uint64(r.Intn(accounts))
				to := uint64(r.Intn(accounts))
				if from == to {
					to = (to + 1) % accounts
				}
				amount := uint64(r.Intn(5))
				err := tx.RunRetry(func() error {
					fv, _ := s.Get(tx, from)
					if fv < amount {
						return nil // insufficient: commit without effect
					}
					tv, _ := s.Get(tx, to)
					s.Put(tx, from, fv-amount)
					s.Put(tx, to, tv+amount)
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Auditors run transactional full sums while transfers are in flight:
	// strict serializability means every committed read snapshot balances.
	auditors := 2
	for w := 0; w < auditors; w++ {
		auditWG.Add(1)
		go func() {
			defer auditWG.Done()
			tx := mgr.Register()
			for !stop.Load() {
				var sum uint64
				err := tx.RunRetry(func() error {
					sum = 0
					for a := uint64(0); a < accounts; a++ {
						v, ok := s.Get(tx, a)
						if !ok {
							t.Errorf("account %d missing", a)
							return nil
						}
						sum += v
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if sum != accounts*initial {
					t.Errorf("observed half-applied transfer: sum %d, want %d", sum, accounts*initial)
					return
				}
			}
		}()
	}
	moverWG.Wait()
	stop.Store(true)
	auditWG.Wait()
	// Final ground-truth check.
	var sum uint64
	s.Range(func(_, v uint64) bool { sum += v; return true })
	if sum != accounts*initial {
		t.Fatalf("final sum %d, want %d", sum, accounts*initial)
	}
}

// TestBatchOpsMatchSingleOps checks that a batch of Puts and a batch of
// Gets through Apply give the per-key results, and that batched writes
// land on the same shards single writes would.
func TestBatchOpsMatchSingleOps(t *testing.T) {
	mgr := core.NewTxManager()
	s, err := NewShardedNamed("hash", 4, Options{Mgr: mgr, Buckets: 1 << 8})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	puts := make([]Op, 48)
	gets := make([]Op, len(puts))
	for i := range puts {
		puts[i] = Op{Kind: OpPut, Key: uint64(r.Intn(1 << 10)), Val: r.Uint64() % 1000}
		gets[i] = Op{Kind: OpGet, Key: puts[i].Key}
	}
	tx := mgr.Register()
	got := make([]Result, len(gets))
	for _, b := range []struct {
		ops []Op
		res []Result
	}{{puts, nil}, {gets, got}} {
		if err := tx.RunRetry(func() error {
			Apply(tx, s, b.ops, b.res)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Later duplicates override earlier ones, like sequential puts.
	want := map[uint64]uint64{}
	for _, p := range puts {
		want[p.Key] = p.Val
	}
	for i, g := range gets {
		if !got[i].Ok || got[i].Val != want[g.Key] {
			t.Fatalf("key %d: batch get %+v, want %d", g.Key, got[i], want[g.Key])
		}
		if v, ok := s.Get(nil, g.Key); !ok || v != want[g.Key] {
			t.Fatalf("key %d: single get (%d,%v), want %d", g.Key, v, ok, want[g.Key])
		}
	}
}

// TestGetBatchRidesReadOnlyFastPath pins what a cross-shard snapshot
// costs: a get-only batch over a multi-shard store commits through the
// core's read-only fast path (no publication, no descriptor handshake) no
// matter how many shards it straddles — the shards share one TxManager, so
// the witnesses land in the caller's one read set and the commit is one
// owner-side validation sweep.
func TestGetBatchRidesReadOnlyFastPath(t *testing.T) {
	mgr := core.NewTxManager()
	s, err := NewShardedNamed("hash", 8, Options{Mgr: mgr, Buckets: 1 << 8})
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]Op, 32)
	touched := map[int]bool{}
	for i := range ops {
		ops[i] = Op{Kind: OpGet, Key: uint64(i * 37)}
		s.Put(nil, ops[i].Key, uint64(i))
		touched[ShardOf(ops[i].Key, s.ShardCount())] = true
	}
	if len(touched) < 2 {
		t.Fatalf("batch touches %d shard(s); the test needs a cross-shard batch", len(touched))
	}
	res := make([]Result, len(ops))
	tx := mgr.Register()
	const rounds = 5
	for r := 0; r < rounds; r++ {
		if err := tx.RunRetry(func() error {
			Apply(tx, s, ops, res)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range ops {
		if !res[i].Ok || res[i].Val != uint64(i) {
			t.Fatalf("key %d: got %+v, want %d", ops[i].Key, res[i], i)
		}
	}
	st := mgr.Stats()
	if st.ReadOnlyCommits != rounds || st.FastPathCommits != rounds {
		t.Fatalf("ReadOnlyCommits,FastPathCommits = %d,%d, want %d,%d (get-only batches must elide the handshake)",
			st.ReadOnlyCommits, st.FastPathCommits, rounds, rounds)
	}
}

// TestCrossShardBatchAtomicity moves value between shards with a two-Put
// batch inside transactions and asserts auditors never see it half
// applied.
func TestCrossShardBatchAtomicity(t *testing.T) {
	const accounts = 32
	mgr := core.NewTxManager()
	s, err := NewShardedNamed("skip", 4, Options{Mgr: mgr})
	if err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < accounts; a++ {
		s.Put(nil, a, 100)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		tx := mgr.Register()
		r := rand.New(rand.NewSource(9))
		puts := []Op{{Kind: OpPut}, {Kind: OpPut}}
		for i := 0; i < 1500; i++ {
			puts[0].Key = uint64(r.Intn(accounts))
			puts[1].Key = uint64((r.Intn(accounts) + 1) % accounts)
			if puts[0].Key == puts[1].Key {
				continue
			}
			_ = tx.RunRetry(func() error {
				a, _ := s.Get(tx, puts[0].Key)
				b, _ := s.Get(tx, puts[1].Key)
				if a == 0 {
					return nil
				}
				puts[0].Val, puts[1].Val = a-1, b+1
				Apply(tx, s, puts, nil)
				return nil
			})
		}
		close(stop)
	}()
	tx := mgr.Register()
	for audits := 0; ; audits++ {
		select {
		case <-stop:
			wg.Wait()
			var sum uint64
			s.Range(func(_, v uint64) bool { sum += v; return true })
			if sum != accounts*100 {
				t.Fatalf("final sum %d, want %d", sum, accounts*100)
			}
			return
		default:
		}
		var sum uint64
		if err := tx.RunRetry(func() error {
			sum = 0
			for a := uint64(0); a < accounts; a++ {
				v, _ := s.Get(tx, a)
				sum += v
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if sum != accounts*100 {
			t.Fatalf("audit %d saw half-applied batch: sum %d, want %d", audits, sum, accounts*100)
		}
	}
}

// TestLoadPartBitsBoundsPasses pins how many parts, and so passes over
// the keys, a Load makes: one part a shard up to maxLoadParts, and one a
// worker when workers outnumber them. A store of many shards must not
// cost a pass per shard.
func TestLoadPartBitsBoundsPasses(t *testing.T) {
	for _, c := range []struct {
		shardBits uint
		workers   int
		want      uint
	}{
		{0, 1, 0}, {0, 2, 1}, {0, 3, 2}, {3, 1, 3}, {3, 2, 3}, {3, 16, 4},
		{4, 2, 4}, {10, 2, 4}, {10, 64, 6},
	} {
		if got := loadPartBits(c.shardBits, c.workers); got != c.want {
			t.Errorf("loadPartBits(%d shard bits, %d workers) = %d, want %d", c.shardBits, c.workers, got, c.want)
		}
	}
}

// putRecorder is a shard that records the keys put into it, in order.
type putRecorder struct {
	TxMap // nil: only Put is called
	mu    sync.Mutex
	puts  []uint64
}

func (r *putRecorder) Put(_ *core.Tx, key, _ uint64) (uint64, bool) {
	r.mu.Lock()
	r.puts = append(r.puts, key)
	r.mu.Unlock()
	return 0, false
}

// TestLoadPutsWindowsInBucketOrder pins the order a Load puts keys in:
// each shard gets its keys in windows of loadWindow of them, in the
// caller's order from window to window, and within a window sorted
// stably on loadField, so a window's puts are non-decreasing in it and a
// key's repeats keep the caller's order. A loader that puts keys as the
// caller gave them, or sorts a window unstably, fails here.
func TestLoadPutsWindowsInBucketOrder(t *testing.T) {
	const shards = 8
	keys := make([]uint64, 3*shards*loadWindow+500) // three windows a shard and a partial one
	for i := range keys {
		keys[i] = uint64(i) * 0x5851F42D4C957F2D >> (64 - 14) // scrambled, most keys repeated
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		partBits := loadPartBits(3, procs)
		recs := make([]*putRecorder, shards)
		s := NewSharded(shards, func(i int) TxMap {
			recs[i] = &putRecorder{}
			return recs[i]
		})
		s.Load(keys)
		for i, rec := range recs {
			var want []uint64 // shard i's keys in the caller's order
			for _, k := range keys {
				if shardIndex(k, shards-1) == i {
					want = append(want, k)
				}
			}
			if len(rec.puts) != len(want) {
				t.Fatalf("procs=%d: shard %d got %d puts, its keys appear %d times", procs, i, len(rec.puts), len(want))
			}
			for lo := 0; lo < len(want); lo += loadWindow {
				hi := min(lo+loadWindow, len(want))
				win := slices.Clone(want[lo:hi])
				slices.SortStableFunc(win, func(a, b uint64) int {
					return int(loadField(a, partBits)) - int(loadField(b, partBits))
				})
				if got := rec.puts[lo:hi]; !slices.Equal(got, win) {
					t.Fatalf("procs=%d: shard %d puts %v…, want its window [%d, %d) stably in bucket order %v…",
						procs, i, got[:8], lo, hi, win[:8])
				}
			}
		}
	}
}

// slabShard is a shard with PutRun that takes each put's node from run,
// out of a slab of its own, as a hash shard's (mhash.Map.PutRun) does,
// and counts its puts; Put is never called.
type slabShard struct {
	TxMap // nil
	slab  core.Slab[uint64]
	puts  atomic.Int64
}

func (s *slabShard) PutRun(run *core.SlotRun, _, _ uint64) {
	s.slab.Take(run)
	s.puts.Add(1)
}

// TestLoadTakesASlotAKey bounds the node slots a Load claims from its
// shards' slabs: one a key, plus at most one unused 64-slot segment a
// worker, the tail of a run that another worker filling the same shard
// claimed past. A loader that draws a run a window, or does not give a
// run's tail back when it moves to another shard, claims more, and the
// slab, which heap_peak_mb reads, grows with it.
func TestLoadTakesASlotAKey(t *testing.T) {
	keys := make([]uint64, 1<<15)
	for i := range keys {
		keys[i] = uint64(i) * 0x5851F42D4C957F2D >> (64 - 16) // repeats: a put a key all the same
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, shards := range []int{8, 1} {
		for _, procs := range []int{1, 2, 3} {
			runtime.GOMAXPROCS(procs)
			ss := make([]*slabShard, shards)
			s := NewSharded(shards, func(i int) TxMap {
				ss[i] = &slabShard{}
				return ss[i]
			})
			s.Load(keys)
			puts, claimed := 0, 0
			for _, sh := range ss {
				puts += int(sh.puts.Load())
				var probe core.SlotRun // its first slot is the frontier's next
				claimed += int(sh.slab.Take(&probe)) - 1
			}
			if puts != len(keys) {
				t.Fatalf("%d shards, %d workers: %d PutRuns for %d keys", shards, procs, puts, len(keys))
			}
			if limit := len(keys) + procs*64; claimed > limit {
				t.Errorf("%d shards, %d workers: a load of %d keys claimed %d slots, over %d", shards, procs, len(keys), claimed, limit)
			}
		}
	}
}
