package store

import (
	"math/bits"
	"time"

	"medley/internal/core"
	"medley/internal/kv"
	"medley/internal/montage"
	"medley/internal/obs"
	"medley/internal/structures/fraserskip"
	"medley/internal/structures/mhash"
)

// MontageSystem is txMontage (or its persistence-off NVM variant)
// over any registry index structure, optionally hash-partitioned into
// several PStores sharing one montage System and one TxManager (so
// cross-shard transactions remain strictly serializable and epoch
// validation is paid once per transaction).
type MontageSystem struct {
	name       string
	mgr        *core.TxManager
	sys        *montage.System
	stores     []*montage.PStore[uint64]
	persistOff bool
	advEvery   time.Duration
	skiplist   bool // index kind, needed to rebuild after a crash
	buckets    int
}

// MontageOpts selects the txMontage variant.
type MontageOpts struct {
	Skiplist         bool // index: skiplist (Fig. 8) vs hash (Fig. 7)
	Buckets          int
	Shards           int // PStore shards over one System (default 1)
	RegionWords      int
	WriteBackLatency time.Duration // per line, models clwb on Optane
	FenceLatency     time.Duration
	StoreLatency     time.Duration // per payload word store (NVM media)
	PersistOff       bool          // Figure 10b: payloads on NVM, no epochs
	AdvanceEvery     time.Duration // epoch length (paper: ~10-100ms)
}

// DefaultAdvanceEvery is the txMontage epoch length when none is given.
const DefaultAdvanceEvery = 20 * time.Millisecond

// NewMontage creates a txMontage system.
func NewMontage(o MontageOpts) *MontageSystem {
	if o.RegionWords == 0 {
		o.RegionWords = 1 << 26
	}
	if o.AdvanceEvery == 0 {
		o.AdvanceEvery = DefaultAdvanceEvery
	}
	// The worker-side kv.NewSharded and the recovery-side kv.ShardOf
	// both assume power-of-two counts; stores are sized here, before
	// the workers exist, so round the same way.
	o.Shards = kv.RoundShards(o.Shards)
	mgr := core.NewTxManager()
	sys := montage.NewSystem(montage.Config{
		RegionWords:      o.RegionWords,
		WriteBackLatency: o.WriteBackLatency,
		FenceLatency:     o.FenceLatency,
		StoreLatency:     o.StoreLatency,
	})
	name := "txMontage-hash"
	if o.Skiplist {
		name = "txMontage-skip"
	} else if o.Buckets <= 0 {
		o.Buckets = 1 << 20
	}
	if o.PersistOff {
		name += "-persistOff"
	}
	s := &MontageSystem{
		name: name, mgr: mgr, sys: sys,
		persistOff: o.PersistOff,
		advEvery:   o.AdvanceEvery,
		skiplist:   o.Skiplist,
		buckets:    o.Buckets,
	}
	s.stores = s.newStores(o.Shards)
	s.name = ShardedName(s.name, o.Shards)
	return s
}

// newIndex builds one fresh transient index. The montage index holds
// Entry values, not bare uint64s, so it comes from the structure packages
// directly rather than the uint64 registry — and is told, as
// kv.NewShardedNamed tells a registry shard, how many hash bits kv.ShardOf
// spends routing to one of shards stores.
func (s *MontageSystem) newIndex(shards int) montage.Index[montage.Entry[uint64]] {
	if s.skiplist {
		return fraserskip.New[montage.Entry[uint64]](s.mgr)
	}
	return mhash.NewMapShard[montage.Entry[uint64]](s.mgr, s.buckets, uint(bits.Len(uint(shards-1))))
}

// newStores builds n fresh persistent stores over fresh indices (used at
// construction and again after a crash). Like kv.NewShardedNamed, each
// shard's index is provisioned like a full instance.
func (s *MontageSystem) newStores(n int) []*montage.PStore[uint64] {
	stores := make([]*montage.PStore[uint64], n)
	for i := range stores {
		stores[i] = montage.NewPStore[uint64](s.sys, s.newIndex(n), montage.U64Codec())
	}
	return stores
}

// ShardCount reports the number of PStores.
func (s *MontageSystem) ShardCount() int { return len(s.stores) }

// CanRecover implements harness.Recoverable: the persistence-off variant
// keeps its payloads on NVM but never epoch-tags or writes them back, so
// nothing survives a crash.
func (s *MontageSystem) CanRecover() bool { return !s.persistOff }

// Persist implements harness.Recoverable: one epoch sync makes everything
// committed so far durable.
func (s *MontageSystem) Persist() {
	if !s.persistOff {
		s.sys.Sync()
	}
}

// CrashAndRecover implements harness.Recoverable: crash the region, scan the
// persisted payloads, and rebuild the transient indices from them —
// exactly the post-restart recovery path of nbMontage. With shards, each
// payload is routed to its shard by the same hash live traffic uses.
func (s *MontageSystem) CrashAndRecover() int {
	if s.persistOff {
		return 0
	}
	payloads := s.sys.CrashAndRecover()
	n := len(s.stores)
	parts := make([][]montage.Recovered, n)
	for _, r := range payloads {
		i := kv.ShardOf(r.Key, n)
		parts[i] = append(parts[i], r)
	}
	for i := range s.stores {
		s.stores[i] = montage.RebuildPStore(s.sys, s.newIndex(n), montage.U64Codec(), parts[i])
	}
	return len(payloads)
}

// StateSnapshot iterates the live store, shard by shard: exact at a
// quiescent point, where the crash verifier and VerifyFinal call it, and
// served as /v1/snapshot by a node.
func (s *MontageSystem) StateSnapshot(fn func(key, val uint64) bool) {
	live := true
	for i := 0; live && i < len(s.stores); i++ {
		s.stores[i].Range(func(k, v uint64) bool {
			live = fn(k, v)
			return live
		})
	}
}

// Name reports the configuration as benchmark reports spell it.
func (s *MontageSystem) Name() string { return s.name }

// Manager exposes the TxManager for statistics.
func (s *MontageSystem) Manager() *core.TxManager { return s.mgr }

// TxStats reports cumulative commits and aborts from the manager's sharded
// counters.
func (s *MontageSystem) TxStats() (commits, aborts uint64) {
	st := s.mgr.Stats()
	return st.Commits, st.Aborts
}

// MetricsSnapshot implements obs.MetricsSnapshotter from the shared manager's
// counters.
func (s *MontageSystem) MetricsSnapshot() []obs.Metric { return obs.TxCounters(s.mgr.Stats()) }

// Start runs the epoch advancer.
func (s *MontageSystem) Start() (stop func()) {
	if s.persistOff {
		return func() {}
	}
	return s.sys.StartAdvancer(s.advEvery)
}

// Preload inserts the initial key-value pairs, one transaction each.
func (s *MontageSystem) Preload(keys []uint64) {
	w := s.newWorker()
	for _, k := range keys {
		key := k
		_ = w.tx.RunRetry(func() error {
			w.m.Put(w.tx, key, key)
			return nil
		})
	}
	if !s.persistOff {
		s.sys.Sync()
	}
}

// newWorker builds an executor: one epoch handle per worker serves every
// shard, bound through the same worker loop System uses.
func (s *MontageSystem) newWorker() *worker {
	tx := s.mgr.Register()
	var h *montage.Handle
	if s.persistOff {
		h = s.sys.WrapTransient(tx)
	} else {
		h = s.sys.Wrap(tx)
	}
	var m kv.TxMap
	if len(s.stores) == 1 {
		m = kv.NewMontageMap(s.sys, s.stores[0]).BindHandle(h)
	} else {
		m = kv.NewSharded(len(s.stores), func(i int) kv.TxMap {
			return kv.NewMontageMap(s.sys, s.stores[i]).BindHandle(h)
		})
	}
	return &worker{m: m, tx: tx}
}

// NewExecutor hands out a fresh executor on the epoch-wrapped
// transactional path: the one seam of medleyd's workers and the harness
// engine, which is what lets medleyd serve a durable, crash-recoverable
// store.
func (s *MontageSystem) NewExecutor() kv.Executor { return s.newWorker() }

// SupportsChangeFeed reports that Montage executors can publish a
// commit-ordered change feed: they are workers over a real Tx.
func (s *MontageSystem) SupportsChangeFeed() bool { return true }
