package store

import (
	"math/bits"
	"time"

	"medley/internal/core"
	"medley/internal/ebr"
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
	smr        *ebr.Manager // grace periods for the hash index's node slots
	sys        *montage.System
	stores     []*montage.PStore[uint64]
	persistOff bool
	skiplist   bool // index kind, needed to rebuild after a crash
	buckets    int
}

// DefaultAdvanceEvery is the txMontage epoch length (the paper's epochs
// run ~10-100 ms).
const DefaultAdvanceEvery = 20 * time.Millisecond

// newMontage builds txMontage from its spec: the skiplist (Figure 8) or
// hash (Figure 7) index, s.Shards PStores over one region sized with the
// key space, and -persistoff as the Figure 10b payloads-on-NVM variant.
func newMontage(o Opts, s Spec, skiplist bool) *MontageSystem {
	sys := montage.NewSystem(montage.Config{
		RegionWords:      o.MontageRegionWords(),
		WriteBackLatency: o.WriteBackLatency,
		FenceLatency:     o.FenceLatency,
		StoreLatency:     o.StoreLatency,
	})
	m := &MontageSystem{name: "txMontage-hash", mgr: core.NewTxManager(), smr: ebr.New(256), sys: sys,
		persistOff: s.Off["persistoff"], skiplist: skiplist, buckets: o.Buckets}
	if skiplist {
		m.name = "txMontage-skip"
	} else if m.buckets <= 0 {
		m.buckets = 1 << 20
	}
	if m.persistOff {
		m.name += "-persistOff"
	}
	// The worker-side kv.NewSharded and the recovery-side kv.ShardOf
	// both assume power-of-two counts; stores are sized here, before
	// the workers exist, so round the same way.
	m.stores = m.newStores(kv.RoundShards(s.Shards))
	m.name = ShardedName(m.name, len(m.stores))
	return m
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
	return s.sys.StartAdvancer(DefaultAdvanceEvery)
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
// shard, bound through the same worker loop System uses. Its EBR handle
// lets a hash index reuse the node slots the worker unlinks; cells are not
// pooled.
func (s *MontageSystem) newWorker() *worker {
	tx := s.mgr.Register()
	eh := s.smr.Register()
	tx.SetSMR(eh)
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
	return &worker{m: m, tx: tx, h: eh, mh: h}
}

// NewExecutor hands out a fresh executor on the epoch-wrapped
// transactional path: the one seam of medleyd's workers and the harness
// engine, which is what lets medleyd serve a durable, crash-recoverable
// store.
func (s *MontageSystem) NewExecutor() kv.Executor { return s.newWorker() }

// SupportsChangeFeed reports that Montage executors can publish a
// commit-ordered change feed: they are workers over a real Tx.
func (s *MontageSystem) SupportsChangeFeed() bool { return true }
