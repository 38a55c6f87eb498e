package harness

// This file is the registry-driven generic system: KVSystem drives any
// kv.TxMap (a registry structure, a ShardedStore, a non-transactional
// baseline) through one worker loop, and that same loop (kvWorker) also
// carries MontageSystem's workers. The per-structure adapter zoo this
// replaces lived in systems.go.

import (
	"runtime"
	"sync"
	"time"

	"medley/internal/cdc"
	"medley/internal/core"
	"medley/internal/ebr"
	"medley/internal/kv"
)

// --------------------------------------------------- Medley (via registry)

// KVSystem benchmarks any kv.TxMap — a registry-built structure, a
// hash-partitioned ShardedStore of them, or a non-transactional baseline —
// under one worker loop. The seven hand-rolled adapters this file once
// carried for Medley, Original and TxOff are all configurations of this
// one type.
type KVSystem struct {
	name  string
	mgr   *core.TxManager // nil for untransformed baselines
	m     kv.TxMap
	smr   *ebr.Manager
	notx  bool // run operations outside any transaction (Original/TxOff)
	shard int

	// idle holds workers released at phase barriers for reuse (see
	// WorkerReleaser in capabilities.go): a worker's recycling arenas and
	// EBR handle stay warm across phases instead of starting cold — and
	// leaking their limbo — every phase. pump is the handle Quiesce uses
	// to advance the EBR epoch at barriers; it never enters a critical
	// section or retires anything.
	mu   sync.Mutex
	idle []*kvWorker
	pump *ebr.Handle
}

// newKVSystem is the one constructor: a system over the named registry
// structure, hash-partitioned over spec.shards instances when > 1, named
// with one suffix per axis the spec switched off so every configuration
// stays distinguishable in one report. notx runs operations outside any
// transaction (Original/TxOff). Pooling is sound here because every worker
// holds its EBR handle's critical section across each transaction — see
// kvWorker.ExecBatch — and background maintenance is guarded the same way.
// -nofast forces every commit through the full descriptor handshake.
func newKVSystem(name, structure string, notx bool, buckets int, spec sysSpec) *KVSystem {
	var mgr *core.TxManager
	if kv.Composable(structure) {
		mgr = core.NewTxManager()
	}
	store, err := kv.NewShardedNamed(structure, spec.shards, kv.Options{Mgr: mgr, Buckets: buckets})
	if err != nil {
		panic(err) // registry names here are static; a failure is a bug
	}
	for _, suffix := range specSuffixes {
		if spec.off[suffix] {
			name += "-" + suffix
		}
	}
	s := &KVSystem{name: shardedName(name, store.ShardCount()), mgr: mgr,
		notx: notx, shard: store.ShardCount()}
	if store.ShardCount() == 1 {
		s.m = store.Shard(0) // no dispatch layer for single instances
	} else {
		s.m = store
	}
	if !notx && mgr != nil {
		// An advance attempt every 256 retired blocks, not retire calls: a
		// 512-put snapshot chunk attempts at its own settle, and so draws
		// the next chunk's descriptor cells from its pool.
		s.smr = ebr.New(256)
		if !spec.off["nopool"] {
			mgr.EnablePooling()
		}
		if spec.off["nofast"] {
			mgr.DisableFastPaths()
		}
	}
	return s
}

// Name implements System.
func (s *KVSystem) Name() string { return s.name }

// ShardCount implements ShardCounter.
func (s *KVSystem) ShardCount() int { return s.shard }

// Manager exposes the TxManager for statistics (nil for baselines).
func (s *KVSystem) Manager() *core.TxManager { return s.mgr }

// Map exposes the underlying store, for tests.
func (s *KVSystem) Map() kv.TxMap { return s.m }

// TxStats implements TxStatser from the manager's sharded counters.
// Baselines without a manager (Original) report zeros, matching their
// nothing-can-abort semantics.
func (s *KVSystem) TxStats() (commits, aborts uint64) {
	if s.mgr == nil {
		return 0, 0
	}
	st := s.mgr.Stats()
	return st.Commits, st.Aborts
}

// MetricsSnapshot implements MetricsSnapshotter: cumulative transaction,
// pool and EBR counters under stable statsd-style names. Systems running
// no commit protocol (Original, TxOff) export nothing, so their reports
// carry no fastpath block and an empty telemetry block.
func (s *KVSystem) MetricsSnapshot() []Metric {
	if s.notx || s.mgr == nil {
		return nil
	}
	out := txCounters(s.mgr.Stats())
	if s.smr != nil {
		es := s.smr.Stats()
		out = append(out,
			Metric{Name: "ebr_retired", Value: es.Retired},
			Metric{Name: "ebr_reclaimed", Value: es.Reclaimed},
			Metric{Name: "ebr_advances", Value: es.Advances},
		)
	}
	return out
}

// StateSnapshot implements Snapshotter for VerifyFinal scenarios: iterate
// the live store. Called only at phase barriers, where it is exact.
func (s *KVSystem) StateSnapshot(fn func(key, val uint64) bool) {
	s.m.Range(fn)
}

// guardedMaintainer is the capability of structures whose background
// maintenance must run inside an EBR critical section under pooling
// (rotating skiplist index rebuilds traverse recyclable cells).
type guardedMaintainer interface {
	StartGuardedMaintenance(interval time.Duration, guard func(func())) (stop func())
}

// Start implements System: it starts per-shard maintenance where the
// structure has any (rotating skiplist). Under pooling the maintenance
// goroutine gets its own EBR handle and brackets every rebuild with it, so
// index traversals never observe a recycled cell.
func (s *KVSystem) Start() (stop func()) {
	var stops []func()
	start := func(m kv.TxMap) {
		if s.smr != nil && s.mgr != nil && s.mgr.PoolingEnabled() {
			if gm, ok := m.(guardedMaintainer); ok {
				h := s.smr.Register()
				stops = append(stops, gm.StartGuardedMaintenance(25*time.Millisecond, func(f func()) {
					h.Enter()
					f()
					h.Exit()
				}))
				return
			}
		}
		if mt, ok := m.(maintainer); ok {
			stops = append(stops, mt.StartMaintenance(25*time.Millisecond))
		}
	}
	if sh, ok := s.m.(*kv.ShardedStore); ok {
		for i := 0; i < sh.ShardCount(); i++ {
			start(sh.Shard(i))
		}
	} else {
		start(s.m)
	}
	return func() {
		for _, f := range stops {
			f()
		}
	}
}

// Preload implements System: one contiguous range of keys per CPU, loaded
// concurrently (a Put outside a transaction is the structure's own
// lock-free insert).
func (s *KVSystem) Preload(keys []uint64) {
	n := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		part := keys[len(keys)*i/n : len(keys)*(i+1)/n]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range part {
				s.m.Put(nil, k, k)
			}
		}()
	}
	wg.Wait()
}

// kvWorker drives a bound TxMap; it is the worker of KVSystem and
// MontageSystem both, and doubles as the kv.Executor behind NewExecutor.
// Harness ops are kv batch requests and execute through kv.Apply — the
// same request-order loop the network service's tick executor uses.
type kvWorker struct {
	m  kv.TxMap
	tx *core.Tx // nil: execute outside transactions
	h  *ebr.Handle

	// Change-feed tap (SetChangeFeed): committed batches publish their
	// writes under the transaction's commit ticket. pub and feedRes are
	// publication scratch (feedRes captures OpAdd post-values when the
	// caller discards results).
	feed    *cdc.Feed
	pub     []cdc.Write
	feedRes []kv.Result
}

// NewWorker implements System: a worker released at an earlier phase
// barrier when one is available (warm arenas and handle), a fresh one
// otherwise.
func (s *KVSystem) NewWorker() Worker {
	s.mu.Lock()
	if n := len(s.idle); n > 0 {
		w := s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
		s.mu.Unlock()
		return w
	}
	s.mu.Unlock()
	return s.newWorker()
}

// ReleaseWorker implements WorkerReleaser: the engine returns each
// phase's workers at the barrier for the next phase to reuse. The engine
// quiesces first, so the handle flush here — run with barrier-exclusive
// ownership of the worker — reclaims the whole phase's retired garbage
// into the worker's freelists before the next phase starts.
func (s *KVSystem) ReleaseWorker(w Worker) {
	kw, ok := w.(*kvWorker)
	if !ok {
		return
	}
	if kw.h != nil {
		kw.h.Flush()
	}
	s.mu.Lock()
	s.idle = append(s.idle, kw)
	s.mu.Unlock()
}

// Quiesce implements Quiescer: with every worker parked at the barrier,
// pump the EBR epoch far enough (the three-epoch grace) that everything
// retired during the phase becomes reclaimable — the released workers
// then refill their freelists from it early in the next phase. Under
// load this advance starves: an oversubscribed phase always has some
// worker parked mid-transaction, holding a stale active epoch. Best
// effort — a guarded maintenance goroutine mid-rebuild just stops the
// pump early.
func (s *KVSystem) Quiesce() {
	if s.smr == nil {
		return
	}
	if s.pump == nil {
		s.pump = s.smr.Register()
	}
	for i := 0; i < 3; i++ {
		if !s.pump.TryAdvance() {
			break
		}
	}
}

// SupportsChangeFeed reports whether this system's executors can publish
// a commit-ordered change feed: the store must run real transactions
// (baselines executing outside any commit protocol have no commit order
// to tap).
func (s *KVSystem) SupportsChangeFeed() bool { return !s.notx && s.mgr != nil }

// NewExecutor implements the backend seam of the network service layer
// (internal/service): a per-goroutine kv.Executor running batch requests
// as atomic transactions over the same store, transaction registration and
// EBR guard as the benchmark workers. Call it on the goroutine that will
// execute (the Tx and handle are goroutine-bound).
func (s *KVSystem) NewExecutor() kv.Executor {
	return s.newWorker()
}

func (s *KVSystem) newWorker() *kvWorker {
	if s.notx {
		return &kvWorker{m: kv.Bind(s.m, nil)}
	}
	tx := s.mgr.Register()
	w := &kvWorker{tx: tx}
	if s.smr != nil {
		w.h = s.smr.Register()
		tx.SetSMR(w.h)
	}
	w.m = kv.Bind(s.m, tx)
	return w
}

func (w *kvWorker) Do(ops []Op) { _ = w.ExecBatch(ops, nil) }

// SetChangeFeed attaches a change feed to this executor: every committed
// batch with writes draws a commit ticket (core ticket.go) and publishes
// its writes' absolute post-states to f. It reports false — and attaches
// nothing — for workers executing outside transactions (no commit order
// exists to tap). The service layer attaches feeds through this seam on
// each worker executor.
func (w *kvWorker) SetChangeFeed(f *cdc.Feed) bool {
	if w.tx == nil {
		return false
	}
	w.feed = f
	w.tx.SetCommitTicketer(f)
	return true
}

// publishBatch publishes a just-committed batch's writes under its
// commit ticket, in op order. No ticket means no descriptor cell was
// installed (every write was a no-op, e.g. deletes of absent keys):
// nothing visible changed, nothing to replicate.
func (w *kvWorker) publishBatch(ops []kv.Op, res []kv.Result) {
	t, ok := w.tx.CommittedTicket()
	if !ok {
		return
	}
	w.pub = w.pub[:0]
	for i := range ops {
		switch ops[i].Kind {
		case kv.OpPut:
			w.pub = append(w.pub, cdc.Write{Key: ops[i].Key, Val: ops[i].Val})
		case kv.OpDelete:
			w.pub = append(w.pub, cdc.Write{Key: ops[i].Key, Del: true})
		case kv.OpAdd:
			// Absolute post-value, not the delta: replay must be
			// idempotent (see package cdc).
			w.pub = append(w.pub, cdc.Write{Key: ops[i].Key, Val: res[i].Val})
		}
	}
	w.feed.Publish(t, w.pub)
}

// ExecBatch implements kv.Executor: one atomic transaction around the
// keyed operations of the batch, conflict aborts retried internally
// (baselines without a transaction execute directly). It never fails.
//
// Scans are hoisted out of the transaction and run after it commits: Range
// is non-linearizable by contract, and its raw loads finalize any pending
// descriptor they meet — a scan inside the transaction that installed the
// descriptor would abort its own speculation on every retry and livelock.
func (w *kvWorker) ExecBatch(ops []kv.Op, res []kv.Result) error {
	if w.tx == nil {
		kv.Apply(nil, w.m, ops, res)
		return nil
	}
	keyed, scans, writes := false, false, false
	for i := range ops {
		switch ops[i].Kind {
		case kv.OpScan:
			scans = true
		case kv.OpGet:
			keyed = true
		default:
			keyed, writes = true, true
		}
	}
	if w.h != nil {
		// One critical section over the transaction and the hoisted scans:
		// a bare Range walks recyclable cells like any other operation.
		w.h.Enter()
	}
	if keyed {
		tap := w.feed != nil && writes
		if tap && res == nil {
			// The feed needs OpAdd post-values even when the caller
			// discards results; capture into worker-owned scratch.
			if cap(w.feedRes) < len(ops) {
				w.feedRes = make([]kv.Result, len(ops))
			}
			res = w.feedRes[:len(ops)]
		}
		_ = w.tx.RunRetry(func() error {
			if !scans {
				kv.Apply(w.tx, w.m, ops, res)
				return nil
			}
			for i := range ops {
				if ops[i].Kind == kv.OpScan {
					continue
				}
				r := kv.ApplyOne(w.tx, w.m, ops[i])
				if res != nil {
					res[i] = r
				}
			}
			return nil
		})
		if tap {
			w.publishBatch(ops, res)
		}
	}
	if scans {
		for i := range ops {
			if ops[i].Kind != kv.OpScan {
				continue
			}
			r := kv.ApplyOne(nil, w.m, ops[i])
			if res != nil {
				res[i] = r
			}
		}
	}
	if w.h != nil {
		w.h.Exit()
	}
	return nil
}
