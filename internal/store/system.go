// Package store is the thing medleyd serves: a kv.TxMap — a registry
// structure, a hash-partitioned ShardedStore of them, a txMontage
// persistent store — owned by a System that hands each executing
// goroutine a worker holding its registered transaction, its EBR handle
// and, on a replicated node, its change-feed tap. It is the top of the
// library stack (core → structures → kv → store); the network service
// (internal/service) runs its workers behind a txpool, and the harness
// (internal/harness) measures it beside the competitor STMs, naming these
// types by alias. New resolves the one system-spec grammar (spec.go).
package store

import (
	"fmt"
	"time"

	"medley/internal/cdc"
	"medley/internal/core"
	"medley/internal/ebr"
	"medley/internal/kv"
	"medley/internal/montage"
	"medley/internal/obs"
)

// ShardedName appends the shard suffix benchmark reports use for
// partitioned configurations; single-instance names are unchanged.
func ShardedName(base string, shards int) string {
	if shards <= 1 {
		return base
	}
	return fmt.Sprintf("%s-%dshard", base, shards)
}

// System owns any kv.TxMap — a registry-built structure, a
// hash-partitioned ShardedStore of them, or a non-transactional baseline —
// under one worker loop: Medley, Original and TxOff are all configurations
// of this one type (harness.KVSystem is its alias).
type System struct {
	name string
	mgr  *core.TxManager // nil for untransformed baselines
	sh   *kv.ShardedStore
	m    kv.TxMap // sh, or its one shard: no dispatch layer for single instances
	// notx runs operations outside any transaction (TxOff): no commit
	// protocol and no feed to tap, but a transformed structure's workers
	// still hold registered Txs and EBR handles, so the nodes their bare
	// operations unlink are recycled.
	notx bool
	// smr is nil exactly when the structure has no manager (Original):
	// nothing is retired, nothing recycled.
	smr *ebr.Manager
	// pump is the handle Quiesce uses to advance the EBR epoch at
	// barriers; it never enters a critical section or retires anything.
	pump *ebr.Handle
}

// newSystem is the one constructor: a system over the named registry
// structure, hash-partitioned over spec.Shards instances when > 1, named
// with one suffix per axis the spec switched off so every configuration
// stays distinguishable in one report. notx runs operations outside any
// transaction (Original/TxOff). Pooling is sound here because every worker
// holds its EBR handle's critical section across each transaction — see
// worker.ExecBatch — and background maintenance is guarded the same way.
// -nofast forces every commit through the full descriptor handshake.
func newSystem(name, structure string, notx bool, buckets int, spec Spec) *System {
	var mgr *core.TxManager
	if kv.Composable(structure) {
		mgr = core.NewTxManager()
	}
	sh, err := kv.NewShardedNamed(structure, spec.Shards, kv.Options{Mgr: mgr, Buckets: buckets})
	if err != nil {
		panic(err) // registry names here are static; a failure is a bug
	}
	for _, suffix := range specSuffixes {
		if spec.Off[suffix] {
			name += "-" + suffix
		}
	}
	s := &System{name: ShardedName(name, sh.ShardCount()), mgr: mgr, sh: sh, m: sh, notx: notx}
	if sh.ShardCount() == 1 {
		s.m = sh.Shard(0)
	}
	if mgr != nil {
		// An advance attempt every 256 retired blocks, not retire calls: a
		// replayed watch chunk of up to 512 writes, one transaction,
		// attempts at its own settle, and so draws the next chunk's
		// descriptor entries from its pool; a bootstrap chunk, a load of
		// bare puts, ships the slots it unlinks 64 at a time and attempts
		// every fourth batch.
		s.smr = ebr.New(256)
		if !notx && !spec.Off["nopool"] {
			mgr.EnablePooling()
		}
		if !notx && spec.Off["nofast"] {
			mgr.DisableFastPaths()
		}
	}
	return s
}

// Name reports the configuration as benchmark reports spell it.
func (s *System) Name() string { return s.name }

// ShardCount reports the store's partition count (reports and /healthz
// carry it).
func (s *System) ShardCount() int { return s.sh.ShardCount() }

// Manager exposes the TxManager for statistics (nil for baselines).
func (s *System) Manager() *core.TxManager { return s.mgr }

// TxStats reports cumulative commits and aborts from the manager's sharded
// counters. Baselines without a manager (Original) report zeros, matching
// their nothing-can-abort semantics.
func (s *System) TxStats() (commits, aborts uint64) {
	if s.mgr == nil {
		return 0, 0
	}
	st := s.mgr.Stats()
	return st.Commits, st.Aborts
}

// MetricsSnapshot implements obs.MetricsSnapshotter: cumulative transaction,
// pool and EBR counters under stable statsd-style names. Systems running
// no commit protocol (Original, TxOff) export nothing, so their reports
// carry no fastpath block and an empty telemetry block.
func (s *System) MetricsSnapshot() []obs.Metric {
	if !s.transacts() {
		return nil
	}
	es := s.smr.Stats()
	return append(obs.TxCounters(s.mgr.Stats()),
		obs.Metric{Name: "ebr_retired", Value: es.Retired},
		obs.Metric{Name: "ebr_reclaimed", Value: es.Reclaimed},
		obs.Metric{Name: "ebr_advances", Value: es.Advances},
	)
}

// StateSnapshot iterates the live store: exact at a quiescent point (the
// harness calls it only at phase barriers), fuzzy under load (a node
// serves it as /v1/snapshot and anchors it at feed positions).
func (s *System) StateSnapshot(fn func(key, val uint64) bool) {
	s.m.Range(fn)
}

// guardedMaintainer is the capability of structures whose background
// maintenance must run inside an EBR critical section (rotating skiplist
// index rebuilds traverse nodes that workers unlink and recycle).
type guardedMaintainer interface {
	StartGuardedMaintenance(interval time.Duration, guard func(func())) (stop func())
}

// Start starts per-shard maintenance where the structure has any
// (rotating skiplist, a transformed structure, so the system has an EBR
// domain). The maintenance goroutine gets its own EBR handle and brackets
// every rebuild with it, so an index traversal never meets a recycled
// node.
func (s *System) Start() (stop func()) {
	var stops []func()
	for i := 0; i < s.sh.ShardCount(); i++ {
		gm, ok := s.sh.Shard(i).(guardedMaintainer)
		if !ok {
			continue
		}
		h := s.smr.Register()
		stops = append(stops, gm.StartGuardedMaintenance(25*time.Millisecond, func(f func()) {
			h.Enter()
			f()
			h.Exit()
		}))
	}
	return func() {
		for _, f := range stops {
			f()
		}
	}
}

// Preload inserts the initial key-value pairs, key → key, through the
// store's bulk load (kv.ShardedStore.Load): GOMAXPROCS workers each take
// whole shards, or bucket ranges of one, and fill them with the
// structure's own lock-free insert (a Put outside a transaction).
func (s *System) Preload(keys []uint64) {
	s.sh.Load(keys)
}

// worker drives a bound TxMap: it is the kv.Executor System and
// MontageSystem both hand out. Batches execute through kv.Apply, the one
// request-order loop, whoever submits them.
type worker struct {
	m  kv.TxMap
	tx *core.Tx // nil: no manager, nothing to recycle (Original)
	h  *ebr.Handle
	// bare runs operations outside any transaction on tx (TxOff): each
	// batch in one critical section, closed by SettleBare.
	bare bool
	// mh is a txMontage worker's epoch handle: a Load runs in one of its
	// operation sections. nil on every other worker.
	mh *montage.Handle

	// Change-feed tap (SetChangeFeed): committed batches publish their
	// writes under the transaction's commit ticket. pub and feedRes are
	// publication scratch (feedRes captures OpAdd post-values when the
	// caller discards results).
	feed    *cdc.Feed
	pub     []cdc.Write
	feedRes []kv.Result
}

// Quiesce implements harness.Quiescer: with every worker parked at the
// barrier, pump the EBR epoch far enough (the three-epoch grace) that
// everything retired during the phase becomes reclaimable, then flush
// each of exs — the executors the engine keeps for the run, owned by the
// barrier until the next phase starts — so their freelists hold the
// whole phase's garbage before the next phase begins. Under load this
// advance starves: an oversubscribed phase always has some worker parked
// mid-transaction, holding a stale active epoch. Best effort — a guarded
// maintenance goroutine mid-rebuild just stops the pump early.
func (s *System) Quiesce(exs []kv.Executor) {
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
	for _, ex := range exs {
		if w, ok := ex.(*worker); ok && w.h != nil {
			w.h.Flush()
		}
	}
}

// SupportsChangeFeed reports whether this system's executors can publish
// a commit-ordered change feed: the store must run real transactions
// (baselines executing outside any commit protocol have no commit order
// to tap).
func (s *System) SupportsChangeFeed() bool { return s.transacts() }

// transacts reports whether operations run as transactions (Medley, not
// the Original or TxOff baselines).
func (s *System) transacts() bool { return s.smr != nil && !s.notx }

// NewExecutor hands out a new kv.Executor running batch requests as
// atomic transactions: the one seam of the service's workers, a node's
// replay and the harness engine alike, each of which keeps its executors
// for as long as it runs. The Tx and handle it carries are used by one
// goroutine at a time; a channel hand-off orders it.
func (s *System) NewExecutor() kv.Executor {
	if s.smr == nil {
		return &worker{m: kv.Bind(s.m, nil)}
	}
	w := &worker{tx: s.mgr.Register(), h: s.smr.Register(), bare: s.notx}
	w.tx.SetSMR(w.h)
	w.m = kv.Bind(s.m, w.tx)
	return w
}

// SetChangeFeed attaches a change feed to this executor: every committed
// batch with writes draws a commit ticket (core ticket.go) and publishes
// its writes' absolute post-states to f. It reports false — and attaches
// nothing — for workers executing outside transactions (no commit order
// exists to tap). The service layer attaches feeds through this seam on
// each worker executor.
func (w *worker) SetChangeFeed(f *cdc.Feed) bool {
	if w.tx == nil || w.bare {
		return false
	}
	w.feed = f
	w.tx.SetCommitTicketer(f)
	return true
}

// publishBatch publishes a just-committed batch's writes under its
// commit ticket. No ticket means no word was installed (every
// write was a no-op, e.g. deletes of absent keys): nothing visible
// changed, nothing to replicate.
func (w *worker) publishBatch(ops []kv.Op, res []kv.Result) {
	if t, ok := w.tx.CommittedTicket(); ok {
		w.feed.Publish(t, w.writes(ops, res))
	}
}

// writes collects ops' writes for the feed, in op order, into w.pub.
func (w *worker) writes(ops []kv.Op, res []kv.Result) []cdc.Write {
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
	return w.pub
}

// ExecBatch implements kv.Executor: one atomic transaction around the
// keyed operations of the batch, conflict aborts retried internally
// (baselines without a transaction execute directly). It never fails.
//
// Scans are hoisted out of the transaction and run after it commits: Range
// is non-linearizable by contract, and its raw loads finalize any pending
// descriptor they meet — a scan inside the transaction that installed the
// descriptor would abort its own speculation on every retry and livelock.
func (w *worker) ExecBatch(ops []kv.Op, res []kv.Result) error {
	if w.tx == nil {
		kv.Apply(nil, w.m, ops, res)
		return nil
	}
	if w.bare {
		w.h.Enter()
		kv.Apply(w.tx, w.m, ops, res)
		w.tx.SettleBare()
		w.h.Exit()
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
	// One critical section over the transaction and the hoisted scans: a
	// bare Range walks recyclable nodes like any other operation.
	w.h.Enter()
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
	w.h.Exit()
	return nil
}

// Load applies a follower's bootstrap chunk: puts and deletes of distinct
// keys that no concurrent writer touches and nothing reads before the
// follower is ready. Such a chunk has nothing that must be atomic, so each
// op runs as the structure's own linearizable operation outside any
// transaction — no descriptor, no commit — on the worker's registered Tx,
// so that the nodes it replaces and unlinks are recycled through EBR, all
// in one EBR critical section (and, on txMontage, one epoch operation
// section, nbMontage's non-transactional path). With a feed attached the
// chunk publishes as one load ticket (cdc.Feed.PublishLoad), drawn before
// its first write, so every later write to one of its keys draws after
// it: its writes take seqs but the feed keeps none of them, and the shards
// they touch compact, since a snapshot already holds what a load wrote.
func (w *worker) Load(ops []kv.Op) {
	if w.tx == nil {
		kv.Apply(nil, w.m, ops, nil)
		return
	}
	var t uint64
	if w.feed != nil {
		t = w.feed.DrawTicket()
	}
	w.h.Enter()
	if w.mh != nil {
		w.mh.BeginOp()
	}
	kv.Apply(w.tx, w.m, ops, nil)
	w.tx.SettleBare()
	if w.mh != nil {
		w.mh.EndOp()
	}
	w.h.Exit()
	if w.feed != nil {
		w.feed.PublishLoad(t, w.writes(ops, nil))
	}
}
