package harness

import "medley/internal/kv"

// This file is the single home of the optional capabilities a System may
// implement beyond the core Preload/Start/NewExecutor contract. The engine,
// verifier and report writer never type-assert on systems directly; they
// probe once with Capabilities and branch on the resulting Caps. Keeping
// every capability here (instead of scattered next to each consumer) makes
// the System surface auditable at a glance: a new system implements some
// subset of these and gets the corresponding report blocks for free.
//
// Data types produced by the capabilities (Metric, KindStat,
// ConsistencyViolation, ...) live with their diff/merge helpers in
// telemetry.go; this file holds only the contracts (MetricsSnapshotter is
// the stack's own, aliased in harness.go).

// TxStatser is implemented by systems that can report cumulative
// commit/abort counters; the engine differences snapshots around each
// phase to compute abort rates. Systems that cannot abort simply don't
// implement it.
type TxStatser interface {
	TxStats() (commits, aborts uint64)
}

// ConsistencyChecker is implemented by systems whose workload maintains
// domain invariants the engine can verify at quiescent points (the TPC-C
// system checks the clause 3.3.2 conditions). The engine runs it after
// each measured phase and after every crash phase.
type ConsistencyChecker interface {
	ConsistencyCheck() []ConsistencyViolation
}

// TxKindStatser is implemented by systems whose workers run a closed set of
// transaction kinds (the TPC-C system's five transactions); the engine
// differences snapshots around each phase to attribute throughput, aborts
// and latency per kind. Snapshots are only read at phase barriers, where
// workers are quiescent.
type TxKindStatser interface {
	TxKindStats() []KindStat
}

// Snapshotter is implemented by systems that can iterate their live
// key→value state at a quiescent point. Scenarios with VerifyFinal set use
// it to diff the final state against the journaled ground-truth model, and
// the crash phase to diff the recovered state.
type Snapshotter interface {
	StateSnapshot(fn func(key, val uint64) bool)
}

// Recoverable is the capability interface of systems whose committed
// state survives a simulated power failure. The engine's crash phase
// (engine.go) drives it: Persist, then CrashAndRecover under a timer, then
// StateSnapshot for verification against the ground-truth model. Systems
// without durable state simply don't implement it (Medley, TDSL, LFTT,
// the plain structures) and the crash phase reports recoverable: false.
type Recoverable interface {
	Snapshotter
	// CanRecover reports whether this configuration actually persists
	// (e.g. txMontage with persistence off implements the interface but
	// cannot recover).
	CanRecover() bool
	// Persist makes every effect committed so far durable: an epoch sync
	// for periodic persistence, a no-op for eager per-commit persistence.
	Persist()
	// CrashAndRecover simulates a full-system crash (volatile state lost,
	// durable media kept) and rebuilds the system from the durable image,
	// returning the number of recovered entries. Executors created before
	// the crash are invalid afterwards; the engine drops them and asks for
	// fresh ones in the next phase.
	CrashAndRecover() int
}

// Quiescer is implemented by systems that can use a full-stop barrier to
// run maintenance that cannot make progress under load. The Medley
// KVSystem pumps the EBR epoch here: an oversubscribed phase parks
// workers mid-transaction, each a critical section blocking epoch
// advance, so in-phase reclamation starves — the barrier, where every
// worker is quiescent, is the one reliable point to advance past the
// phase's garbage and make it reclaimable. exs are the run's executors,
// owned by the barrier for the call: the system flushes their limbo into
// their freelists (the EBR flush runs on the owner, and the barrier is
// the owner here).
type Quiescer interface {
	Quiesce(exs []kv.Executor)
}

// ShardCounter is the capability interface of systems whose store is
// hash-partitioned; the engine reports the shard count per record.
// Systems that don't implement it are single-instance (shard count 1).
type ShardCounter interface {
	ShardCount() int
}

// Caps is the result of probing a System for its optional capabilities:
// each field is the system viewed through one capability interface, nil
// when unimplemented. Probe once with Capabilities and branch on fields.
type Caps struct {
	TxStats     TxStatser
	Metrics     MetricsSnapshotter
	Consistency ConsistencyChecker
	Kinds       TxKindStatser
	Snapshot    Snapshotter
	Recovery    Recoverable
	Shards      ShardCounter
	Quiescent   Quiescer
}

// Capabilities probes sys for every optional capability in one place.
func Capabilities(sys System) Caps {
	var c Caps
	c.TxStats, _ = sys.(TxStatser)
	c.Metrics, _ = sys.(MetricsSnapshotter)
	c.Consistency, _ = sys.(ConsistencyChecker)
	c.Kinds, _ = sys.(TxKindStatser)
	c.Snapshot, _ = sys.(Snapshotter)
	c.Recovery, _ = sys.(Recoverable)
	c.Shards, _ = sys.(ShardCounter)
	c.Quiescent, _ = sys.(Quiescer)
	return c
}

// ShardCount reports the store partition count: the ShardCounter value
// when present, 1 otherwise (single-instance systems, including the
// competitors that cannot shard — see internal/kv).
func (c Caps) ShardCount() int {
	if c.Shards != nil {
		return c.Shards.ShardCount()
	}
	return 1
}

// CanRecover reports whether the system both implements Recoverable and
// is configured to actually persist.
func (c Caps) CanRecover() bool {
	return c.Recovery != nil && c.Recovery.CanRecover()
}
