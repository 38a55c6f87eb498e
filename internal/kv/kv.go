// Package kv is the uniform transactional key–value seam of the
// repository: one interface (TxMap) that every NBTC-transformed structure
// implements natively, a named constructor registry so drivers select
// implementations by string rather than by hand-rolled adapter, a
// hash-partitioned ShardedStore that composes N TxMap shards into one
// logical map, and the batch request API (Op, Result, Apply) the service
// and the harness execute through.
//
// The paper's central claim (Cai, Wen & Scott, SPAA 2023) is that
// NBTC-transformed structures compose freely under a single TxManager.
// ShardedStore is that claim put to work as an architecture: N shard
// instances — each an independent lock-free structure — joined in one
// strictly serializable transaction because they share one TxManager.
// A cross-shard transfer is just a transaction that happens to touch two
// shards; no extra protocol is needed, and none exists here: a batch is a
// loop of single-key calls in request order.
//
// # The competitor gap
//
// TxMap's one contract is that an operation handed an open *core.Tx joins
// that transaction. The competitor backends (OneFile, TDSL, LFTT) cannot
// keep it: their transactions live inside their own STMs, so a TxMap over
// one could only ignore the Tx and commit every operation as its own
// native transaction — silently non-atomic across keys. They are
// therefore not adapted here, and this package imports none of them.
// They are adapted where a whole batch can be handed to the backend's
// own transaction: internal/harness (OneFileSystem, TDSLSystem,
// LFTTSystem run one batch as one native transaction) and internal/tpcc
// (its backends). The only registry entry that does not compose is
// plain-skip, the untransformed baseline, which has no transactions at
// all and is refused more than one shard.
package kv

import "medley/internal/core"

// TxMap is a transactional map over uint64 keys and values. All
// operations thread a *core.Tx: inside an open transaction they compose
// atomically with every other TxMap attached to the same TxManager; with
// a nil Tx (or one with no open transaction) they run non-transactionally
// with the structure's native lock-free semantics.
type TxMap interface {
	// Get returns the value bound to key.
	Get(tx *core.Tx, key uint64) (uint64, bool)
	// Put binds key to val, returning the previous value if the key
	// existed.
	Put(tx *core.Tx, key uint64, val uint64) (uint64, bool)
	// Insert adds key only if absent.
	Insert(tx *core.Tx, key uint64, val uint64) bool
	// Remove deletes key, returning the removed value.
	Remove(tx *core.Tx, key uint64) (uint64, bool)
	// Range iterates a non-linearizable snapshot of entries, stopping if
	// fn returns false. It does not participate in transactions; scans
	// observe a best-effort view, exactly like the structures' native
	// Range.
	Range(fn func(key, val uint64) bool)
}

// Binder is the optional capability of TxMap implementations whose
// operations need per-goroutine state beyond the Tx itself (txMontage
// needs an epoch Handle wrapping the Tx). Workers call Bind once per
// (map, Tx) pair and use the returned view for all operations on that Tx.
type Binder interface {
	Bind(tx *core.Tx) TxMap
}

// Bind resolves the worker-local view of m for tx: m.Bind(tx) when m is a
// Binder, m itself otherwise (the common case — the transformed
// structures are stateless per worker).
func Bind(m TxMap, tx *core.Tx) TxMap {
	if b, ok := m.(Binder); ok {
		return b.Bind(tx)
	}
	return m
}

// Lener is implemented by maps that can count their entries (not
// linearizable; tests and diagnostics).
type Lener interface {
	Len() int
}
