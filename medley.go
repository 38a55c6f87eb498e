// Package medley is a Go implementation of nonblocking transaction
// composition (NBTC) and its realizations Medley and txMontage, from
//
//	Wentao Cai, Haosen Wen, and Michael L. Scott.
//	"Transactional Composition of Nonblocking Data Structures." SPAA 2023.
//
// This package is the public facade: it re-exports the transaction core
// and the NBTC-transformed data structures so that applications can
// compose operations on nonblocking structures into strictly serializable,
// obstruction-free transactions:
//
//	mgr := medley.NewTxManager()
//	ht1 := medley.NewHashMap[int](mgr, 1<<20)
//	ht2 := medley.NewHashMap[int](mgr, 1<<20)
//	tx := mgr.Register() // per goroutine
//	err := tx.RunRetry(func() error {
//		v, ok := ht1.Get(tx, from)
//		if !ok || v < amount {
//			return ErrInsufficient // business abort: not retried
//		}
//		w, _ := ht2.Get(tx, to)
//		ht1.Put(tx, from, v-amount)
//		ht2.Put(tx, to, w+amount)
//		return nil
//	})
//
// A body's error is returned only if the reads it was decided on still
// validate. Reads are checked at commit, not as they happen, so a body
// that read across a concurrent commit (here: ht1 before a transfer, ht2
// after it) is retried instead of answered: ErrInsufficient above is never
// about a state the maps were not in.
//
// Passing a nil *Tx (or one with no open transaction) to any structure
// operation runs it non-transactionally with the structure's native
// lock-free semantics.
//
// See DESIGN.md for the system inventory, EXPERIMENTS.md for the
// reproduction of the paper's evaluation, and the examples/ directory for
// runnable programs (including durable txMontage usage).
package medley

import (
	"medley/internal/core"
	"medley/internal/ebr"
	"medley/internal/kv"
	"medley/internal/montage"
	"medley/internal/structures/fraserskip"
	"medley/internal/structures/mhash"
	"medley/internal/structures/msqueue"
	"medley/internal/structures/nmbst"
	"medley/internal/structures/rotatingskip"
)

// Core transaction types (see internal/core for full documentation).
type (
	// TxManager holds metadata shared by all structures that participate
	// in the same transactions.
	TxManager = core.TxManager
	// Tx is a per-goroutine transaction context.
	Tx = core.Tx
	// Word is the transactional shared word of the paper's Figure 1, for
	// building custom NBTC structures: a 32-bit payload — typically a
	// node's index in the structure's own slab, with mark bits — CAS'd in
	// place beside a counter. The zero Word holds 0 and is ready to use.
	Word = core.Word
	// ReadWitness is the evidence of a linearizing load, registered via
	// Tx.AddToReadSet.
	ReadWitness = core.ReadWitness
	// Cleaner is post-commit work a custom structure registers with
	// Tx.Defer (the paper's addToCleanups): a pointer to the structure,
	// with a Word and two uint64s as the record's arguments.
	Cleaner = core.Cleaner
	// Stats is a snapshot of transaction counters.
	Stats = core.Stats
)

// ErrTxAborted is returned by Tx.End / Tx.Run when a transaction aborts.
var ErrTxAborted = core.ErrTxAborted

// NewTxManager creates a transaction manager.
func NewTxManager() *TxManager { return core.NewTxManager() }

// Transformed data structures.
type (
	// HashMap is Michael's lock-free chained hash table (SPAA 2002),
	// NBTC-transformed (the paper's Figure 2 structure).
	HashMap[V any] = mhash.Map[V]
	// Skiplist is Fraser's lock-free skiplist, NBTC-transformed.
	Skiplist[V any] = fraserskip.List[V]
	// RotatingSkiplist is the rotating skiplist of Dick et al.,
	// NBTC-transformed.
	RotatingSkiplist[V any] = rotatingskip.List[V]
	// BST is a Natarajan-Mittal-style external binary search tree,
	// NBTC-transformed.
	BST[V any] = nmbst.Tree[V]
	// Queue is the Michael & Scott FIFO queue, NBTC-transformed.
	Queue[V any] = msqueue.Queue[V]
)

// Every transformed structure keeps its nodes in slabs and links them by
// Word: the slot of a node an operation unlinks is reused, after an EBR
// grace period, only if the operation's Tx has an EBR handle (Tx.SetSMR);
// a Tx without one never reuses it. The same handle, and nothing else,
// recycles the read sets the Tx's transactions publish. A goroutine whose
// Tx has a handle holds the handle's critical section
// (EBRHandle.Enter/Exit) around every transaction and bare operation.

// NewHashMap creates a hash table with at least nBuckets buckets.
func NewHashMap[V any](mgr *TxManager, nBuckets int) *HashMap[V] {
	return mhash.NewMap[V](mgr, nBuckets)
}

// NewSkiplist creates an empty skiplist.
func NewSkiplist[V any](mgr *TxManager) *Skiplist[V] { return fraserskip.New[V](mgr) }

// NewRotatingSkiplist creates an empty rotating skiplist.
func NewRotatingSkiplist[V any](mgr *TxManager) *RotatingSkiplist[V] {
	return rotatingskip.New[V](mgr)
}

// NewBST creates an empty binary search tree.
func NewBST[V any](mgr *TxManager) *BST[V] { return nmbst.New[V](mgr) }

// NewQueue creates an empty queue.
func NewQueue[V any](mgr *TxManager) *Queue[V] { return msqueue.New[V](mgr) }

// Uniform transactional map layer (see internal/kv).
type (
	// TxMap is the uniform transactional uint64 map interface every
	// transformed structure implements; pass a nil *Tx for
	// non-transactional operations.
	TxMap = kv.TxMap
	// ShardedMap hash-partitions a key space over N TxMap shards under
	// one TxManager; cross-shard transactions are strictly serializable.
	ShardedMap = kv.ShardedStore
)

// MapStructures lists the named structures NewShardedMap accepts: the
// four transformed structures, which compose across shards, and
// "plain-skip", the untransformed baseline, which ignores the Tx and is
// single-shard only.
func MapStructures() []string { return kv.Names() }

// NewShardedMap creates a map partitioned over shards instances of the
// named structure ("hash", "skip", "bst", "rotating"), all attached to
// mgr. buckets sizes each hash shard (0 means the 1M default). A
// transaction registered on mgr may touch any number of shards — of this
// map and of any other structure on the same manager — atomically:
//
//	mgr := medley.NewTxManager()
//	m, _ := medley.NewShardedMap(mgr, "hash", 8, 1<<20)
//	tx := mgr.Register() // per goroutine
//	err := tx.RunRetry(func() error {
//		v, _ := m.Get(tx, from) // shard A
//		m.Put(tx, to, v)        // shard B, same transaction
//		return nil
//	})
func NewShardedMap(mgr *TxManager, structure string, shards, buckets int) (*ShardedMap, error) {
	return kv.NewShardedNamed(structure, shards, kv.Options{Mgr: mgr, Buckets: buckets})
}

// Persistence (txMontage over simulated NVM).
type (
	// Montage is an nbMontage persistence domain: epochs over simulated
	// NVM.
	Montage = montage.System
	// MontageConfig sizes a Montage domain.
	MontageConfig = montage.Config
	// MontageHandle is a per-goroutine txMontage context wrapping a Tx.
	MontageHandle = montage.Handle
	// PStore is a txMontage persistent map: a transient Medley index over
	// epoch-tagged NVM payloads.
	PStore[V any] = montage.PStore[V]
	// PEntry is what a PStore keeps in its transient index.
	PEntry[V any] = montage.Entry[V]
	// PCodec serializes values into payload words: Enc appends v's words
	// to dst and returns the result.
	PCodec[V any] = montage.Codec[V]
	// Recovered is one payload surviving a crash.
	Recovered = montage.Recovered
)

// NewMontage creates a txMontage persistence domain.
func NewMontage(cfg MontageConfig) *Montage { return montage.NewSystem(cfg) }

// NewPStore creates a persistent store over a transient index (any Medley
// map with V = PEntry[T] works).
func NewPStore[V any](sys *Montage, idx montage.Index[PEntry[V]], codec PCodec[V]) *PStore[V] {
	return montage.NewPStore(sys, idx, codec)
}

// RebuildPStore reconstructs a persistent store from recovered payloads.
func RebuildPStore[V any](sys *Montage, idx montage.Index[PEntry[V]], codec PCodec[V], payloads []Recovered) *PStore[V] {
	return montage.RebuildPStore(sys, idx, codec, payloads)
}

// U64Codec is the identity codec for uint64 values.
func U64Codec() PCodec[uint64] { return montage.U64Codec() }

// Safe memory reclamation.
type (
	// EBR is an epoch-based reclamation domain.
	EBR = ebr.Manager
	// EBRHandle is a per-goroutine EBR participant; attach to a Tx with
	// Tx.SetSMR.
	EBRHandle = ebr.Handle
)

// NewEBR creates an epoch-based reclamation domain whose handles attempt
// an epoch advance every advanceEvery retired blocks, not calls: the slab
// slots a transaction unlinks are retired as one batch that counts its
// length (0 selects the default of 64).
func NewEBR(advanceEvery int) *EBR { return ebr.New(advanceEvery) }
