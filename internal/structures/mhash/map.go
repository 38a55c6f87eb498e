package mhash

import (
	"math/bits"

	"medley/internal/core"
)

// Map is Michael's chained hash table: a fixed array of NBTC-transformed
// lock-free lists. The paper's microbenchmark uses 1M buckets for a 1M key
// space; the bucket count is fixed at construction, as in the original.
type Map[V any] struct {
	buckets []chain[V]
	skip    uint // product bits above the bucket field, spent by a partitioner
	shift   uint // 64 - log2(len(buckets))
	mgr     *core.TxManager
}

// NewMap creates a table with at least nBuckets buckets (rounded up to a
// power of two), attached to mgr.
func NewMap[V any](mgr *core.TxManager, nBuckets int) *Map[V] {
	return NewMapShard[V](mgr, nBuckets, 0)
}

// NewMapShard is NewMap for a table that holds one of 2^shardBits
// partitions of a key space, where the partition is chosen by the top
// shardBits bits of HashMul times the key (kv.ShardedStore does). Every key
// such a table sees agrees on those bits, so it indexes its buckets with
// the bits below them.
func NewMapShard[V any](mgr *core.TxManager, nBuckets int, shardBits uint) *Map[V] {
	n := 1
	for n < nBuckets {
		n <<= 1
	}
	return &Map[V]{
		buckets: make([]chain[V], n),
		skip:    shardBits,
		shift:   uint(64 - bits.Len(uint(n-1))),
		mgr:     mgr,
	}
}

// Manager returns the TxManager this map participates in.
func (m *Map[V]) Manager() *core.TxManager { return m.mgr }

// HashMul is 2^64 divided by the golden ratio. The high bits of a key's
// product with it are the equidistributing ones: consecutive keys, and keys
// a small stride apart, land in them as far from each other as any
// sequence can, so a table with one bucket per key keeps chains near one
// node for the dense integer keys the benchmarks use. The product's low
// and middle bits do not have that property — bits 32 and up of the
// products of 2^19 even keys fill a quarter of 2^19 buckets, in chains of
// four.
const HashMul = 0x9E3779B97F4A7C15

// hash is Fibonacci hashing: the bucket field is the top log2(buckets) bits
// of the product that the partitioner, if any, has not already spent.
func (m *Map[V]) hash(key uint64) uint64 {
	return key * HashMul << m.skip >> m.shift
}

// BucketOf is the index of the bucket key hashes to; for tests and
// diagnostics of the hash's spread.
func (m *Map[V]) BucketOf(key uint64) int { return int(m.hash(key)) }

func (m *Map[V]) bucket(key uint64) *chain[V] {
	return &m.buckets[m.hash(key)]
}

// Get returns the value bound to key.
func (m *Map[V]) Get(tx *core.Tx, key uint64) (V, bool) {
	return m.bucket(key).Get(tx, key)
}

// Contains reports whether key is present.
func (m *Map[V]) Contains(tx *core.Tx, key uint64) bool {
	return m.bucket(key).Contains(tx, key)
}

// Put binds key to val, returning the previous value if the key existed.
func (m *Map[V]) Put(tx *core.Tx, key uint64, val V) (V, bool) {
	return m.bucket(key).Put(tx, key, val)
}

// Insert adds key only if absent.
func (m *Map[V]) Insert(tx *core.Tx, key uint64, val V) bool {
	return m.bucket(key).Insert(tx, key, val)
}

// Remove deletes key, returning the removed value.
func (m *Map[V]) Remove(tx *core.Tx, key uint64) (V, bool) {
	return m.bucket(key).Remove(tx, key)
}

// Len counts entries; not linearizable, for tests and diagnostics.
func (m *Map[V]) Len() int {
	n := 0
	for i := range m.buckets {
		n += m.buckets[i].Len()
	}
	return n
}

// Range invokes fn over a non-linearizable snapshot of all entries (bucket
// order, then key order within a bucket), stopping if fn returns false.
func (m *Map[V]) Range(fn func(key uint64, val V) bool) {
	for i := range m.buckets {
		stop := false
		m.buckets[i].Range(func(k uint64, v V) bool {
			if !fn(k, v) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}
