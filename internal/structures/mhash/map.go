package mhash

import (
	"math/bits"

	"medley/internal/core"
)

// Map is Michael's chained hash table: a fixed array of NBTC-transformed
// lock-free lists. The paper's microbenchmark uses 1M buckets for a 1M key
// space; the bucket count is fixed at construction, as in the original.
//
// A bucket head is one bare core.Word and a node lives in the map's slab,
// so a key costs a 24-byte node plus its share of the heads (8 bytes a
// bucket) and the collector has nothing to mark inside the table but the
// slab's chunks (DESIGN.md, "Word link").
type Map[V any] struct {
	buckets []core.Word
	skip    uint // product bits above the bucket field, spent by a partitioner
	shift   uint // 64 - log2(len(buckets))
	mgr     *core.TxManager
	slab    core.Slab[node[V]]
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
		buckets: make([]core.Word, n),
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

func (m *Map[V]) bucket(key uint64) *core.Word {
	return &m.buckets[m.hash(key)]
}

// Len counts entries; not linearizable, for tests and diagnostics.
func (m *Map[V]) Len() int {
	n := 0
	m.Range(func(uint64, V) bool { n++; return true })
	return n
}

// Range invokes fn over a non-linearizable snapshot of all entries (bucket
// order, then key order within a bucket), stopping if fn returns false.
func (m *Map[V]) Range(fn func(key uint64, val V) bool) {
	for i := range m.buckets {
		if !m.chainRange(&m.buckets[i], fn) {
			return
		}
	}
}
