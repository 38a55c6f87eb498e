package mhash

import (
	"medley/internal/core"
)

// Map is Michael's chained hash table: a fixed array of NBTC-transformed
// lock-free lists. The paper's microbenchmark uses 1M buckets for a 1M key
// space; the bucket count is fixed at construction, as in the original.
type Map[V any] struct {
	buckets []chain[V]
	mask    uint64
	mgr     *core.TxManager
}

// NewMap creates a table with at least nBuckets buckets (rounded up to a
// power of two), attached to mgr.
func NewMap[V any](mgr *core.TxManager, nBuckets int) *Map[V] {
	n := 1
	for n < nBuckets {
		n <<= 1
	}
	return &Map[V]{buckets: make([]chain[V], n), mask: uint64(n - 1), mgr: mgr}
}

// Manager returns the TxManager this map participates in.
func (m *Map[V]) Manager() *core.TxManager { return m.mgr }

// hash is Fibonacci hashing on the 64-bit key; keys in the benchmarks are
// dense small integers, which this spreads well across buckets.
func (m *Map[V]) hash(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> 32 & m.mask
}

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
