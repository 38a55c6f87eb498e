package kv

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"medley/internal/core"
	"medley/internal/structures/mhash"
)

// ShardedStore hash-partitions a uint64 key space over N TxMap shards.
// It implements TxMap itself, so a sharded store drops in anywhere a
// single structure does — including as a shard of another store.
//
// When every shard is an NBTC-transformed structure attached to the same
// TxManager, a transaction that touches several shards is still strictly
// serializable: the shards share commit machinery, so cross-shard
// atomicity is the paper's composition claim at the architecture level
// and costs nothing beyond the transaction itself — there is no batch
// entry point either: kv.Apply runs a batch on a store through these
// same five methods, in request order. A structure that ignores the Tx
// (plain-skip) does not compose; NewShardedNamed refuses it more than one
// shard.
type ShardedStore struct {
	shards []TxMap
	mask   uint64
}

// shardMul spreads keys over shards with the multiplicative hash mhash
// spreads them over buckets with: one product, of which the shard index is
// the top log2(shards) bits and a hash shard's bucket index the
// log2(buckets) bits below those (Options.ShardBits tells it how many to
// skip). Two fields of one Fibonacci product are as well distributed as a
// single field of their combined width.
const shardMul = mhash.HashMul

// errNotComposable refuses a multi-shard store over a structure whose
// operations do not join the shared TxManager's transactions.
var errNotComposable = errors.New("kv: implementation does not compose across shards")

// RoundShards rounds a requested shard count up to the power of two
// every routing path (shardIndex, ShardOf) assumes; n <= 0 means 1.
// Callers that size per-shard state before building a store use it to
// stay in lockstep with the store's rounding.
func RoundShards(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewSharded builds a store over n shards produced by mk (called with
// shard indices 0..n-1). n is rounded up to a power of two so shard
// selection is mask-cheap.
func NewSharded(n int, mk func(i int) TxMap) *ShardedStore {
	p := RoundShards(n)
	s := &ShardedStore{shards: make([]TxMap, p), mask: uint64(p - 1)}
	for i := range s.shards {
		s.shards[i] = mk(i)
	}
	return s
}

// NewShardedNamed builds a store over n shards of the named registry
// implementation, all sharing o.Mgr. Each shard is provisioned with the
// full o.Buckets like an independent instance — the way a partitioned
// deployment provisions its partitions — so sharding trades memory for
// shorter chains and disjoint allocation domains per shard. Each shard is
// told, through Options.ShardBits, how many hash bits routing to it spent.
// Non-composable implementations are refused for n > 1: their shards
// could not join one transaction, so multi-key operations would silently
// lose atomicity.
func NewShardedNamed(name string, n int, o Options) (*ShardedStore, error) {
	if n > 1 && !Composable(name) {
		return nil, fmt.Errorf("kv: %w: %q must use a single shard", errNotComposable, name)
	}
	o.ShardBits += uint(bits.Len(uint(RoundShards(n) - 1)))
	var err error
	s := NewSharded(n, func(int) TxMap {
		var m TxMap
		if err == nil {
			m, err = New(name, o)
		}
		return m
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// ShardCount returns the number of shards.
func (s *ShardedStore) ShardCount() int { return len(s.shards) }

// Shard returns shard i, for callers that manage shards directly
// (maintenance hooks, recovery rebuilds).
func (s *ShardedStore) Shard(i int) TxMap { return s.shards[i] }

// ShardOf returns the shard index key routes to in a store of n shards
// (n must be the power of two the store rounded to). Exposed so recovery
// paths can partition recovered entries the same way live traffic does.
func ShardOf(key uint64, n int) int {
	return shardIndex(key, uint64(n-1))
}

// shardIndex picks the top log2(shards) bits of the multiplicative
// hash, so every shard count up to 2^63 routes to all shards.
func shardIndex(key, mask uint64) int {
	if mask == 0 {
		return 0
	}
	return int((key * shardMul) >> (64 - uint(bits.Len64(mask))))
}

func (s *ShardedStore) shard(key uint64) TxMap {
	return s.shards[shardIndex(key, s.mask)]
}

// Load puts key → key for every key, on GOMAXPROCS workers. The keys are
// split into parts by the top bits of key × shardMul, the product a shard
// and a hash shard's bucket are chosen by: a part is a shard, several
// shards in a store of more than maxLoadParts, or a bucket range of one
// when workers outnumber shards. Each worker takes whole parts and loads
// one in a pass over all the keys, gathering the ones that fall in it in
// windows of loadWindow keys and putting each window in bucket order
// (putWindow). A hash part's heads and the nodes it links then stay in
// one core's cache for the pass, where a load in key order would jump
// through every shard for every key, and the nodes a shard's slab hands
// out lie in the order its Range walks the buckets. Every put is the
// bare, linearizable Put; a key's repeats are put in the caller's order.
// keys is read, never written; a worker's copies are two windows.
func (s *ShardedStore) Load(keys []uint64) {
	workers := runtime.GOMAXPROCS(0)
	partBits := loadPartBits(uint(bits.Len64(s.mask)), workers)
	var next atomic.Uint64
	var wg sync.WaitGroup
	for range min(workers, 1<<partBits) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]uint64, 2*loadWindow)
			window, sorted := buf[:0:loadWindow], buf[loadWindow:]
			for p := next.Add(1) - 1; p < 1<<partBits; p = next.Add(1) - 1 {
				for _, k := range keys {
					if k*shardMul>>(64-partBits) != p {
						continue
					}
					if window = append(window, k); len(window) == loadWindow {
						s.putWindow(window, sorted, partBits)
						window = window[:0]
					}
				}
				s.putWindow(window, sorted, partBits)
				window = window[:0]
			}
		}()
	}
	wg.Wait()
}

// loadWindow is how many of a part's keys a Load worker gathers before
// putting them: with their sorted copy, 16 KB a worker.
const loadWindow = 1024

// loadField is the field a load split by partBits sorts a window on: the
// 8 bits of key × shardMul below the part bits, the top of a hash
// shard's bucket index when a part is a shard.
func loadField(key uint64, partBits uint) uint8 {
	return uint8(key * shardMul << partBits >> 56)
}

// putWindow puts the keys of window in order of loadField, by a stable
// counting sort into sorted, which holds as many.
func (s *ShardedStore) putWindow(window, sorted []uint64, partBits uint) {
	var at [256]int // per field value, where its next key goes
	for _, k := range window {
		at[loadField(k, partBits)]++
	}
	next := 0
	for f, n := range at {
		at[f] = next
		next += n
	}
	for _, k := range window {
		f := loadField(k, partBits)
		sorted[at[f]] = k
		at[f]++
	}
	for _, k := range sorted[:len(window)] {
		s.shard(k).Put(nil, k, k)
	}
}

// maxLoadParts caps the parts a load splits keys into beyond what its
// workers need, and with them the passes over the keys: a store of more
// shards than this loads several in each part.
const maxLoadParts = 16

// loadPartBits is how many top product bits a Load over a store of
// 2^shardBits shards splits keys by: one part a shard, up to
// maxLoadParts, and at least one part a worker.
func loadPartBits(shardBits uint, workers int) uint {
	return max(min(shardBits, uint(bits.Len(maxLoadParts-1))), uint(bits.Len(uint(workers-1))))
}

// Get implements TxMap.
func (s *ShardedStore) Get(tx *core.Tx, key uint64) (uint64, bool) {
	return s.shard(key).Get(tx, key)
}

// Put implements TxMap.
func (s *ShardedStore) Put(tx *core.Tx, key, val uint64) (uint64, bool) {
	return s.shard(key).Put(tx, key, val)
}

// Insert implements TxMap.
func (s *ShardedStore) Insert(tx *core.Tx, key, val uint64) bool {
	return s.shard(key).Insert(tx, key, val)
}

// Remove implements TxMap.
func (s *ShardedStore) Remove(tx *core.Tx, key uint64) (uint64, bool) {
	return s.shard(key).Remove(tx, key)
}

// Range implements TxMap: shards are iterated in index order, so keys are
// grouped by shard, ordered within one only as the shard structure
// orders them.
func (s *ShardedStore) Range(fn func(key, val uint64) bool) {
	for _, sh := range s.shards {
		stop := false
		sh.Range(func(k, v uint64) bool {
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

// Len implements Lener when every shard does.
func (s *ShardedStore) Len() int {
	n := 0
	for _, sh := range s.shards {
		if l, ok := sh.(Lener); ok {
			n += l.Len()
		}
	}
	return n
}

// Bind implements Binder: shards that need per-worker state are bound
// once here, so per-operation dispatch stays a plain slice index.
func (s *ShardedStore) Bind(tx *core.Tx) TxMap {
	bound := s
	for i, sh := range s.shards {
		b, ok := sh.(Binder)
		if !ok {
			continue
		}
		if bound == s {
			bound = &ShardedStore{shards: append([]TxMap(nil), s.shards...), mask: s.mask}
		}
		bound.shards[i] = b.Bind(tx)
	}
	return bound
}
