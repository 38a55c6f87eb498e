package kv

import (
	"fmt"
	"testing"

	"medley/internal/core"
	"medley/internal/structures/mhash"
)

// chainStats places keys with place (key → shard, bucket) in a store of
// shards × buckets chains and reports what lookups pay: the mean number of
// nodes a hit visits — a chain is sorted and walked from its head, so a
// chain of L nodes costs its L keys 1+2+…+L visits — and the longest chain.
func chainStats(shards, buckets int, keys []uint64, place func(key uint64) (shard, bucket int)) (probesPerHit float64, maxChain int) {
	chains := make([]int32, shards*buckets)
	for _, k := range keys {
		s, b := place(k)
		chains[s*buckets+b]++
	}
	visits := 0
	for _, l := range chains {
		visits += int(l) * (int(l) + 1) / 2
		maxChain = max(maxChain, int(l))
	}
	return float64(visits) / float64(len(keys)), maxChain
}

// splitmix64's finalizer: keys with no arithmetic structure at all.
func scatter(i uint64) uint64 {
	z := (i + 1) * 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TestHashSpread gates what a lookup in a sharded hash store costs at one
// key per bucket, the paper's load factor: routing and bucket choice are
// two fields of one product, and together they must place the integer keys
// benchmarks and counters produce — dense, and dense with a stride — about
// one to a chain, and structureless keys no worse than chance does (a
// Poisson(1) table costs a hit 1.5 visits).
func TestHashSpread(t *testing.T) {
	const buckets = 1 << 16
	shapes := []struct {
		name      string
		key       func(i uint64) uint64
		maxProbes float64
		maxChain  int // 0: unbounded
	}{
		{name: "dense", key: func(i uint64) uint64 { return i }, maxProbes: 1.25, maxChain: 3},
		// Stride 2 turns the golden rotation into one by √5−2, whose
		// spread breathes with the table size: 1.15 at 2^19 buckets (the
		// benchmark's store), 1.26 at 2^20.
		{name: "dense-even", key: func(i uint64) uint64 { return 2 * i }, maxProbes: 1.3, maxChain: 3},
		{name: "scattered", key: scatter, maxProbes: 1.6},
	}
	for _, shards := range []int{1, 2, 4, 8, 16} {
		s, err := NewShardedNamed("hash", shards, Options{Mgr: core.NewTxManager(), Buckets: buckets})
		if err != nil {
			t.Fatal(err)
		}
		place := func(k uint64) (int, int) {
			i := ShardOf(k, shards)
			return i, s.Shard(i).(*mhash.Map[uint64]).BucketOf(k)
		}
		// The hash this one replaced: the same shard field, but bucket
		// bits 32 and up of the product. The gate has to reject it.
		oldPlace := func(k uint64) (int, int) {
			return ShardOf(k, shards), int(k * shardMul >> 32 & (buckets - 1))
		}
		keys := make([]uint64, shards*buckets)
		for _, sh := range shapes {
			for i := range keys {
				keys[i] = sh.key(uint64(i))
			}
			t.Run(fmt.Sprintf("P=%d/%s", shards, sh.name), func(t *testing.T) {
				probes, long := chainStats(shards, buckets, keys, place)
				t.Logf("%.3f probes per hit, longest chain %d", probes, long)
				if probes > sh.maxProbes {
					t.Errorf("%.3f probes per hit, want at most %.2f", probes, sh.maxProbes)
				}
				if sh.maxChain > 0 && long > sh.maxChain {
					t.Errorf("longest chain %d, want at most %d", long, sh.maxChain)
				}
				if sh.maxChain == 0 {
					return // chance is chance under either hash
				}
				if probes, long := chainStats(shards, buckets, keys, oldPlace); probes <= sh.maxProbes && long <= sh.maxChain {
					t.Errorf("the bits-32-up hash passes too (%.3f probes, longest chain %d): the gate gates nothing", probes, long)
				}
			})
		}
	}
}
