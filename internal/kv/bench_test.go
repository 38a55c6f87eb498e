package kv

import (
	"fmt"
	"math/rand"
	"testing"

	"medley/internal/core"
)

// BenchmarkShardedApply is the ruler for Apply's loop over a sharded
// store: an 8-shard hash store of 2^16 buckets each with 2^19 keys
// preloaded, and batches of 1, 2, 5 and 10 operations (95% Get, 5% Put,
// keys uniform over the preloaded range), each batch one RunRetry
// transaction on one goroutine. ns/op is per batch.
func BenchmarkShardedApply(b *testing.B) {
	const (
		shards  = 8
		buckets = 1 << 16
		keys    = 1 << 19
		batches = 1 << 12 // pre-generated, cycled: no generator cost in the loop
	)
	mgr := core.NewTxManager()
	s, err := NewShardedNamed("hash", shards, Options{Mgr: mgr, Buckets: buckets})
	if err != nil {
		b.Fatal(err)
	}
	for k := uint64(0); k < keys; k++ {
		s.Put(nil, k, k)
	}
	tx := mgr.Register()
	m := Bind(s, tx)
	for _, n := range []int{1, 2, 5, 10} {
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(int64(n)))
			all := make([]Op, batches*n)
			for i := range all {
				all[i] = Op{Kind: OpGet, Key: uint64(r.Intn(keys))}
				if r.Intn(100) < 5 {
					all[i].Kind, all[i].Val = OpPut, r.Uint64()
				}
			}
			res := make([]Result, n)
			var ops []Op
			body := func() error {
				Apply(tx, m, ops, res)
				return nil
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := (i % batches) * n
				ops = all[at : at+n]
				if err := tx.RunRetry(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
