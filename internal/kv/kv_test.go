package kv

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"medley/internal/core"
	"medley/internal/montage"
	"medley/internal/structures/mhash"
)

// implCase is one TxMap implementation under the conformance suite.
type implCase struct {
	name string
	// composable implementations run the transactional legs under
	// core.Tx transactions; the rest (plain-skip) run each op bare.
	composable bool
	mk         func(t *testing.T, mgr *core.TxManager) TxMap
}

// conformanceCases enumerates every registered implementation plus the
// compositions the registry cannot name directly (sharded stores, the
// montage adapter).
func conformanceCases(t *testing.T) []implCase {
	t.Helper()
	var cases []implCase
	for _, name := range Names() {
		name := name
		cases = append(cases, implCase{
			name:       name,
			composable: Composable(name),
			mk: func(t *testing.T, mgr *core.TxManager) TxMap {
				m, err := New(name, Options{Mgr: mgr, Buckets: 1 << 8})
				if err != nil {
					t.Fatalf("New(%s): %v", name, err)
				}
				return m
			},
		})
		if Composable(name) {
			cases = append(cases, implCase{
				name:       "sharded-" + name + "-4",
				composable: true,
				mk: func(t *testing.T, mgr *core.TxManager) TxMap {
					s, err := NewShardedNamed(name, 4, Options{Mgr: mgr, Buckets: 1 << 8})
					if err != nil {
						t.Fatalf("NewShardedNamed(%s): %v", name, err)
					}
					return s
				},
			})
		}
	}
	mkMontage := func(t *testing.T, mgr *core.TxManager) TxMap {
		sys := montage.NewSystem(montage.Config{RegionWords: 1 << 20})
		idx := mhash.NewMap[montage.Entry[uint64]](mgr, 1<<8)
		return NewMontageMap(sys, montage.NewPStore[uint64](sys, idx, montage.U64Codec()))
	}
	cases = append(cases, implCase{name: "montage", composable: true, mk: mkMontage})
	cases = append(cases, implCase{
		name: "sharded-montage-4", composable: true,
		mk: func(t *testing.T, mgr *core.TxManager) TxMap {
			return NewSharded(4, func(int) TxMap { return mkMontage(t, mgr) })
		},
	})
	return cases
}

// modelStep applies one op to both the implementation and a model map and
// cross-checks every return value.
func modelStep(t *testing.T, m TxMap, tx *core.Tx, model map[uint64]uint64, r *rand.Rand) {
	t.Helper()
	key := uint64(r.Intn(1 << 7))
	val := r.Uint64() % 1000
	old, had := model[key]
	switch r.Intn(4) {
	case 0:
		gv, ok := m.Get(tx, key)
		if ok != had || (ok && gv != old) {
			t.Fatalf("Get(%d) = (%d,%v), model (%d,%v)", key, gv, ok, old, had)
		}
	case 1:
		pv, ok := m.Put(tx, key, val)
		if ok != had || (ok && pv != old) {
			t.Fatalf("Put(%d) = (%d,%v), model (%d,%v)", key, pv, ok, old, had)
		}
		model[key] = val
	case 2:
		ok := m.Insert(tx, key, val)
		if ok == had {
			t.Fatalf("Insert(%d) = %v with present=%v", key, ok, had)
		}
		if ok {
			model[key] = val
		}
	case 3:
		rv, ok := m.Remove(tx, key)
		if ok != had || (ok && rv != old) {
			t.Fatalf("Remove(%d) = (%d,%v), model (%d,%v)", key, rv, ok, old, had)
		}
		delete(model, key)
	}
}

// checkAgainstModel verifies Range coverage matches the model exactly.
func checkAgainstModel(t *testing.T, m TxMap, model map[uint64]uint64) {
	t.Helper()
	got := map[uint64]uint64{}
	m.Range(func(k, v uint64) bool {
		if _, dup := got[k]; dup {
			t.Fatalf("Range yielded key %d twice", k)
		}
		got[k] = v
		return true
	})
	if len(got) != len(model) {
		t.Fatalf("Range yielded %d entries, model has %d", len(got), len(model))
	}
	for k, v := range model {
		if gv, ok := got[k]; !ok || gv != v {
			t.Fatalf("key %d: Range (%d,%v), model %d", k, gv, ok, v)
		}
	}
}

// TestTxMapConformance is the table-driven conformance property test:
// every implementation, sequential and concurrent, transactional and
// bare (nil-Tx-equivalent) paths.
func TestTxMapConformance(t *testing.T) {
	for _, c := range conformanceCases(t) {
		c := c
		t.Run(c.name+"/sequential-bare", func(t *testing.T) {
			mgr := core.NewTxManager()
			tx := mgr.Register() // registered but never opened: the nil-Tx path
			m := Bind(c.mk(t, mgr), tx)
			model := map[uint64]uint64{}
			r := rand.New(rand.NewSource(1))
			for i := 0; i < 4000; i++ {
				modelStep(t, m, tx, model, r)
			}
			checkAgainstModel(t, m, model)
		})
		t.Run(c.name+"/sequential-transactional", func(t *testing.T) {
			mgr := core.NewTxManager()
			tx := mgr.Register()
			m := Bind(c.mk(t, mgr), tx)
			model := map[uint64]uint64{}
			r := rand.New(rand.NewSource(2))
			for i := 0; i < 1000; i++ {
				if c.composable {
					// A short transaction of 1-4 model steps; single
					// threaded, so it always commits on the first try.
					steps := 1 + r.Intn(4)
					if err := tx.RunRetry(func() error {
						for s := 0; s < steps; s++ {
							modelStep(t, m, tx, model, r)
						}
						return nil
					}); err != nil {
						t.Fatal(err)
					}
				} else {
					modelStep(t, m, tx, model, r)
				}
			}
			checkAgainstModel(t, m, model)
		})
		t.Run(c.name+"/concurrent", func(t *testing.T) {
			const workers = 4
			mgr := core.NewTxManager()
			base := c.mk(t, mgr)
			models := make([]map[uint64]uint64, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				models[w] = map[uint64]uint64{}
				wg.Add(1)
				go func() {
					defer wg.Done()
					tx := mgr.Register()
					m := Bind(base, tx)
					r := rand.New(rand.NewSource(int64(w) + 10))
					// Disjoint key residues per worker keep each model
					// authoritative for its keys under concurrency.
					for i := 0; i < 1500; i++ {
						key := uint64(r.Intn(1<<7))*workers + uint64(w)
						val := r.Uint64() % 1000
						// The op is chosen before the transaction runs so a
						// conflict-abort retry replays the same effect.
						op := r.Intn(3)
						do := func() error {
							switch op {
							case 0:
								m.Put(tx, key, val)
								models[w][key] = val
							case 1:
								if m.Insert(tx, key, val) {
									models[w][key] = val
								}
							case 2:
								m.Remove(tx, key)
								delete(models[w], key)
							}
							return nil
						}
						if c.composable {
							// Model mutations re-run on retry, but they are
							// idempotent per attempt outcome: last attempt
							// wins and matches the committed effect.
							if err := tx.RunRetry(do); err != nil {
								t.Error(err)
								return
							}
						} else {
							_ = do()
						}
					}
				}()
			}
			wg.Wait()
			merged := map[uint64]uint64{}
			for _, mm := range models {
				for k, v := range mm {
					merged[k] = v
				}
			}
			checkAgainstModel(t, base, merged)
		})
	}
}

func TestRegistryErrors(t *testing.T) {
	if _, err := New("no-such-structure", Options{}); err == nil {
		t.Fatal("unknown name did not error")
	}
	if _, err := New("hash", Options{}); err == nil {
		t.Fatal("missing Mgr did not error")
	}
	if _, err := NewShardedNamed("plain-skip", 4, Options{}); !errors.Is(err, errNotComposable) {
		t.Fatalf("multi-shard plain-skip: %v, want errNotComposable", err)
	}
	if s, err := NewShardedNamed("plain-skip", 1, Options{}); err != nil || s.ShardCount() != 1 {
		t.Fatalf("single-shard plain-skip: %v, %d shards", err, s.ShardCount())
	}
	if got, want := Names(), []string{"bst", "hash", "plain-skip", "rotating", "skip"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

func TestShardedRoundsToPowerOfTwo(t *testing.T) {
	mgr := core.NewTxManager()
	for _, tc := range []struct{ in, want int }{{0, 1}, {1, 1}, {3, 4}, {8, 8}, {9, 16}} {
		s, err := NewShardedNamed("hash", tc.in, Options{Mgr: mgr, Buckets: 1 << 6})
		if err != nil {
			t.Fatal(err)
		}
		if s.ShardCount() != tc.want {
			t.Fatalf("shards(%d) = %d, want %d", tc.in, s.ShardCount(), tc.want)
		}
	}
}

func TestShardOfMatchesStoreRouting(t *testing.T) {
	mgr := core.NewTxManager()
	s, err := NewShardedNamed("hash", 8, Options{Mgr: mgr, Buckets: 1 << 6})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 4096; k++ {
		s.Put(nil, k, k)
	}
	// Every key must be findable in exactly the shard ShardOf names.
	for k := uint64(0); k < 4096; k++ {
		sh := s.Shard(ShardOf(k, s.ShardCount()))
		if _, ok := sh.Get(nil, k); !ok {
			t.Fatalf("key %d not in shard %d", k, ShardOf(k, s.ShardCount()))
		}
	}
}

func TestShardedSpreadsKeys(t *testing.T) {
	// 512 shards also checks that routing reaches counts beyond 8 hash
	// bits, not just small stores.
	for _, n := range []int{8, 512} {
		counts := make([]int, n)
		total := n << 8
		for k := uint64(0); k < uint64(total); k++ {
			counts[ShardOf(k, n)]++
		}
		for i, c := range counts {
			if c < total/n/4 || c > total/n*4 {
				t.Fatalf("n=%d: shard %d holds %d of %d keys: bad spread", n, i, c, total)
			}
		}
	}
}

func ExampleShardedStore() {
	mgr := core.NewTxManager()
	s, _ := NewShardedNamed("hash", 4, Options{Mgr: mgr, Buckets: 1 << 10})
	tx := mgr.Register()
	_ = tx.RunRetry(func() error {
		s.Put(tx, 1, 100)
		s.Put(tx, 2, 200) // possibly a different shard: still one transaction
		return nil
	})
	v1, _ := s.Get(nil, 1)
	v2, _ := s.Get(nil, 2)
	fmt.Println(v1, v2, s.ShardCount())
	// Output: 100 200 4
}
