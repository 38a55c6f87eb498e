package store

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// preloadKeys is what the benchmark preloads: every even key of a 2^20
// key space, in key order.
func preloadKeys() []uint64 {
	keys := make([]uint64, 0, 1<<19)
	for k := uint64(0); k < 1<<20; k += 2 {
		keys = append(keys, k)
	}
	return keys
}

func newPreloadSystem(tb testing.TB, spec string, buckets int) *System {
	tb.Helper()
	st, err := New(spec, Opts{Buckets: buckets, KeyRange: 1 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	return st.(*System)
}

// scramble returns n keys below 2^bits in no particular order, with
// repeats when n is near 2^bits.
func scramble(n int, bits uint) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * 0x5851F42D4C957F2D >> (64 - bits)
	}
	return keys
}

// checkPreload loads keys into a fresh system and checks that it holds
// exactly the key set, each key bound to itself, and that the caller's
// slice comes back untouched.
func checkPreload(t *testing.T, spec string, buckets int, keys []uint64) {
	t.Helper()
	sys := newPreloadSystem(t, spec, buckets)
	orig := slices.Clone(keys)
	sys.Preload(keys)
	if !slices.Equal(keys, orig) {
		t.Fatal("Preload modified the caller's slice")
	}
	want := map[uint64]bool{}
	for _, k := range keys {
		want[k] = true
	}
	got := map[uint64]bool{}
	sys.StateSnapshot(func(k, v uint64) bool {
		if v != k {
			t.Errorf("key %d holds %d", k, v)
		}
		if got[k] {
			t.Errorf("key %d seen twice", k)
		}
		got[k] = true
		return true
	})
	for k := range want {
		if !got[k] {
			t.Errorf("key %d missing", k)
		}
	}
	if len(got) != len(want) {
		t.Errorf("store holds %d keys, want %d", len(got), len(want))
	}
	if n := sys.sh.Len(); n != len(want) {
		t.Errorf("Len %d, want %d", n, len(want))
	}
}

// TestPreloadLoadsEveryKey checks the bulk load on every kind of shard
// it sees (hash, skiplist and BST shards, the baselines outside
// transactions) with fewer, as many and more workers than shards, and on
// a store of more shards than a load has parts, so that a part spans
// several shards.
func TestPreloadLoadsEveryKey(t *testing.T) {
	inputs := map[string][]uint64{
		"scrambled": append(scramble(6000, 13), 1<<40, 0, 1<<40),
		"empty":     {},
		"one":       {42},
	}
	systems := []struct {
		spec    string
		buckets int
	}{
		{"medley-hash", 1 << 12},
		{"medley-hash@8", 1 << 10},
		{"medley-hash@32", 1 << 8},
		{"medley-skip@4", 0},
		{"medley-bst", 0},
		{"plain-skip", 0},
		{"txoff-skip", 0},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		for _, sc := range systems {
			for name, keys := range inputs {
				t.Run(fmt.Sprintf("%s/procs=%d/%s", sc.spec, procs, name), func(t *testing.T) {
					checkPreload(t, sc.spec, sc.buckets, keys)
				})
			}
		}
	}
}

// TestPreloadTransientMemory bounds what a load allocates beyond the
// table it fills: the loader must not copy the caller's keys, and each
// worker may hold only a window of 1,024 of them and its sorted copy, 16
// KB. Its own allocations are measured against the same store filled by
// one goroutine's bare puts, which allocate exactly the slab chunks, and
// must stay under 1/64 of one copy of the keys (64 KB of 4 MB for 2^19
// keys): two workers' windows fit, windows of 2^13 keys would not. Under
// the race detector a sync.Pool drops a quarter of what it is given, so
// every bare put may claim a fresh slab segment and the twin no longer
// measures the slab: the bound is checked only without it.
func TestPreloadTransientMemory(t *testing.T) {
	if testing.Short() || raceEnabled() {
		t.Skip("fills two 2^19-key stores; the slab comparison needs a build without -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	keys := preloadKeys()
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	twin := newPreloadSystem(t, "medley-hash@8", 1<<16)
	slab := allocated(func() {
		for _, k := range keys {
			twin.m.Put(nil, k, k)
		}
	})
	sys := newPreloadSystem(t, "medley-hash@8", 1<<16)
	load := allocated(func() { sys.Preload(keys) })
	copyBytes := uint64(len(keys)) * 8
	extra := int64(load) - int64(slab)
	t.Logf("Preload allocated %d B, bare puts %d B: %d B transient (one copy of the keys is %d B)", load, slab, extra, copyBytes)
	if extra > int64(copyBytes/64) {
		t.Fatalf("Preload allocated %d B beyond the slab, over 1/64 of a copy of the keys (%d B)", extra, copyBytes/64)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// BenchmarkPreload is the bulk-load ruler: 2^19 even keys into the
// benchmark's store (medley-hash@8, 2^16 buckets a shard), a fresh store
// per iteration, reported per key.
func BenchmarkPreload(b *testing.B) {
	keys := preloadKeys()
	b.ReportAllocs()
	for range b.N {
		b.StopTimer()
		sys := newPreloadSystem(b, "medley-hash@8", 1<<16)
		b.StartTimer()
		sys.Preload(keys)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/key")
}
