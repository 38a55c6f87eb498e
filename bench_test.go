// Benchmarks regenerating the paper's evaluation at testing.B scale: one
// sub-benchmark per figure, system and scenario row. These run each
// system's transaction loop on a preloaded structure with the paper's
// workload parameters scaled to laptop size; cmd/medley-bench performs the
// full thread sweeps.
package medley_test

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"medley/internal/harness"
	"medley/internal/tpcc"
)

// benchKeyRange and benchPreload are scaled-down versions of the paper's
// 1M/0.5M microbenchmark parameters so the preload fits in benchmark time;
// benchScale is the TPC-C population at the same size.
const (
	benchKeyRange = 1 << 16
	benchPreload  = 1 << 15
	benchBuckets  = 1 << 16
)

var benchScale = tpcc.Scale{Warehouses: 2, Districts: 4, Customers: 30, Items: 200}

// benchOpts sizes every registry system for benchmark time, with the NVM
// latencies cmd/medley-bench injects by default.
var benchOpts = harness.SystemOpts{
	Buckets: benchBuckets, KeyRange: benchKeyRange,
	WriteBackLatency: 300 * time.Nanosecond, FenceLatency: 100 * time.Nanosecond,
	StoreLatency: 60 * time.Nanosecond,
}

// benchTxns builds the system a spec names for the named scenario,
// preloads it and measures b.N transactions of the scenario's first
// measured phase — the per-transaction cost view of the thread sweeps
// cmd/medley-bench performs. (A TPC-C system loads its own population and
// runs one transaction of its mix per call, whatever the generator says.)
func benchTxns(b *testing.B, scenario, spec string) {
	b.Helper()
	sc, err := harness.LookupScenario(scenario)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := harness.NewScenarioSystem(sc, spec, benchScale, benchOpts)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	keys := make([]uint64, benchPreload)
	for i := range keys {
		keys[i] = uint64(rng.Int63n(benchKeyRange))
	}
	sys.Preload(keys)
	stop := sys.Start()
	defer stop()
	ex := sys.NewExecutor()
	mix := sc.Phases[len(sc.Phases)-1].Mix
	for _, ph := range sc.Phases {
		if ph.Measure {
			mix = ph.Mix
			break
		}
	}
	gen := harness.NewTxGen(sc.Dist, benchKeyRange, mix, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ex.ExecBatch(gen.Next(), nil)
	}
}

// BenchmarkFigure is Figures 7-10 as sub-benchmarks,
// Fig<N>/<spec>/<scenario>, over the same table cmd/medley-bench -fig
// runs: each figure is scenario rows (the paper's write-only 0:1:1, mixed
// 2:1:1 and read-mostly 18:1:1 mixes of 1-10 uniform-random operations;
// TPC-C newOrder+payment for Figure 9) on the system specs it compares.
func BenchmarkFigure(b *testing.B) {
	for _, f := range harness.Figures {
		for _, scenario := range f.Scenarios {
			for _, spec := range f.Systems {
				b.Run("Fig"+f.Name+"/"+spec+"/"+scenario, func(b *testing.B) {
					benchTxns(b, scenario, spec)
				})
			}
		}
	}
}

// ---- Workload-engine scenarios (beyond the paper's figures) ----

// BenchmarkScenario measures the named scenarios' steady-state mixes as
// sub-benchmarks, <scenario>/<spec>.
func BenchmarkScenario(b *testing.B) {
	for _, c := range []struct{ scenario, spec string }{
		{"zipfian-mixed", "medley-hash"},
		{"zipfian-mixed", "onefile-hash"},
		{"hotspot-readmostly", "medley-hash"},
		{"transfer", "medley-hash"},
		{"tpcc-mini", "medley-hash"},
	} {
		b.Run(c.scenario+"/"+c.spec, func(b *testing.B) {
			benchTxns(b, c.scenario, c.spec)
		})
	}
}

// BenchmarkTxGen isolates workload generation itself, which must stay far
// cheaper than any system's transaction path for measurements to be about
// the systems.
func BenchmarkTxGen(b *testing.B) {
	gen := harness.NewTxGen(harness.Dist{Kind: harness.DistZipfian, Theta: 1.2}, benchKeyRange,
		harness.Mix{Ratio: harness.Ratio{Get: 2, Insert: 1, Remove: 1}, TxMin: 1, TxMax: 10,
			Mixed: 2, Transfer: 1, Order: 1}, 42)
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n += len(gen.Next())
	}
	sink.Add(uint64(n))
}

// guard against compiler eliding the workloads entirely.
var sink atomic.Uint64

func init() { sink.Store(1) }
