// Benchmarks regenerating the paper's evaluation at testing.B scale: one
// benchmark family per figure. These run each system's transaction loop on
// a preloaded structure with the paper's workload parameters scaled to
// laptop size; cmd/medley-bench performs the full thread sweeps.
package medley_test

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"medley/internal/harness"
	"medley/internal/montage"
	"medley/internal/onefile"
	"medley/internal/tpcc"
)

// benchKeyRange and benchPreload are scaled-down versions of the paper's
// 1M/0.5M microbenchmark parameters so the preload fits in benchmark time.
const (
	benchKeyRange = 1 << 16
	benchPreload  = 1 << 15
	benchBuckets  = 1 << 16
)

// benchOpts sizes every registry system for benchmark time, with the NVM
// latencies cmd/medley-bench injects by default.
var benchOpts = harness.SystemOpts{
	Buckets: benchBuckets, KeyRange: benchKeyRange,
	WriteBackLatency: 300 * time.Nanosecond, FenceLatency: 100 * time.Nanosecond,
	StoreLatency: 60 * time.Nanosecond,
}

// benchTxns builds the system a spec names, preloads it and measures b.N
// transactions drawn from dist and mix — the per-transaction cost view of
// the thread sweeps cmd/medley-bench performs.
func benchTxns(b *testing.B, spec string, dist harness.Dist, mix harness.Mix) {
	b.Helper()
	sys, err := harness.NewSystem(spec, benchOpts)
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
	w := sys.NewWorker()
	gen := harness.NewTxGen(dist, benchKeyRange, mix, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Do(gen.Next())
	}
}

// BenchmarkFigure is Figures 7, 8 and 10 as sub-benchmarks,
// Fig<N>/<spec>/<mix>: each figure is the set of system specs it compares
// (the same table cmd/medley-bench -fig resolves), under the paper's
// write-only 0:1:1 (W), mixed 2:1:1 (M) and read-mostly 18:1:1 (R) mixes
// of 1-10 uniform-random operations.
func BenchmarkFigure(b *testing.B) {
	figures := []struct {
		name  string
		specs []string
	}{
		{"Fig7", []string{"medley-hash", "txmontage-hash", "onefile-hash", "ponefile-hash"}},
		{"Fig8", []string{"medley-skip", "txmontage-skip", "onefile-skip", "ponefile-skip", "tdsl", "lftt"}},
		{"Fig10a", []string{"plain-skip", "txoff-skip", "medley-skip"}},
		{"Fig10b", []string{"txmontage-skip-persistoff"}},
		{"Fig10c", []string{"txmontage-skip"}},
	}
	for _, f := range figures {
		for _, spec := range f.specs {
			for i, mix := range []string{"W", "M", "R"} {
				b.Run(f.name+"/"+spec+"/"+mix, func(b *testing.B) {
					benchTxns(b, spec, harness.Dist{Kind: harness.DistUniform},
						harness.Mix{Ratio: harness.PaperRatios[i], TxMin: 1, TxMax: 10, Mixed: 1})
				})
			}
		}
	}
}

// ---- Figure 9: TPC-C subset ----

func benchTPCC(b *testing.B, mk func() tpcc.Backend) {
	b.Helper()
	scale := tpcc.Scale{Warehouses: 2, Districts: 4, Customers: 30, Items: 200}
	back := mk()
	if err := tpcc.Load(back, scale); err != nil {
		b.Fatal(err)
	}
	var stopAdv func()
	if mb, ok := back.(*tpcc.MontageBackend); ok {
		stopAdv = mb.StartAdvancer(20 * time.Millisecond)
		defer stopAdv()
	}
	d := tpcc.NewDriver(back, scale, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9_TPCC_Medley(b *testing.B) {
	benchTPCC(b, func() tpcc.Backend { return tpcc.NewMedleyBackend() })
}
func BenchmarkFig9_TPCC_TxMontage(b *testing.B) {
	benchTPCC(b, func() tpcc.Backend {
		return tpcc.NewMontageBackend(montage.NewSystem(montage.Config{
			RegionWords:      1 << 24,
			WriteBackLatency: 300 * time.Nanosecond,
			FenceLatency:     100 * time.Nanosecond,
			StoreLatency:     60 * time.Nanosecond,
		}))
	})
}
func BenchmarkFig9_TPCC_OneFile(b *testing.B) {
	benchTPCC(b, func() tpcc.Backend { return tpcc.NewOneFileBackend(onefile.New(), "OneFile") })
}
func BenchmarkFig9_TPCC_TDSL(b *testing.B) {
	benchTPCC(b, func() tpcc.Backend { return tpcc.NewTDSLBackend() })
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
			sc, err := harness.LookupScenario(c.scenario)
			if err != nil {
				b.Fatal(err)
			}
			mix := sc.Phases[len(sc.Phases)-1].Mix
			for _, ph := range sc.Phases {
				if ph.Measure {
					mix = ph.Mix
					break
				}
			}
			benchTxns(b, c.spec, sc.Dist, mix)
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
