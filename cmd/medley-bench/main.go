// Command medley-bench regenerates the paper's evaluation (Section 6) and
// runs the workload engine's scenario suite beyond it.
//
// Figure mode reproduces the paper's plots:
//
//	-fig 7    transactional hash-table throughput (Medley, txMontage,
//	          OneFile, POneFile) at each get:insert:remove ratio
//	-fig 8    transactional skiplist throughput (+ TDSL, LFTT)
//	-fig 9    TPC-C (newOrder+payment 1:1) throughput
//	-fig 10a  skiplist latency on DRAM (Original / TxOff / TxOn)
//	-fig 10b  transient latency with payloads on simulated NVM
//	-fig 10c  fully persistent txMontage latency
//	-fig all  everything
//
// Output is a whitespace-aligned series per system, one row per thread
// count, matching the shape of the paper's plots. Absolute numbers depend
// on the host (the paper used 2x20-core Xeon + Optane; see EXPERIMENTS.md);
// the orderings and ratios are the reproduction target.
//
// Scenario mode drives any registered system through a named workload
// scenario (key distribution x transaction mix x phase script):
//
//	medley-bench -scenario zipfian-mixed -json
//	medley-bench -scenario list
//	medley-bench -scenario tpcc-mini -systems medley-hash,onefile-hash,tdsl
//	medley-bench -scenario crash-recover-zipfian -json
//	medley-bench -scenario sharded-zipfian -systems medley-hash,medley-hash@8
//
// Systems resolve through the harness registry (internal/harness) by one
// spec grammar, base{-nopool|-nofast|-nogroup|-persistoff}[@N]: a suffix
// switches one ablation axis off on a base that has it ('-systems list'
// shows which), and "@N" runs a shardable system over an N-way
// hash-partitioned ShardedStore (internal/kv): N structure instances
// under one TxManager, cross-shard transactions still strictly
// serializable. Competitor systems (OneFile, TDSL, LFTT) cannot shard —
// their transactions live in their own STMs — and refuse a shard count.
//
// The crash-recover-* scenarios crash the simulated NVM mid-run, time
// recovery, and verify the recovered state against the committed-operation
// model (see EXPERIMENTS.md). -systems defaults to "auto": the persistent
// systems for crash scenarios, the single-vs-sharded comparison set for
// sharded-* scenarios, and every transient structure plus the competitors
// otherwise.
//
// -json emits a machine-readable Report (see internal/harness/report.go)
// with throughput, abort rate and p50/p99 latency per system, phase and
// thread count; -out writes it to a file (conventionally
// BENCH_<scenario>.json) instead of stdout.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"medley/internal/harness"
	"medley/internal/montage"
	"medley/internal/onefile"
	"medley/internal/tpcc"
)

var (
	figFlag      = flag.String("fig", "all", "figure to regenerate: 7, 8, 9, 10a, 10b, 10c, all")
	scenarioFlag = flag.String("scenario", "", "run a workload scenario instead of a figure ('list' to enumerate)")
	systemsFlag  = flag.String("systems", "auto",
		"comma-separated systems for -scenario ('list' to enumerate, 'auto' picks a set fitting the scenario)")
	jsonFlag     = flag.Bool("json", false, "emit the scenario report as JSON")
	outFlag      = flag.String("out", "", "write the JSON report to this file (e.g. BENCH_zipfian-mixed.json)")
	seedFlag     = flag.Int64("seed", 42, "workload generator seed")
	threadsFlag  = flag.String("threads", "1,2,4,8", "comma-separated thread counts")
	durationFlag = flag.Duration("duration", 2*time.Second, "measurement duration per point")
	keyRange     = flag.Int("keyrange", 1<<20, "microbenchmark key space (paper: 1M)")
	preload      = flag.Int("preload", 1<<19, "preloaded pairs (paper: 0.5M)")
	buckets      = flag.Int("buckets", 1<<20, "hash table buckets (paper: 1M)")
	nvmWB        = flag.Duration("nvm-writeback", 300*time.Nanosecond, "injected NVM write-back latency per line")
	nvmFence     = flag.Duration("nvm-fence", 100*time.Nanosecond, "injected NVM fence latency")
	nvmStore     = flag.Duration("nvm-store", 60*time.Nanosecond, "injected NVM store latency per word")
	advEvery     = flag.Duration("advance-every", 20*time.Millisecond, "txMontage epoch length (paper: ~10-100ms)")
	short        = flag.Bool("short", false, "tiny configuration for smoke runs")
	cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile   = flag.String("memprofile", "", "write an allocation profile to this file at exit")
)

func main() {
	os.Exit(run())
}

// profiles starts the requested pprof collection and returns the teardown
// to run before exit. Profile file errors are fatal up front: a benchmark
// run whose profile silently failed to open wastes the whole measurement.
func profiles() (func(), error) {
	var stops []func()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return nil, err
		}
		stops = append(stops, func() {
			runtime.GC() // flush recent allocations into the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
			f.Close()
		})
	}
	return func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}, nil
}

// run is main with a single exit point: every error path returns a
// non-zero status (CI smoke depends on unknown -scenario/-systems/-fig
// values failing the job, not just printing).
func run() int {
	flag.Parse()
	stopProfiles, err := profiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer stopProfiles()
	if *short {
		*keyRange = 1 << 12
		*preload = 1 << 11
		*buckets = 1 << 12
		*durationFlag = 300 * time.Millisecond
	}
	if *systemsFlag == "list" {
		for _, line := range harness.SystemUsage() {
			fmt.Println(" ", line)
		}
		return 0
	}
	threads, err := parseThreads(*threadsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *targetFlag != "" {
		if err := runOpenLoop(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		return 0
	}
	if *scenarioFlag != "" {
		if err := runScenario(*scenarioFlag, threads); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		return 0
	}
	ran := false
	for _, f := range figures {
		if *figFlag == f.name || *figFlag == "all" {
			f.run(threads)
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown -fig %q\n", *figFlag)
		return 2
	}
	return 0
}

func parseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -threads %q", s)
		}
		out = append(out, n)
	}
	return out, nil
}

func cfg(th int, ratio harness.Ratio) harness.Config {
	return harness.Config{
		Threads: th, Duration: *durationFlag,
		KeyRange: uint64(*keyRange), Preload: *preload,
		TxMin: 1, TxMax: 10, Ratio: ratio, Seed: *seedFlag,
	}
}

// figure is one -fig value. The microbenchmark figures are a title and
// the system specs they compare, resolved through the same registry and
// flags (-buckets, -keyrange, -nvm-*, -advance-every) as scenario mode.
type figure struct {
	name string
	run  func(threads []int)
}

var figures = []figure{
	{"7", micro("Figure 7 (hash table)", false,
		"medley-hash", "txmontage-hash", "onefile-hash", "ponefile-hash")},
	{"8", micro("Figure 8 (skiplist)", false,
		"medley-skip", "txmontage-skip", "onefile-skip", "ponefile-skip", "tdsl", "lftt")},
	{"9", fig9},
	// The paper reports Figure 10 at 40 threads; we use the largest
	// requested thread count.
	{"10a", micro("Figure 10a (skiplist latency, DRAM)", true,
		"plain-skip", "txoff-skip", "medley-skip")},
	{"10b", micro("Figure 10b (latency, payloads on NVM, persistence off)", true,
		"txmontage-skip-persistoff")},
	{"10c", micro("Figure 10c (latency, txMontage fully persistent)", true,
		"txmontage-skip")},
}

// micro runs the paper's microbenchmark: each spec, fresh per point, at
// every thread count (or only the largest) and each get:insert:remove
// ratio, one whitespace-aligned row per point.
func micro(title string, largestOnly bool, specs ...string) func([]int) {
	return func(threads []int) {
		if largestOnly {
			threads = threads[len(threads)-1:]
		}
		for _, ratio := range harness.PaperRatios {
			fmt.Printf("\n== %s get:insert:remove %s ==\n", title, ratio)
			for _, spec := range specs {
				for _, th := range threads {
					sys, err := harness.NewSystem(spec, systemOpts())
					if err != nil {
						panic(err) // the specs above are literals
					}
					res := harness.Run(sys, cfg(th, ratio))
					fmt.Printf("  %-24s threads=%-3d throughput=%12.0f txn/s  latency=%8.0f ns/txn\n",
						res.System, th, res.Throughput, res.LatencyNs)
				}
			}
		}
	}
}

func fig9(threads []int) {
	fmt.Printf("\n== Figure 9 (TPC-C: newOrder+payment 1:1) ==\n")
	scale := tpcc.DefaultScale()
	if *short {
		scale = tpcc.Scale{Warehouses: 2, Districts: 4, Customers: 20, Items: 200}
	}
	type mkBackend struct {
		name string
		mk   func() tpcc.Backend
	}
	backends := []mkBackend{
		{"Medley", func() tpcc.Backend { return tpcc.NewMedleyBackend() }},
		{"txMontage", func() tpcc.Backend {
			return tpcc.NewMontageBackend(montage.NewSystem(montage.Config{
				RegionWords:      1 << 26,
				WriteBackLatency: *nvmWB, FenceLatency: *nvmFence, StoreLatency: *nvmStore,
			}))
		}},
		{"OneFile", func() tpcc.Backend { return tpcc.NewOneFileBackend(onefile.New(), "OneFile") }},
		{"TDSL", func() tpcc.Backend { return tpcc.NewTDSLBackend() }},
	}
	for _, be := range backends {
		for _, th := range threads {
			b := be.mk()
			if err := tpcc.Load(b, scale); err != nil {
				fmt.Fprintf(os.Stderr, "load %s: %v\n", be.name, err)
				os.Exit(1)
			}
			var stopMontage func()
			if mb, ok := b.(*tpcc.MontageBackend); ok {
				stopMontage = mb.StartAdvancer(*advEvery)
			}
			var txns atomic.Uint64
			var stop atomic.Bool
			var wg sync.WaitGroup
			for g := 0; g < th; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					d := tpcc.NewDriver(b, scale, seed)
					var local uint64
					for !stop.Load() {
						if _, err := d.Step(); err != nil {
							fmt.Fprintf(os.Stderr, "tpcc step: %v\n", err)
							os.Exit(1)
						}
						local++
					}
					txns.Add(local)
				}(int64(g)*13 + 7)
			}
			begin := time.Now()
			time.Sleep(*durationFlag)
			stop.Store(true)
			wg.Wait()
			elapsed := time.Since(begin)
			if stopMontage != nil {
				stopMontage()
			}
			fmt.Printf("  %-24s threads=%-3d throughput=%12.0f txn/s\n",
				be.name, th, float64(txns.Load())/elapsed.Seconds())
		}
	}
}
