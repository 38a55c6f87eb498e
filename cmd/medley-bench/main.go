// Command medley-bench regenerates the paper's evaluation (Section 6) and
// runs the workload engine's scenario suite beyond it. An experiment is a
// scenario row (key distribution x transaction mix x phase script, plus the
// systems it compares by default) from the table in internal/harness; one
// loop runs rows on systems at each thread count into one report.
//
// -scenario runs one row:
//
//	medley-bench -scenario zipfian-mixed -json
//	medley-bench -scenario list
//	medley-bench -scenario tpcc-mini -systems medley-hash,onefile-hash,tdsl
//	medley-bench -scenario crash-recover-zipfian -json
//	medley-bench -scenario sharded-zipfian -systems medley-hash,medley-hash@8
//
// -fig runs the rows of one of the paper's plots on that plot's systems
// (harness.Figures):
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
// Text output is one whitespace-aligned row per system and thread count
// under a heading per row, matching the shape of the paper's plots.
// Absolute numbers depend on the host (the paper used 2x20-core Xeon +
// Optane; see EXPERIMENTS.md); the orderings and ratios are the
// reproduction target.
//
// Systems resolve through the harness registry (internal/harness) by one
// spec grammar, base{-nofast|-persistoff}[@N]: a suffix
// switches one ablation axis off on a base that has it ('-systems list'
// shows which), and "@N" runs a shardable system over an N-way
// hash-partitioned ShardedStore (internal/kv): N structure instances
// under one TxManager, cross-shard transactions still strictly
// serializable. Competitor systems (OneFile, TDSL, LFTT) cannot shard —
// their transactions live in their own STMs — and refuse a shard count.
// -systems defaults to "auto": the row's own list (a figure's list in
// -fig mode).
//
// The crash-recover-* scenarios crash the simulated NVM mid-run, time
// recovery, and verify the recovered state against the committed-operation
// model (see EXPERIMENTS.md).
//
// -json emits a machine-readable Report (see internal/harness/report.go)
// with throughput, abort rate and p50/p99 latency per system, scenario,
// phase and thread count; -out writes it to a file (conventionally
// BENCH_<scenario>.json or BENCH_fig<N>.json) instead of stdout.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"medley/internal/harness"
)

var (
	figFlag      = flag.String("fig", "all", "figure to regenerate: 7, 8, 9, 10a, 10b, 10c, all")
	scenarioFlag = flag.String("scenario", "", "run a workload scenario instead of a figure ('list' to enumerate)")
	systemsFlag  = flag.String("systems", "auto",
		"comma-separated system specs ('list' to enumerate, 'auto' is the scenario's or figure's own list)")
	jsonFlag     = flag.Bool("json", false, "emit the report as JSON")
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
	short        = flag.Bool("short", false, "tiny configuration for smoke runs")
	cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile   = flag.String("memprofile", "", "write an allocation profile to this file at exit")
)

func main() {
	os.Exit(run(os.Args[1:]))
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
func run(args []string) int {
	if err := flag.CommandLine.Parse(args); err != nil {
		return 2
	}
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
	threads, err := parseThreads(*threadsFlag)
	if err == nil {
		switch {
		case *systemsFlag == "list":
			for _, line := range harness.SystemUsage() {
				fmt.Println(" ", line)
			}
		case *targetFlag != "":
			err = runOpenLoop()
		case *scenarioFlag != "":
			err = runScenario(*scenarioFlag, threads)
		default:
			err = runFigures(*figFlag, threads)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
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
