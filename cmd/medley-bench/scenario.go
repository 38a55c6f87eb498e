package main

import (
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"time"

	"medley/internal/harness"
	"medley/internal/tpcc"
)

// systemOpts bundles the shared sizing flags for the harness system
// registry; every system spec resolves through harness.NewSystem against
// these options.
func systemOpts() harness.SystemOpts {
	return harness.SystemOpts{
		Buckets: *buckets, KeyRange: uint64(*keyRange),
		WriteBackLatency: *nvmWB, FenceLatency: *nvmFence, StoreLatency: *nvmStore,
	}
}

// tpccScale sizes the TPC-C database for scenario mode: the figure-9 scale
// by default, a tiny population under -short.
func tpccScale() tpcc.Scale {
	if *short {
		return tpcc.Scale{Warehouses: 2, Districts: 4, Customers: 20, Items: 200}
	}
	return tpcc.DefaultScale()
}

// selectSystems is the one -systems resolver: the comma-separated flag,
// or auto's list when it says "auto", trimmed and validated for the
// scenario (parse + lookup only, no construction) so an unknown name fails
// before any benchmarking.
func selectSystems(sc harness.Scenario, auto []string) ([]string, error) {
	specs := auto
	if *systemsFlag != "auto" {
		specs = strings.Split(*systemsFlag, ",")
	}
	out := make([]string, len(specs))
	for i, spec := range specs {
		out[i] = strings.TrimSpace(spec)
		if err := harness.ValidateScenarioSystemSpec(sc, out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// experiment is one scenario on a list of systems at a list of thread
// counts: what -scenario runs one of and -fig several of.
type experiment struct {
	heading string // printed above the rows in text mode, when set
	sc      harness.Scenario
	systems []string
	threads []int
}

// runExperiments is the one run loop: every experiment, system and thread
// count, a fresh system per point, one Report named report. Any error
// (unknown system, unwritable -out) propagates to main's non-zero exit.
func runExperiments(report string, exps []experiment) error {
	var ran []int
	for _, e := range exps {
		for _, th := range e.threads {
			if !slices.Contains(ran, th) {
				ran = append(ran, th)
			}
		}
	}
	rep := harness.NewReport(report, ran, *durationFlag, uint64(*keyRange), *preload, *seedFlag)
	for _, e := range exps {
		if e.heading != "" && !*jsonFlag {
			fmt.Printf("\n== %s ==\n", e.heading)
		}
		for _, spec := range e.systems {
			for _, th := range e.threads {
				sys, err := harness.NewScenarioSystem(e.sc, spec, tpccScale(), systemOpts())
				if err != nil {
					return err
				}
				res := harness.RunScenario(sys, e.sc, harness.EngineConfig{
					Threads: th, Duration: *durationFlag,
					KeyRange: uint64(*keyRange), Preload: *preload, Seed: *seedFlag,
				})
				rep.Add(res)
				if !*jsonFlag {
					printScenarioResult(res, e.heading == "")
				}
			}
		}
	}
	return emitReport(rep)
}

// runScenario is the -scenario entry point: one row of the scenario table
// (or of the chaos table beside it) on its systems.
func runScenario(name string, threads []int) error {
	if name == "list" {
		usage := harness.ScenarioUsage()
		for n, row := range chaosRows {
			usage[n] = row.description
		}
		for _, n := range slices.Sorted(maps.Keys(usage)) {
			fmt.Printf("  %-26s %s\n", n, usage[n])
		}
		return nil
	}
	if row, ok := chaosRows[name]; ok {
		return runChaosScenario(name, row, threads)
	}
	sc, err := harness.LookupScenario(name)
	if err != nil {
		return fmt.Errorf("%w; chaos: %v", err, slices.Sorted(maps.Keys(chaosRows)))
	}
	systems, err := selectSystems(sc, sc.Systems)
	if err != nil {
		return err
	}
	return runExperiments(name, []experiment{{sc: sc, systems: systems, threads: threads}})
}

// runFigures is the -fig entry point: a figure is scenario rows on one
// system list (harness.Figures), so it runs — and reports — like any
// other experiment.
func runFigures(name string, threads []int) error {
	var exps []experiment
	for _, f := range harness.Figures {
		if name != f.Name && name != "all" {
			continue
		}
		ths := threads
		if f.LargestOnly {
			ths = []int{slices.Max(threads)}
		}
		for _, scName := range f.Scenarios {
			sc, err := harness.LookupScenario(scName)
			if err != nil {
				return err
			}
			systems, err := selectSystems(sc, f.Systems)
			if err != nil {
				return err
			}
			exps = append(exps, experiment{heading: f.Title + ": " + scName, sc: sc, systems: systems, threads: ths})
		}
	}
	if exps == nil {
		return fmt.Errorf("unknown -fig %q", name)
	}
	return runExperiments("fig"+name, exps)
}

// emitReport writes the JSON report when -json or -out asks for one: to
// stdout or -out, surfacing close errors (a truncated BENCH_*.json must
// fail the run, not pass silently).
func emitReport(rep *harness.Report) error {
	if !*jsonFlag && *outFlag == "" {
		return nil
	}
	if *outFlag == "" {
		return rep.WriteJSON(os.Stdout)
	}
	f, err := os.Create(*outFlag)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printScenarioResult prints the headline row of one point and, below it,
// every block the run produced. Under a figure heading (named false) a
// point is its headline and consistency verdict alone — one aligned row
// per system and thread count, the scenario left to the heading.
func printScenarioResult(res harness.ScenarioResult, named bool) {
	m := res.Measured
	if named {
		fmt.Printf("%-20s ", res.Scenario)
	} else {
		fmt.Print("  ")
	}
	fmt.Printf("%-24s threads=%-3d throughput=%12.0f txn/s  abort=%6.2f%%  avg=%8.0fns  p50=%8.0fns  p99=%8.0fns\n",
		res.System, res.Threads, m.Throughput, 100*m.AbortRate, m.Latency.AvgNs, m.Latency.P50Ns, m.Latency.P99Ns)
	if c := m.Consistency; c != nil {
		if c.Violations == 0 {
			fmt.Printf("  consistency         OK\n")
		} else {
			var classes []string
			for _, cc := range c.Classes {
				classes = append(classes, fmt.Sprintf("%s=%d", cc.Class, cc.Count))
			}
			fmt.Printf("  consistency         FAILED: %d violations (%s)\n",
				c.Violations, strings.Join(classes, " "))
		}
	}
	if !named {
		return
	}
	if mm := m.Memory; mm != nil {
		fmt.Printf("  memory              allocs/op=%8.2f  bytes/op=%8.1f  gc-pause=%8v  pool-hit=%5.1f%%\n",
			mm.AllocsPerOp, mm.BytesPerOp, time.Duration(mm.GCPauseNs), 100*mm.PoolHitRate)
	}
	if fp := m.Fastpath; fp != nil && fp.Commits > 0 {
		fmt.Printf("  fastpath            read-only=%d  single-write=%d  share=%5.1f%%\n",
			fp.ReadOnlyCommits, fp.FastPathCommits-fp.ReadOnlyCommits, 100*fp.FastpathShare)
	}
	if len(res.Phases) > 1 {
		for _, ph := range res.Phases {
			if ph.Crash {
				continue // summarized by the recovery line below
			}
			fmt.Printf("  phase %-12s throughput=%12.0f txn/s  abort=%6.2f%%  p50=%8.0fns  p99=%8.0fns\n",
				ph.Phase, ph.Throughput, 100*ph.AbortRate, ph.Latency.P50Ns, ph.Latency.P99Ns)
		}
	}
	for _, k := range m.Kinds {
		fmt.Printf("  tx %-16s txns=%-10d aborts=%-8d avg=%8.0fns\n", k.Kind, k.Txns, k.Aborts, k.AvgNs)
	}
	if fc := res.FinalCheck; fc != nil && fc.Checked {
		if v := fc.Violations; v == 0 {
			fmt.Printf("  final-check         OK (%d entries)\n", fc.ModelEntries)
		} else {
			fmt.Printf("  final-check         FAILED: %d violations (missing=%d mismatched=%d leaked=%d)\n",
				v, fc.Missing, fc.Mismatched, fc.Leaked)
		}
	}
	if t := m.Telemetry; t != nil && len(t.Gauges) > 0 {
		var gs []string
		for _, g := range t.Gauges {
			gs = append(gs, fmt.Sprintf("%s=%.3f", g.Name, g.Value))
		}
		fmt.Printf("  telemetry           %s\n", strings.Join(gs, "  "))
	}
	if r := res.Recovery; r != nil {
		if !r.Recoverable {
			fmt.Printf("  crash-recover       recoverable=false\n")
		} else {
			fmt.Printf("  crash-recover       recovered=%d/%d entries  violations=%d  recovery=%v\n",
				r.Recovered, r.ModelEntries, r.Violations, time.Duration(r.RecoveryNs))
		}
	}
}
