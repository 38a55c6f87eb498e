package main

import (
	"fmt"
	"os"
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
		AdvanceEvery: *advEvery,
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

// selectSystems resolves the -systems flag for the given scenario: TPC-C
// scenarios construct through the TPC-C backend adapter, everything else
// through the harness system registry.
func selectSystems(sc harness.Scenario) ([]func() (harness.System, error), error) {
	names := harness.DefaultSystems(sc)
	if *systemsFlag != "auto" {
		names = nil
		for _, part := range strings.Split(*systemsFlag, ",") {
			names = append(names, strings.TrimSpace(part))
		}
	}
	var mks []func() (harness.System, error)
	for _, n := range names {
		n := n
		// Validate now (parse + lookup only, no construction) so unknown
		// names fail before any benchmarking.
		if err := harness.ValidateScenarioSystemSpec(sc, n); err != nil {
			return nil, err
		}
		mks = append(mks, func() (harness.System, error) {
			return harness.NewScenarioSystem(sc, n, tpccScale(), systemOpts())
		})
	}
	return mks, nil
}

// runScenario is the -scenario entry point: every selected system, every
// thread count, one Report. Any error (unknown scenario, unknown system,
// unwritable -out) propagates to main's non-zero exit.
func runScenario(name string, threads []int) error {
	if name == "list" {
		for _, n := range harness.ScenarioNames() {
			sc, _ := harness.LookupScenario(n)
			fmt.Printf("  %-26s %s\n", n, sc.Description)
		}
		return nil
	}
	sc, err := harness.LookupScenario(name)
	if err != nil {
		return err
	}
	if sc.ServiceChaos || sc.ReplicaChaos {
		return runChaosScenario(sc, threads)
	}
	mks, err := selectSystems(sc)
	if err != nil {
		return err
	}

	rep := harness.NewReport(name, threads, *durationFlag, uint64(*keyRange), *preload, *seedFlag)
	for _, mk := range mks {
		for _, th := range threads {
			sys, err := mk()
			if err != nil {
				return err
			}
			res := harness.RunScenario(sys, sc, harness.EngineConfig{
				Threads: th, Duration: *durationFlag,
				KeyRange: uint64(*keyRange), Preload: *preload, Seed: *seedFlag,
			})
			rep.Add(res)
			if !*jsonFlag {
				printScenarioResult(res)
			}
		}
	}
	if !*jsonFlag && *outFlag == "" {
		return nil
	}
	return writeReport(rep)
}

// firstRunMix is the mix of the scenario's first run phase: what shapes
// the workload in the modes that bypass the phase script (open-loop, chaos).
func firstRunMix(sc harness.Scenario) harness.Mix {
	for _, ph := range sc.Phases {
		if ph.Kind == harness.PhaseRun {
			return ph.Mix
		}
	}
	return harness.Mix{}
}

// writeReport emits the JSON report to stdout or -out, surfacing close
// errors (a truncated BENCH_*.json must fail the run, not pass silently).
func writeReport(rep *harness.Report) error {
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

func printScenarioResult(res harness.ScenarioResult) {
	m := res.Measured
	sys := res.System
	fmt.Printf("%-20s %-24s threads=%-3d throughput=%12.0f txn/s  abort=%6.2f%%  p50=%8.0fns  p99=%8.0fns\n",
		res.Scenario, sys, res.Threads, m.Throughput, 100*m.AbortRate, m.Latency.P50Ns, m.Latency.P99Ns)
	if mm := m.Memory; mm != nil {
		fmt.Printf("  memory              allocs/op=%8.2f  bytes/op=%8.1f  gc-pause=%8v  pool-hit=%5.1f%%\n",
			mm.AllocsPerOp, mm.BytesPerOp, time.Duration(mm.GCPauseNs), 100*mm.PoolHitRate)
	}
	if fp := m.Fastpath; fp != nil && fp.Commits > 0 {
		fmt.Printf("  fastpath            read-only=%d  single-write=%d  share=%5.1f%%\n",
			fp.ReadOnlyCommits, fp.FastPathCommits-fp.ReadOnlyCommits, 100*fp.FastpathShare)
		if fp.GroupCommits > 0 {
			fmt.Printf("  groupcommit         groups=%d  grouped-txns=%d  share=%5.1f%%\n",
				fp.GroupCommits, fp.GroupedTxns, 100*fp.GroupShare)
		}
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
