package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"medley/internal/harness"
	"medley/internal/service"
)

// Open-loop mode: -target switches medley-bench from the closed-loop
// scenario engine to the open-loop SLO path (internal/harness
// openloop.go). Arrivals are Poisson at each target rate; the same
// scenario's key distribution and transaction mix feed the generator, and
// the -server flag swaps the in-process driver for the HTTP client
// against a running medleyd — one sweep definition, either transport:
//
//	medley-bench -target 5000,20000,80000 -json -out BENCH_service-inproc.json
//	medleyd -listen :7654 -system medley-hash@8 &
//	medley-bench -target 20000 -server http://127.0.0.1:7654 -json
var (
	targetFlag = flag.String("target", "",
		"comma-separated open-loop offered rates in txn/s (enables open-loop mode)")
	serverFlag = flag.String("server", "",
		"medleyd base URL for open-loop mode (default: in-process driver)")
	inflightFlag = flag.Int("inflight", 64, "open-loop max in-flight requests")
)

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("bad -target %q", s)
		}
		out = append(out, r)
	}
	return out, nil
}

// openLoopScenario resolves the scenario whose distribution and mix feed
// the open-loop generator: -scenario when given, service-mixed otherwise.
func openLoopScenario() (harness.Scenario, error) {
	name := *scenarioFlag
	if name == "" {
		name = "service-mixed"
	}
	sc, err := harness.LookupScenario(name)
	if err != nil {
		return harness.Scenario{}, err
	}
	if sc.IsTPCC() || sc.HasCrash() {
		return harness.Scenario{}, fmt.Errorf("open-loop mode cannot run scenario %q (TPC-C and crash scripts have their own drivers)", name)
	}
	return sc, nil
}

// openLoopDriver builds the driver for the sweep: the HTTP client when
// -server names a medleyd, otherwise the in-process driver over the first
// selected system.
func openLoopDriver(sc harness.Scenario) (harness.Driver, error) {
	if *serverFlag != "" {
		return service.NewHTTPDriver(*serverFlag), nil
	}
	systems, err := selectSystems(sc, sc.Systems[:1])
	if err != nil {
		return nil, err
	}
	if len(systems) != 1 {
		return nil, fmt.Errorf("open-loop mode drives one system per run, got -systems %q", *systemsFlag)
	}
	sys, err := harness.NewSystem(systems[0], systemOpts())
	if err != nil {
		return nil, err
	}
	return harness.NewInProcDriver(sys), nil
}

// runOpenLoop is the -target entry point: one rate sweep, one report.
func runOpenLoop() error {
	rates, err := parseRates(*targetFlag)
	if err != nil {
		return err
	}
	sc, err := openLoopScenario()
	if err != nil {
		return err
	}
	d, err := openLoopDriver(sc)
	if err != nil {
		return err
	}
	recs, err := harness.RunOpenLoop(d, harness.OpenLoopConfig{
		Rates:       rates,
		Duration:    *durationFlag,
		MaxInFlight: *inflightFlag,
		KeyRange:    uint64(*keyRange),
		Preload:     *preload,
		Seed:        *seedFlag,
		Mix:         sc.Phases[0].Mix, // a run phase: crash scripts were refused above
		Dist:        sc.Dist,
	})
	if err != nil {
		return err
	}

	rep := harness.NewReport(sc.Name, []int{*inflightFlag}, *durationFlag,
		uint64(*keyRange), *preload, *seedFlag)
	for _, rec := range recs {
		rec.Scenario = sc.Name
		rep.Results = append(rep.Results, rec)
		if *jsonFlag {
			continue
		}
		svc := rec.Service
		fmt.Printf("%-20s %-24s driver=%-6s target=%8.0f offered=%8.0f goodput=%8.0f txn/s  shed=%-6d p50=%8.0fns  p99=%8.0fns  p99.9=%8.0fns\n",
			sc.Name, rec.System, svc.Driver, svc.TargetRate, svc.OfferedRate, svc.Goodput,
			svc.ShedTxns, rec.Latency.P50Ns, rec.Latency.P99Ns, svc.P999Ns)
		if svc.DroppedTxns > 0 || svc.ErrorTxns > 0 {
			fmt.Printf("  disposition         dropped=%d errors=%d (client queue overflow / failures)\n",
				svc.DroppedTxns, svc.ErrorTxns)
		}
	}
	return emitReport(rep)
}
