package harness

import (
	"sort"
	"testing"
	"time"
)

func tinyEngineConfig(threads int) EngineConfig {
	return EngineConfig{
		Threads: threads, Duration: 60 * time.Millisecond,
		KeyRange: 1 << 10, Preload: 1 << 9, Seed: 7,
	}
}

func TestRunScenarioAllBuiltinsOnMedley(t *testing.T) {
	for _, name := range ScenarioNames() {
		sc, err := LookupScenario(name)
		if err != nil {
			t.Fatal(err)
		}
		res := RunScenario(testSystem("medley-hash"), sc, tinyEngineConfig(2))
		if res.Scenario != name || res.System != "Medley-hash" {
			t.Fatalf("%s: bad labels %+v", name, res)
		}
		if len(res.Phases) != len(sc.Phases) {
			t.Fatalf("%s: %d phase results for %d phases", name, len(res.Phases), len(sc.Phases))
		}
		m := res.Measured
		if m.Txns == 0 || m.Throughput <= 0 {
			t.Errorf("%s: no progress: %+v", name, m)
		}
		if m.Latency.P50Ns <= 0 || m.Latency.P99Ns < m.Latency.P50Ns {
			t.Errorf("%s: bad percentiles p50=%f p99=%f", name, m.Latency.P50Ns, m.Latency.P99Ns)
		}
		if m.Latency.AvgNs <= 0 {
			t.Errorf("%s: no average latency", name)
		}
	}
}

func TestRunScenarioCompetitorsReportAborts(t *testing.T) {
	sc, err := LookupScenario("zipfian-mixed")
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []System{
		NewOneFile(OneFileOpts{Buckets: 1 << 10}),
		NewTDSL(),
		NewLFTT(),
	} {
		if _, ok := sys.(TxStatser); !ok {
			t.Fatalf("%s does not implement TxStatser", sys.Name())
		}
		res := RunScenario(sys, sc, tinyEngineConfig(2))
		if res.Measured.Txns == 0 {
			t.Fatalf("%s: no transactions", sys.Name())
		}
		if res.Measured.AbortRate < 0 || res.Measured.AbortRate >= 1 {
			t.Fatalf("%s: abort rate %f out of range", sys.Name(), res.Measured.AbortRate)
		}
	}
}

func TestRunScenarioPhaseIsolation(t *testing.T) {
	sc, err := LookupScenario("load-mixed-drain")
	if err != nil {
		t.Fatal(err)
	}
	res := RunScenario(testSystem("medley-hash"), sc, tinyEngineConfig(2))
	names := []string{"load", "mixed", "drain"}
	for i, ph := range res.Phases {
		if ph.Phase != names[i] {
			t.Fatalf("phase %d = %q, want %q", i, ph.Phase, names[i])
		}
		if ph.Txns == 0 {
			t.Fatalf("phase %q made no progress", ph.Phase)
		}
	}
	// The aggregate covers exactly the measured phase.
	if res.Measured.Txns != res.Phases[1].Txns {
		t.Fatalf("aggregate %d txns, measured phase %d", res.Measured.Txns, res.Phases[1].Txns)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]int64, 100)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	cases := []struct {
		p    int
		want int64
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}}
	for _, c := range cases {
		if got := Quantile(sorted, 10*c.p); got != c.want {
			t.Fatalf("p%d of 1..100 = %d, want %d", c.p, got, c.want)
		}
	}
	if got := Quantile([]int64{7}, 990); got != 7 {
		t.Fatalf("p99 of singleton = %d", got)
	}
	if got := Quantile(nil, 500); got != 0 {
		t.Fatalf("p50 of empty = %d", got)
	}
}

func TestWeightedPercentileWeighsByTxns(t *testing.T) {
	// Slow phase: 4 samples of 1000ns standing for 4 txns. Fast phase:
	// 4 samples of 10ns standing for 996 txns. Unweighted concatenation
	// would put p50 at 1000ns; weighting must keep it at 10ns.
	var pr PhaseResult
	pr.Txns = 1000
	pr.Elapsed = time.Second
	finishAggregate(&pr, []phaseSamples{
		{samples: []int64{1000, 1000, 1000, 1000}, txns: 4},
		{samples: []int64{10, 10, 10, 10}, txns: 996},
	})
	if pr.Latency.P50Ns != 10 {
		t.Fatalf("weighted p50 = %f, want 10", pr.Latency.P50Ns)
	}
	if pr.Latency.P99Ns != 10 {
		t.Fatalf("weighted p99 = %f, want 10 (slow phase is only 0.4%% of txns)", pr.Latency.P99Ns)
	}
	if pr.Latency.AvgNs >= 100 {
		t.Fatalf("weighted avg = %f, want ~14", pr.Latency.AvgNs)
	}
}

// TestZeroWeightPhaseDefaultsToEqualShare pins the engine's weight
// defaulting: a phase with Weight 0 is not skipped or starved — it takes
// an equal share of the budget, exactly as if every unweighted phase had
// Weight 1. A scenario author omitting weights gets even phases, never a
// zero-duration phase with meaningless statistics.
func TestZeroWeightPhaseDefaultsToEqualShare(t *testing.T) {
	sc := Scenario{
		Name: "zero-weight", Dist: Dist{Kind: DistUniform},
		Phases: []Phase{
			{Name: "unweighted", Weight: 0,
				Mix: Mix{Ratio: Ratio{Insert: 1}, TxMin: 1, TxMax: 1, Mixed: 1}},
			{Name: "mixed", Weight: 1, Measure: true,
				Mix: Mix{Ratio: Ratio{Get: 1, Insert: 1}, TxMin: 1, TxMax: 4, Mixed: 1}},
		},
	}
	cfg := tinyEngineConfig(2)
	res := RunScenario(testSystem("medley-hash"), sc, cfg)
	if len(res.Phases) != 2 {
		t.Fatalf("%d phase results, want 2", len(res.Phases))
	}
	for _, ph := range res.Phases {
		if ph.Txns == 0 {
			t.Fatalf("phase %q made no progress", ph.Phase)
		}
		// Equal split of the budget: each phase gets about half, never the
		// whole duration and never nothing.
		if ph.Elapsed < cfg.Duration/4 || ph.Elapsed > cfg.Duration {
			t.Fatalf("phase %q ran %v of a %v budget, want ~half", ph.Phase, ph.Elapsed, cfg.Duration)
		}
	}
	if res.Measured.Txns != res.Phases[1].Txns {
		t.Fatalf("measured aggregate %d txns, phase %d", res.Measured.Txns, res.Phases[1].Txns)
	}
}

// TestReservoirQuantilesMatchSortedReference feeds a known population
// through the latency reservoir and compares its percentiles with
// the exact ones from the full sorted population: below capacity they are
// identical, above it within a sampling tolerance.
func TestReservoirQuantilesMatchSortedReference(t *testing.T) {
	exactPercentile := func(population []int64, p int) int64 {
		sorted := append([]int64(nil), population...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		return Quantile(sorted, 10*p)
	}
	quantiles := func(w *Reservoir) (p50, p99 int64) {
		sorted := append([]int64(nil), w.Samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		return Quantile(sorted, 500), Quantile(sorted, 990)
	}

	// Below capacity: the reservoir holds everything, quantiles are exact.
	small := NewReservoir(1)
	var population []int64
	for i := int64(1); i <= 100; i++ {
		small.Record(time.Duration(i), 4096)
		population = append(population, i)
	}
	p50, p99 := quantiles(&small)
	if p50 != exactPercentile(population, 50) || p99 != exactPercentile(population, 99) {
		t.Fatalf("sub-capacity reservoir inexact: p50=%d p99=%d", p50, p99)
	}

	// Above capacity: uniform reservoir sampling keeps quantiles close to
	// the reference. Population 1..100_000 with a 2048 reservoir.
	big := NewReservoir(2)
	population = population[:0]
	const n, cap = 100_000, 2048
	for i := int64(1); i <= n; i++ {
		big.Record(time.Duration(i), cap)
		population = append(population, i)
	}
	if len(big.Samples) != cap || big.seen != n {
		t.Fatalf("reservoir holds %d of %d seen, want %d", len(big.Samples), big.seen, cap)
	}
	p50, p99 = quantiles(&big)
	if ref := exactPercentile(population, 50); absInt64(p50-ref) > n/20 {
		t.Fatalf("sampled p50=%d, reference %d", p50, ref)
	}
	if ref := exactPercentile(population, 99); absInt64(p99-ref) > n/20 {
		t.Fatalf("sampled p99=%d, reference %d", p99, ref)
	}
}

func absInt64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestFastpathBlockReported checks that the engine reports the commit
// fast-path digest for Medley systems: on a read-mostly workload the
// fast-path share must dominate, and the -nofast ablation must
// report a present-but-zero block.
func TestFastpathBlockReported(t *testing.T) {
	sc, err := LookupScenario("read-mostly")
	if err != nil {
		t.Fatal(err)
	}
	res := RunScenario(testSystem("medley-hash"), sc, tinyEngineConfig(2))
	fp := res.Measured.Fastpath
	if fp == nil {
		t.Fatal("Medley system reported no fastpath block")
	}
	if fp.Commits == 0 || fp.FastPathCommits == 0 || fp.ReadOnlyCommits == 0 {
		t.Fatalf("fastpath block empty: %+v", fp)
	}
	if fp.FastpathShare < 0.5 {
		t.Fatalf("fastpath share %.2f on a 95/5 mix, want > 0.5", fp.FastpathShare)
	}
	if fp.ReadOnlyCommits > fp.FastPathCommits || fp.FastPathCommits > fp.Commits {
		t.Fatalf("fastpath counters inconsistent: %+v", fp)
	}

	off := RunScenario(testSystem("medley-hash-nofast"), sc, tinyEngineConfig(2))
	fp = off.Measured.Fastpath
	if fp == nil || fp.Commits == 0 {
		t.Fatalf("nofast system reported no commits: %+v", fp)
	}
	if fp.FastPathCommits != 0 || fp.FastpathShare != 0 {
		t.Fatalf("nofast system took fast paths: %+v", fp)
	}
}

// TestPhaseDistOverride checks that a phase-level Dist overrides the
// scenario's: the read-mostly scenario declares a zipfian second phase,
// and the override must reach the generators (observable as the two
// phases sharing a mix but still both making progress, and the scenario
// registry carrying the override).
func TestPhaseDistOverride(t *testing.T) {
	sc, err := LookupScenario("read-mostly")
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Phases) != 2 {
		t.Fatalf("read-mostly has %d phases, want 2", len(sc.Phases))
	}
	if sc.Phases[0].Dist != nil {
		t.Fatal("uniform phase should inherit the scenario distribution")
	}
	z := sc.Phases[1].Dist
	if z == nil || z.Kind != DistZipfian {
		t.Fatalf("zipfian phase override = %+v, want DistZipfian", z)
	}
	// The override changes the generated key stream.
	mix := sc.Phases[1].Mix
	a := NewTxGen(sc.Dist, 1<<12, mix, 99)
	b := NewTxGen(*z, 1<<12, mix, 99)
	differ := false
	for i := 0; i < 100 && !differ; i++ {
		opsA, opsB := a.Next(), b.Next()
		if len(opsA) != len(opsB) {
			differ = true
			break
		}
		for j := range opsA {
			if opsA[j].Key != opsB[j].Key {
				differ = true
				break
			}
		}
	}
	if !differ {
		t.Fatal("zipfian override generated the uniform key stream")
	}
}
