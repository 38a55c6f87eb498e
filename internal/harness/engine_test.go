package harness

import (
	"math"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"medley/internal/kv"
)

func tinyEngineConfig(threads int) EngineConfig {
	return EngineConfig{
		Threads: threads, Duration: 60 * time.Millisecond,
		KeyRange: 1 << 10, Preload: 1 << 9, Seed: 7,
	}
}

// measuredOf is a run's headline record: the last one RunScenario returns.
func measuredOf(recs []Record) Record { return recs[len(recs)-1] }

func TestRunScenarioAllBuiltinsOnMedley(t *testing.T) {
	for _, name := range ScenarioNames() {
		sc, err := LookupScenario(name)
		if err != nil {
			t.Fatal(err)
		}
		recs := RunScenario(testSystem("medley-hash"), sc, tinyEngineConfig(2))
		if len(recs) != len(sc.Phases)+1 {
			t.Fatalf("%s: %d records for %d phases", name, len(recs), len(sc.Phases))
		}
		for i, rec := range recs {
			if rec.Scenario != name || rec.System != "Medley-hash" || rec.Threads != 2 || rec.Shards != 1 {
				t.Fatalf("%s: bad labels %+v", name, rec)
			}
			if i < len(sc.Phases) && rec.Phase != sc.Phases[i].Name {
				t.Fatalf("%s: record %d is phase %q, want %q", name, i, rec.Phase, sc.Phases[i].Name)
			}
		}
		m := measuredOf(recs)
		if m.Phase != "measured" {
			t.Fatalf("%s: last record is phase %q, want measured", name, m.Phase)
		}
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
		testSystem("onefile-hash"),
		testSystem("tdsl"),
		testSystem("lftt"),
	} {
		if _, ok := sys.(TxStatser); !ok {
			t.Fatalf("%s does not implement TxStatser", sys.Name())
		}
		m := measuredOf(RunScenario(sys, sc, tinyEngineConfig(2)))
		if m.Txns == 0 {
			t.Fatalf("%s: no transactions", sys.Name())
		}
		if m.AbortRate < 0 || m.AbortRate >= 1 {
			t.Fatalf("%s: abort rate %f out of range", sys.Name(), m.AbortRate)
		}
	}
}

func TestRunScenarioPhaseIsolation(t *testing.T) {
	sc, err := LookupScenario("load-mixed-drain")
	if err != nil {
		t.Fatal(err)
	}
	recs := RunScenario(testSystem("medley-hash"), sc, tinyEngineConfig(2))
	names := []string{"load", "mixed", "drain"}
	for i, ph := range recs[:len(recs)-1] {
		if ph.Phase != names[i] {
			t.Fatalf("phase %d = %q, want %q", i, ph.Phase, names[i])
		}
		if ph.Txns == 0 {
			t.Fatalf("phase %q made no progress", ph.Phase)
		}
	}
	// The aggregate covers exactly the measured phase.
	if m := measuredOf(recs); m.Txns != recs[1].Txns {
		t.Fatalf("aggregate %d txns, measured phase %d", m.Txns, recs[1].Txns)
	}
}

// countingSystem is the recoverable locked-map double, counting the
// executors a run asks it for.
type countingSystem struct {
	*faultyMapSystem
	executors atomic.Int64
}

func (s *countingSystem) NewExecutor() kv.Executor {
	s.executors.Add(1)
	return s.faultyMapSystem.NewExecutor()
}

// TestWorkersKeepTheirExecutors pins the executors' lifetime: each worker
// asks for one for the whole run, and again only after a crash that
// recovers, which invalidates them.
func TestWorkersKeepTheirExecutors(t *testing.T) {
	for _, c := range []struct {
		scenario string
		want     int64
	}{
		{"load-mixed-drain", 2},
		{"crash-recover-uniform", 4},
	} {
		sys := &countingSystem{faultyMapSystem: newFaultyMapSystem(1)}
		RunScenario(sys, mustScenario(t, c.scenario), tinyEngineConfig(2))
		if got := sys.executors.Load(); got != c.want {
			t.Errorf("%s at 2 threads made %d executors, want %d", c.scenario, got, c.want)
		}
	}
}

// TestMeasuredIsSumOfPhases checks that the measured record is derived
// from the sum of its measured phases: counts, elapsed time, memory
// totals, counters, kinds and consistency findings add up, and every
// ratio is recomputed from the sums. read-mostly has two measured phases;
// tpcc-full adds kinds, consistency and a crash between its phases.
func TestMeasuredIsSumOfPhases(t *testing.T) {
	tpccFull := mustScenario(t, "tpcc-full")
	tpccSys, err := NewScenarioSystem(tpccFull, "medley-hash", tinyTPCCScale(), SystemOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sc  Scenario
		sys System
		cfg EngineConfig
	}{
		{mustScenario(t, "read-mostly"), testSystem("medley-hash"), tinyEngineConfig(2)},
		{tpccFull, tpccSys, tpccEngineConfig(2)},
	} {
		recs := RunScenario(c.sys, c.sc, c.cfg)
		m := measuredOf(recs)
		var sum PhaseResult
		mem := MemoryResult{}
		counters := map[string]uint64{}
		kinds := map[string]KindResult{}
		violations, phases := 0, 0
		for i, ph := range c.sc.Phases {
			if !ph.Measure {
				continue
			}
			r := recs[i]
			phases++
			sum.Txns += r.Txns
			sum.Ops += r.Ops
			sum.Aborts += r.Aborts
			sum.Elapsed += r.Elapsed
			mem.TotalAllocs += r.Memory.TotalAllocs
			mem.TotalBytes += r.Memory.TotalBytes
			mem.GCPauseNs += r.Memory.GCPauseNs
			mem.NumGC += r.Memory.NumGC
			mem.PoolGets += r.Memory.PoolGets
			mem.PoolHits += r.Memory.PoolHits
			mem.PoolRetires += r.Memory.PoolRetires
			for _, ctr := range r.Telemetry.Counters {
				counters[ctr.Name] += ctr.Value
			}
			for _, k := range r.Kinds {
				sk := kinds[k.Kind]
				sk.Kind, sk.Txns, sk.Aborts = k.Kind, sk.Txns+k.Txns, sk.Aborts+k.Aborts
				kinds[k.Kind] = sk
			}
			if r.Consistency != nil {
				violations += r.Consistency.Violations
			}
		}
		name := c.sc.Name
		if phases < 2 || m.Txns == 0 {
			t.Fatalf("%s: %d measured phases, %d txns", name, phases, m.Txns)
		}
		if m.Txns != sum.Txns || m.Ops != sum.Ops || m.Aborts != sum.Aborts || m.Elapsed != sum.Elapsed {
			t.Errorf("%s: measured %+v, phases sum to %+v", name, m.PhaseResult, sum)
		}
		mem.AllocsPerOp = float64(mem.TotalAllocs) / float64(sum.Ops)
		mem.BytesPerOp = float64(mem.TotalBytes) / float64(sum.Ops)
		if mem.PoolGets > 0 {
			mem.PoolHitRate = float64(mem.PoolHits) / float64(mem.PoolGets)
		}
		if *m.Memory != mem {
			t.Errorf("%s: memory %+v, phases sum to %+v", name, *m.Memory, mem)
		}
		got := map[string]uint64{}
		for _, ctr := range m.Telemetry.Counters {
			got[ctr.Name] = ctr.Value
		}
		if !reflect.DeepEqual(got, counters) {
			t.Errorf("%s: counters %v, phases sum to %v", name, got, counters)
		}
		for _, k := range m.Kinds {
			if sk := kinds[k.Kind]; k.Txns != sk.Txns || k.Aborts != sk.Aborts {
				t.Errorf("%s: kind %+v, phases sum to %+v", name, k, sk)
			}
			delete(kinds, k.Kind)
		}
		if len(kinds) != 0 {
			t.Errorf("%s: kinds %v missing from the aggregate", name, kinds)
		}
		if c.sc.IsTPCC() && (m.Consistency == nil || !m.Consistency.Checked || m.Consistency.Violations != violations) {
			t.Errorf("%s: consistency %+v, phases found %d violations", name, m.Consistency, violations)
		}

		// The ratios are the sums' ratios, not an average of the phases'.
		if want := float64(sum.Txns) / sum.Elapsed.Seconds(); m.Throughput != want {
			t.Errorf("%s: throughput %v, want %v", name, m.Throughput, want)
		}
		if want := float64(sum.Aborts) / float64(sum.Txns+sum.Aborts); m.AbortRate != want {
			t.Errorf("%s: abort rate %v, want %v", name, m.AbortRate, want)
		}
		if !reflect.DeepEqual(m.Telemetry.Gauges, deriveGauges(counters)) {
			t.Errorf("%s: gauges %v, want those of the summed counters", name, m.Telemetry.Gauges)
		}
		fp := m.Fastpath
		if fp == nil || fp.Commits != counters["tx_commits"] || fp.FastPathCommits != counters["tx_commits_fastpath"] ||
			fp.FastpathShare != float64(fp.FastPathCommits)/float64(fp.Commits) {
			t.Errorf("%s: fastpath %+v, want the summed counters' share", name, fp)
		}
	}
}

// TestOneMeasuredPhaseIsItsRecord checks the one-phase case of the sum:
// with a single measured phase, the aggregate is that phase's record in
// everything but its name — latency, kinds and consistency included.
func TestOneMeasuredPhaseIsItsRecord(t *testing.T) {
	tpccPaper := mustScenario(t, "tpcc-paper")
	tpccSys, err := NewScenarioSystem(tpccPaper, "medley-hash", tinyTPCCScale(), SystemOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sc    Scenario
		sys   System
		phase int // the one measured phase
	}{
		{mustScenario(t, "load-mixed-drain"), testSystem("medley-hash"), 1},
		{tpccPaper, tpccSys, 0},
	} {
		recs := RunScenario(c.sys, c.sc, tpccEngineConfig(2))
		ph, m := recs[c.phase], measuredOf(recs)
		if ph.Txns == 0 || m.Phase != "measured" {
			t.Fatalf("%s: phase %+v, aggregate %+v", c.sc.Name, ph, m)
		}
		ph.Phase = m.Phase
		if !reflect.DeepEqual(ph, m) {
			t.Errorf("%s: aggregate differs from its one phase:\n%+v\n%+v", c.sc.Name, m, ph)
		}
	}
}

// slowSystem's executors take 30 ms a transaction, so a worker commits
// two or three in a 60 ms phase: fewer than latencyEvery.
type slowSystem struct{ bareSystem }

func (slowSystem) NewExecutor() kv.Executor { return slowExecutor{} }

type slowExecutor struct{}

func (slowExecutor) ExecBatch([]kv.Op, []kv.Result) error {
	time.Sleep(30 * time.Millisecond)
	return nil
}

// TestFewTransactionsStillReportLatency: every worker times its first
// transaction, so a phase whose workers commit fewer than latencyEvery
// transactions each still reports latency.
func TestFewTransactionsStillReportLatency(t *testing.T) {
	sc := Scenario{Name: "slow", Phases: []Phase{
		{Name: "run", Weight: 1, Mix: paperMix(Ratio{Get: 1}), Measure: true},
	}}
	m := measuredOf(RunScenario(slowSystem{}, sc, tinyEngineConfig(2)))
	if m.Txns == 0 || m.Latency.AvgNs <= 0 || m.Latency.P50Ns <= 0 {
		t.Fatalf("%d txns reported latency %+v, want a timed first transaction per worker", m.Txns, m.Latency)
	}
}

// unitDigest is weightedDigest over samples that each stand for one
// transaction.
func unitDigest(samples []int64) (avg, p50, p99, p999 float64) {
	ws := make([]weightedSample, len(samples))
	for i, ns := range samples {
		ws[i] = weightedSample{ns: ns, w: 1}
	}
	return weightedDigest(ws)
}

// TestPercentileNearestRank pins the unit-weight case of the one
// quantile: its p50/p99/p99.9 are nearest rank.
func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(n - i) // unsorted: the digest sorts
		}
		return s
	}
	for _, c := range []struct {
		samples             []int64
		avg, p50, p99, p999 float64
	}{
		{seq(100), 50.5, 50, 99, 100},
		{seq(1000), 500.5, 500, 990, 999},
		{[]int64{7}, 7, 7, 7, 7},
		{nil, 0, 0, 0, 0},
	} {
		n := len(c.samples)
		avg, p50, p99, p999 := unitDigest(c.samples)
		if avg != c.avg || p50 != c.p50 || p99 != c.p99 || p999 != c.p999 {
			t.Errorf("%d samples: digest = %v %v %v %v, want %v %v %v %v",
				n, avg, p50, p99, p999, c.avg, c.p50, c.p99, c.p999)
		}
	}
}

// TestPermilleNearestRank pins the weighted digest's quantile: the
// permille quantile is the smallest sample whose cumulative weight reaches
// permille/1000 of the total, so a sample of weight k answers exactly as k
// unit samples of the same latency would.
func TestPermilleNearestRank(t *testing.T) {
	weighted := []weightedSample{{40, 1}, {10, 500}, {30, 9}, {20, 490}}
	var unit []int64
	for _, s := range weighted {
		for range int(s.w) {
			unit = append(unit, s.ns)
		}
	}
	avg, p50, p99, p999 := weightedDigest(slices.Clone(weighted))
	if p50 != 10 || p99 != 20 || p999 != 30 {
		t.Errorf("weighted p50/p99/p99.9 = %v %v %v, want 10 20 30", p50, p99, p999)
	}
	uavg, up50, up99, up999 := unitDigest(unit)
	if avg != uavg || p50 != up50 || p99 != up99 || p999 != up999 {
		t.Errorf("weighted digest %v %v %v %v, unit expansion %v %v %v %v",
			avg, p50, p99, p999, uavg, up50, up99, up999)
	}
	// One unit of weight short of a permille's share moves it to the next sample.
	_, p50, _, _ = weightedDigest([]weightedSample{{10, 499}, {20, 501}})
	if p50 != 20 {
		t.Errorf("p50 with 499/1000 weight at 10 = %v, want 20", p50)
	}
	if avg, p50, p99, p999 := weightedDigest([]weightedSample{{7, 0}}); avg != 0 || p50 != 0 || p99 != 0 || p999 != 0 {
		t.Errorf("zero-weight digest = %v %v %v %v, want all 0", avg, p50, p99, p999)
	}
}

// TestWeightedPercentileWeighsByTxns sums a slow and a fast phase's
// tallies: each sample stands for its phase's txns ÷ samples, so the slow
// phase weighs by its share of the transactions, not of the samples.
func TestWeightedPercentileWeighsByTxns(t *testing.T) {
	// Slow phase: 4 samples of 1000ns standing for 4 txns. Fast phase:
	// 4 samples of 10ns standing for 996 txns. Unweighted concatenation
	// would put p50 at 1000ns; weighting must keep it at 10ns.
	slow := tally{txns: 4, elapsed: time.Second / 2}
	slow.weigh([]int64{1000, 1000, 1000, 1000})
	fast := tally{txns: 996, elapsed: time.Second / 2}
	fast.weigh([]int64{10, 10, 10, 10})
	var sum tally
	sum.add(slow)
	sum.add(fast)
	m := sum.result("measured")
	if m.Txns != 1000 || m.Throughput != 1000 {
		t.Fatalf("summed txns=%d throughput=%f, want 1000 and 1000/s", m.Txns, m.Throughput)
	}
	if m.Latency.P50Ns != 10 {
		t.Fatalf("weighted p50 = %f, want 10", m.Latency.P50Ns)
	}
	if m.Latency.P99Ns != 10 {
		t.Fatalf("weighted p99 = %f, want 10 (slow phase is only 0.4%% of txns)", m.Latency.P99Ns)
	}
	if m.Latency.AvgNs != 13.96 {
		t.Fatalf("weighted avg = %f, want (4*1000 + 996*10)/1000 = 13.96", m.Latency.AvgNs)
	}
}

// TestZeroWeightPhaseDefaultsToEqualShare pins the engine's weight
// defaulting: a phase with Weight 0 is not skipped or starved — it takes
// an equal share of the budget, exactly as if every unweighted phase had
// Weight 1, and a crash phase takes no share. A scenario author omitting
// weights gets even phases, never a zero-duration phase with meaningless
// statistics. The split is checked exactly, on the budgets the engine
// hands each phase, not on wall-clock time a loaded box stretches.
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
	half := cfg.Duration / 2
	if got := phaseBudgets(sc.Phases, cfg.Duration); !slices.Equal(got, []time.Duration{half, half}) {
		t.Fatalf("budgets %v of %v, want an equal split %v", got, cfg.Duration, half)
	}
	withCrash := []Phase{sc.Phases[0], {Name: "crash", Kind: PhaseCrash, Weight: 5}, {Name: "heavy", Weight: 3}}
	if got, want := phaseBudgets(withCrash, time.Second), []time.Duration{time.Second / 4, 0, 3 * time.Second / 4}; !slices.Equal(got, want) {
		t.Fatalf("budgets %v, want %v: a crash phase takes no share", got, want)
	}

	recs := RunScenario(testSystem("medley-hash"), sc, cfg)
	if len(recs) != 3 {
		t.Fatalf("%d records, want 2 phases and the aggregate", len(recs))
	}
	for _, ph := range recs[:2] {
		if ph.Txns == 0 {
			t.Fatalf("phase %q made no progress", ph.Phase)
		}
	}
	if m := measuredOf(recs); m.Txns != recs[1].Txns {
		t.Fatalf("measured aggregate %d txns, phase %d", m.Txns, recs[1].Txns)
	}
}

// TestReservoirQuantilesMatchSortedReference feeds a known population
// through the latency reservoir and compares its percentiles with
// the exact ones from the full population: below capacity they are
// identical, above it within a sampling tolerance.
func TestReservoirQuantilesMatchSortedReference(t *testing.T) {
	quantiles := func(samples []int64) (p50, p99 float64) {
		_, p50, p99, _ = unitDigest(append([]int64(nil), samples...))
		return p50, p99
	}

	// Below capacity: the reservoir holds everything, quantiles are exact.
	small := NewReservoir(1)
	var population []int64
	for i := int64(1); i <= 100; i++ {
		small.Record(time.Duration(i))
		population = append(population, i)
	}
	p50, p99 := quantiles(small.Samples)
	if ref50, ref99 := quantiles(population); p50 != ref50 || p99 != ref99 {
		t.Fatalf("sub-capacity reservoir inexact: p50=%v p99=%v", p50, p99)
	}

	// Above capacity: uniform reservoir sampling keeps quantiles close to
	// the reference. Population 1..100_000, 24 times the reservoir.
	big := NewReservoir(2)
	population = population[:0]
	const n = 100_000
	for i := int64(1); i <= n; i++ {
		big.Record(time.Duration(i))
		population = append(population, i)
	}
	if len(big.Samples) != reservoirSamples || big.seen != n {
		t.Fatalf("reservoir holds %d of %d seen, want %d", len(big.Samples), big.seen, reservoirSamples)
	}
	p50, p99 = quantiles(big.Samples)
	ref50, ref99 := quantiles(population)
	if math.Abs(p50-ref50) > n/20 {
		t.Fatalf("sampled p50=%v, reference %v", p50, ref50)
	}
	if math.Abs(p99-ref99) > n/20 {
		t.Fatalf("sampled p99=%v, reference %v", p99, ref99)
	}
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
	fp := measuredOf(RunScenario(testSystem("medley-hash"), sc, tinyEngineConfig(2))).Fastpath
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

	fp = measuredOf(RunScenario(testSystem("medley-hash-nofast"), sc, tinyEngineConfig(2))).Fastpath
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
