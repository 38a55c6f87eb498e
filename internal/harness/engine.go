package harness

import (
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"medley/internal/kv"
)

// This file is the execution half of the workload engine: it runs a
// Scenario's phase script against a System, with every per-transaction
// counter and latency sample kept in a per-worker shard so that the
// harness adds no shared-memory traffic of its own to the measurement.

// FastpathResult is the commit-protocol digest of one record: how many
// commits skipped the descriptor handshake (the read-only elision, and any
// fast path = read-only + single-write fold), and the derived share.
// Present on run-phase records of systems exporting tx_commits (everything
// built on the core's commit protocol); absent on crash phases, on
// competitors and on the no-transaction baselines.
type FastpathResult struct {
	ReadOnlyCommits uint64  `json:"read_only_commits"`
	FastPathCommits uint64  `json:"fastpath_commits"`
	Commits         uint64  `json:"commits"`
	FastpathShare   float64 `json:"fastpath_share"` // FastPathCommits / Commits
}

// fastpathResult derives the digest from a phase's counter deltas; nil
// when the system exports no tx_commits (it runs no commit protocol).
func fastpathResult(v map[string]uint64) *FastpathResult {
	commits, ok := v["tx_commits"]
	if !ok {
		return nil
	}
	f := &FastpathResult{
		ReadOnlyCommits: v["tx_commits_read_only"], FastPathCommits: v["tx_commits_fastpath"],
		Commits: commits,
	}
	if commits > 0 {
		f.FastpathShare = float64(f.FastPathCommits) / float64(commits)
	}
	return f
}

// MemoryResult is the memory-pressure digest of one record: allocation
// deltas (runtime/metrics), GC pause deltas (runtime.ReadMemStats), and
// recycling-arena counters. Process-wide, so it is meaningful because the
// engine runs one system at a time. Present on every run-phase record;
// absent on crash phases.
type MemoryResult struct {
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	TotalAllocs uint64  `json:"total_allocs"` // heap objects allocated
	TotalBytes  uint64  `json:"total_bytes"`
	GCPauseNs   int64   `json:"gc_pause_total_ns"` // stop-the-world total
	NumGC       uint32  `json:"num_gc"`
	PoolGets    uint64  `json:"pool_gets"`    // arena requests (cells + nodes)
	PoolHits    uint64  `json:"pool_hits"`    // served from a freelist
	PoolRetires uint64  `json:"pool_retires"` // blocks retired into arenas
	PoolHitRate float64 `json:"pool_hit_rate"`
}

// finish fills the arena counters from the counter deltas v (zeros for a
// system exporting none) and derives the per-op and hit-rate ratios.
func (m *MemoryResult) finish(ops uint64, v map[string]uint64) {
	m.PoolGets, m.PoolHits, m.PoolRetires = v["pool_gets"], v["pool_hits"], v["pool_retires"]
	if ops > 0 {
		m.AllocsPerOp = float64(m.TotalAllocs) / float64(ops)
		m.BytesPerOp = float64(m.TotalBytes) / float64(ops)
	}
	if m.PoolGets > 0 {
		m.PoolHitRate = float64(m.PoolHits) / float64(m.PoolGets)
	}
}

// memSample is one point-in-time memory reading; phases report the delta
// of two samples.
type memSample struct {
	allocObjs  uint64
	allocBytes uint64
	pauseNs    uint64
	numGC      uint32
}

// readMemSample samples the allocator via runtime/metrics (cheap,
// no stop-the-world) and GC pauses via runtime.ReadMemStats; it runs only
// at phase boundaries.
func readMemSample() memSample {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(samples)
	var s memSample
	if samples[0].Value.Kind() == metrics.KindUint64 {
		s.allocObjs = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = samples[1].Value.Uint64()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.pauseNs = ms.PauseTotalNs
	s.numGC = ms.NumGC
	return s
}

// memoryResult folds two samples and the phase's counter deltas into the
// reported block.
func memoryResult(before, after memSample, ops uint64, v map[string]uint64) *MemoryResult {
	m := &MemoryResult{
		TotalAllocs: after.allocObjs - before.allocObjs,
		TotalBytes:  after.allocBytes - before.allocBytes,
		GCPauseNs:   int64(after.pauseNs - before.pauseNs),
		NumGC:       after.numGC - before.numGC,
	}
	m.finish(ops, v)
	return m
}

// EngineConfig parameterizes one scenario run.
type EngineConfig struct {
	Threads  int
	Duration time.Duration // total, sliced across phases by weight
	KeyRange uint64
	Preload  int
	Seed     int64
}

// reservoirSamples bounds each worker's and each open-loop sender's
// latency reservoir. Reservoir sampling keeps the samples uniform over the
// phase regardless of its length.
const reservoirSamples = 4096

// latencyEvery times every Nth closed-loop transaction: clock reads cost
// tens of nanoseconds, so timing every transaction would tax the fastest
// systems most and compress cross-system ratios.
const latencyEvery = 4

// PhaseResult is the measurement of one phase (or the aggregate of the
// measured phases), and the phase half of a report Record.
type PhaseResult struct {
	Phase      string         `json:"phase"`
	Crash      bool           `json:"-"` // crash phase: Elapsed is the recovery latency
	Txns       uint64         `json:"txns"`
	Ops        uint64         `json:"ops"`
	Aborts     uint64         `json:"aborts"`
	Elapsed    time.Duration  `json:"elapsed_ns"`
	Throughput float64        `json:"throughput_txn_per_sec"` // committed txn/s
	AbortRate  float64        `json:"abort_rate"`             // aborted attempts / total attempts, 0 if unknown
	Latency    LatencySummary `json:"latency"`

	// Memory is the phase's memory-pressure digest; nil on crash phases.
	Memory *MemoryResult `json:"memory,omitempty"`

	// Fastpath is the commit-protocol digest; nil on crash phases and on
	// systems exporting no tx_commits counter.
	Fastpath *FastpathResult `json:"fastpath,omitempty"`

	// Telemetry is the phase's counter/gauge snapshot deltas; nil on crash
	// phases and on systems without MetricsSnapshotter.
	Telemetry *TelemetryResult `json:"telemetry,omitempty"`

	// Kinds attributes the phase's transactions per kind; nil on systems
	// without TxKindStatser.
	Kinds []KindResult `json:"kinds,omitempty"`

	// Consistency is the domain-invariant check run at the phase barrier;
	// nil unless the system implements ConsistencyChecker and the phase is
	// measured or a crash phase.
	Consistency *ConsistencyResult `json:"consistency,omitempty"`
}

// ScenarioResult is one (system, scenario, thread count) measurement.
type ScenarioResult struct {
	Scenario string
	System   string
	Threads  int
	// Shards is the store partition count (1 for single-instance systems,
	// including the competitors that cannot shard — see internal/kv).
	Shards int
	Phases []PhaseResult
	// Measured aggregates the phases marked Measure (all phases when none
	// are marked) and is the headline number of the run.
	Measured PhaseResult
	// Recovery is set by crash scenarios: recovery metrics and durability
	// verification for recoverable systems, Recoverable: false otherwise.
	Recovery *RecoveryResult
	// FinalCheck is set by VerifyFinal scenarios: the live end-of-run state
	// diffed against the journaled model of committed effects.
	FinalCheck *FinalCheckResult
}

// workerShard is one worker's slice of the harness's own statistics,
// padded so that concurrently running workers never write the same cache
// line. Counters are plain: only the owning worker writes them, and the
// engine reads them after the phase barrier.
type workerShard struct {
	txns uint64
	ops  uint64
	Reservoir
	_ [40]byte
}

// RunScenario executes sc against sys: preload once, then each phase in
// order, each worker asking for its executor per phase. It is
// deterministic in cfg.Seed up to scheduling (the generators are; the
// interleaving is not).
func RunScenario(sys System, sc Scenario, cfg EngineConfig) ScenarioResult {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.KeyRange == 0 {
		cfg.KeyRange = 1
	}
	// Oversubscription scenarios run several worker goroutines per
	// configured thread; everything per-worker (seeds, partitions, shards)
	// scales with the worker count, while reports keep the configured
	// thread count.
	workers := cfg.Threads
	if sc.WorkersPerThread > 1 {
		workers = cfg.Threads * sc.WorkersPerThread
	}
	// Every optional capability is probed once, here; the phase loop and
	// the verifier branch on the fields (see capabilities.go).
	caps := Capabilities(sys)
	// Crash scenarios verify recovered state against a ground-truth model
	// of committed operations; see verify.go for the partitioning that
	// makes the model exact. VerifyFinal scenarios journal on every system
	// and diff the live end-of-run state instead of a recovered one.
	var vs *verifyState
	if sc.HasCrash() || sc.VerifyFinal {
		if cfg.KeyRange < uint64(workers) {
			cfg.KeyRange = uint64(workers)
		}
		vs = &verifyState{partition: true}
		if sc.VerifyFinal || caps.CanRecover() {
			vs.journal = true
			vs.model = make(map[uint64]modelVal, cfg.Preload)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	keys := make([]uint64, cfg.Preload)
	for i := range keys {
		keys[i] = uint64(rng.Int63n(int64(cfg.KeyRange)))
	}
	sys.Preload(keys)
	if vs != nil && vs.journal {
		for _, k := range keys {
			vs.model[k] = modelVal{val: k, present: true}
		}
	}
	stop := sys.Start()
	defer stop()

	totalWeight := 0.0
	for _, ph := range sc.Phases {
		if ph.Kind == PhaseCrash {
			continue
		}
		if ph.Weight > 0 {
			totalWeight += ph.Weight
		} else {
			totalWeight += 1
		}
	}
	if totalWeight == 0 {
		totalWeight = 1
	}

	res := ScenarioResult{Scenario: sc.Name, System: sys.Name(), Threads: cfg.Threads, Shards: caps.ShardCount()}
	var agg PhaseResult
	agg.Phase = "measured"
	var parts []phaseSamples
	anyMeasured := false
	for _, ph := range sc.Phases {
		if ph.Measure {
			anyMeasured = true
		}
	}

	for pi, ph := range sc.Phases {
		if ph.Kind == PhaseCrash {
			pr, rr := runCrashPhase(caps.Recovery, vs, ph)
			if caps.Consistency != nil {
				pr.Consistency = consistencyResult(caps.Consistency.ConsistencyCheck())
			}
			res.Phases = append(res.Phases, pr)
			if res.Recovery == nil {
				res.Recovery = &rr
			} else {
				res.Recovery.merge(rr)
			}
			continue
		}
		w := ph.Weight
		if w <= 0 {
			w = 1
		}
		d := time.Duration(float64(cfg.Duration) * w / totalWeight)
		pr, samples := runPhase(sys, caps, sc, ph, pi, cfg, workers, d, vs)
		if caps.Consistency != nil && ph.Measure {
			pr.Consistency = consistencyResult(caps.Consistency.ConsistencyCheck())
		}
		res.Phases = append(res.Phases, pr)
		if ph.Measure || !anyMeasured {
			agg.Txns += pr.Txns
			agg.Ops += pr.Ops
			agg.Aborts += pr.Aborts
			agg.Elapsed += pr.Elapsed
			parts = append(parts, phaseSamples{samples: samples, txns: pr.Txns})
			if pr.Memory != nil {
				if agg.Memory == nil {
					agg.Memory = &MemoryResult{}
				}
				agg.Memory.TotalAllocs += pr.Memory.TotalAllocs
				agg.Memory.TotalBytes += pr.Memory.TotalBytes
				agg.Memory.GCPauseNs += pr.Memory.GCPauseNs
				agg.Memory.NumGC += pr.Memory.NumGC
			}
			if pr.Telemetry != nil {
				if agg.Telemetry == nil {
					agg.Telemetry = &TelemetryResult{}
				}
				mergeTelemetry(agg.Telemetry, pr.Telemetry)
			}
			if len(pr.Kinds) > 0 {
				agg.Kinds = mergeKinds(agg.Kinds, pr.Kinds)
			}
			if pr.Consistency != nil {
				if agg.Consistency == nil {
					agg.Consistency = &ConsistencyResult{}
				}
				mergeConsistency(agg.Consistency, pr.Consistency)
			}
		}
	}
	// The aggregate's gauges, arena counters and fastpath block derive from
	// its summed counters exactly as a phase's do from its deltas.
	var v map[string]uint64
	if agg.Telemetry != nil {
		v = counterMap(agg.Telemetry.Counters)
		agg.Telemetry.Gauges = deriveGauges(v)
	}
	if agg.Memory != nil {
		agg.Memory.finish(agg.Ops, v)
	}
	agg.Fastpath = fastpathResult(v)
	finishAggregate(&agg, parts)
	res.Measured = agg
	if sc.VerifyFinal {
		res.FinalCheck = runFinalCheck(caps, vs)
	}
	return res
}

// runPhase spawns the phase's workers (cfg.Threads, multiplied by the
// scenario's WorkersPerThread) and collects their shards. The returned
// samples back the scenario-level aggregate. In crash and VerifyFinal
// scenarios (vs non-nil) write keys are partitioned per worker and, when
// journaling, committed effects are merged into the ground-truth model at
// the phase barrier.
func runPhase(sys System, caps Caps, sc Scenario, ph Phase, phaseIdx int, cfg EngineConfig, workers int, d time.Duration, vs *verifyState) (PhaseResult, []int64) {
	var aborts0 uint64
	if caps.TxStats != nil {
		_, aborts0 = caps.TxStats.TxStats()
	}
	var met0 []Metric
	if caps.Metrics != nil {
		met0 = caps.Metrics.MetricsSnapshot()
	}
	var kin0 []KindStat
	if caps.Kinds != nil {
		kin0 = caps.Kinds.TxKindStats()
	}
	mem0 := readMemSample()

	dist := sc.Dist
	if ph.Dist != nil {
		dist = *ph.Dist
	}
	shards := make([]*workerShard, workers)
	var journals []map[uint64]modelVal
	if vs != nil && vs.journal {
		journals = make([]map[uint64]modelVal, workers)
	}
	var stopFlag atomic.Bool
	var wg sync.WaitGroup
	start := make(chan struct{})
	ws := make([]kv.Executor, workers)
	for t := 0; t < workers; t++ {
		seed := cfg.Seed + int64(phaseIdx)*104729 + int64(t)*7919
		shard := &workerShard{Reservoir: NewReservoir(seed ^ 0x5DEECE66D)}
		shards[t] = shard
		var jm map[uint64]modelVal
		if journals != nil {
			jm = make(map[uint64]modelVal)
			journals[t] = jm
		}
		tid := t
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex := sys.NewExecutor()
			ws[tid] = ex
			gen := NewTxGen(dist, cfg.KeyRange, ph.Mix, seed)
			tick := 0
			<-start
			for !stopFlag.Load() {
				ops := gen.Next()
				if vs != nil && vs.partition {
					for i := range ops {
						if ops[i].Kind == OpInsert || ops[i].Kind == OpRemove {
							ops[i].Key = PartitionKey(ops[i].Key, tid, workers, cfg.KeyRange)
						}
					}
				}
				tick++
				timed := tick >= latencyEvery
				var t0 time.Time
				if timed {
					tick, t0 = 0, time.Now()
				}
				// A transaction that fails outright is the system's to
				// report (TPC-C as an execution violation); the engine
				// counts what ran.
				_ = ex.ExecBatch(ops, nil)
				if timed {
					shard.Record(time.Since(t0), reservoirSamples)
				}
				if jm != nil {
					applyOps(jm, ops)
				}
				shard.txns++
				shard.ops += uint64(len(ops))
			}
		}()
	}
	begin := time.Now()
	close(start)
	time.Sleep(d)
	stopFlag.Store(true)
	wg.Wait()
	elapsed := time.Since(begin)
	// Phase barrier: workers are quiescent. Hand their executors back for
	// the next phase (warm arenas and SMR handles; see WorkerReleaser) and
	// let the system run barrier-only maintenance — for EBR systems, pumping
	// the epoch past the phase's retired garbage so the returned executors'
	// freelists refill at the start of the next phase instead of starving
	// all the way through it.
	if caps.Quiescent != nil {
		caps.Quiescent.Quiesce()
	}
	if caps.Release != nil {
		for _, ex := range ws {
			if ex != nil {
				caps.Release.ReleaseWorker(ex)
			}
		}
	}
	mem1 := readMemSample()

	pr := PhaseResult{Phase: ph.Name, Elapsed: elapsed}
	var samples []int64
	for _, s := range shards {
		pr.Txns += s.txns
		pr.Ops += s.ops
		samples = append(samples, s.Samples...)
	}
	var v map[string]uint64
	if caps.Metrics != nil {
		counters := diffMetrics(met0, caps.Metrics.MetricsSnapshot())
		v = counterMap(counters)
		pr.Telemetry = &TelemetryResult{Counters: counters, Gauges: deriveGauges(v)}
	}
	pr.Memory = memoryResult(mem0, mem1, pr.Ops, v)
	pr.Fastpath = fastpathResult(v)
	// Worker write domains are disjoint (residue classes), so merging the
	// journals is conflict-free.
	for _, jm := range journals {
		for k, v := range jm {
			vs.model[k] = v
		}
	}
	if caps.TxStats != nil {
		_, aborts1 := caps.TxStats.TxStats()
		pr.Aborts = aborts1 - aborts0
	}
	if caps.Kinds != nil {
		pr.Kinds = diffKinds(kin0, caps.Kinds.TxKindStats())
	}
	finishPhaseResult(&pr, samples)
	return pr, samples
}

// runCrashPhase executes a PhaseCrash phase: flush committed state, crash,
// time recovery, and verify the recovered contents against the model. All
// workers are stopped at this point (phases are barriers), so the model is
// exactly the committed history and the snapshot is quiescent.
func runCrashPhase(rec Recoverable, vs *verifyState, ph Phase) (PhaseResult, RecoveryResult) {
	pr := PhaseResult{Phase: ph.Name, Crash: true}
	if rec == nil || !rec.CanRecover() {
		return pr, RecoveryResult{}
	}
	rec.Persist()
	t0 := time.Now()
	entries := rec.CrashAndRecover()
	pr.Elapsed = time.Since(t0)
	rr := RecoveryResult{
		Recoverable: true,
		RecoveryNs:  int64(pr.Elapsed),
		Recovered:   entries,
	}
	fc := checkState(vs.model, rec.StateSnapshot)
	rr.ModelEntries, rr.Missing, rr.Mismatched, rr.Leaked = fc.ModelEntries, fc.Missing, fc.Mismatched, fc.Leaked
	rr.Violations = fc.Violations
	return pr, rr
}

// finishPhaseResult derives rates and percentiles; samples is consumed
// (sorted in place).
func finishPhaseResult(pr *PhaseResult, samples []int64) {
	if pr.Elapsed > 0 {
		pr.Throughput = float64(pr.Txns) / pr.Elapsed.Seconds()
	}
	if total := pr.Txns + pr.Aborts; total > 0 {
		pr.AbortRate = float64(pr.Aborts) / float64(total)
	}
	pr.Latency.AvgNs, pr.Latency.P50Ns, pr.Latency.P99Ns, _ = LatencyDigest(samples)
}

// phaseSamples pairs one measured phase's latency reservoir with the
// transaction count it represents.
type phaseSamples struct {
	samples []int64
	txns    uint64
}

type weightedSample struct {
	ns int64
	w  float64
}

// finishAggregate derives the scenario-level aggregate. Each phase's
// reservoir is capped at the same size regardless of how many
// transactions the phase ran, so samples are weighted by the transaction
// count they stand for — otherwise a slow, low-throughput phase would
// dominate the headline percentiles far beyond its share of the run.
func finishAggregate(pr *PhaseResult, parts []phaseSamples) {
	if pr.Elapsed > 0 {
		pr.Throughput = float64(pr.Txns) / pr.Elapsed.Seconds()
	}
	if total := pr.Txns + pr.Aborts; total > 0 {
		pr.AbortRate = float64(pr.Aborts) / float64(total)
	}
	var all []weightedSample
	var totalW, weightedSum float64
	for _, p := range parts {
		if len(p.samples) == 0 || p.txns == 0 {
			continue
		}
		w := float64(p.txns) / float64(len(p.samples))
		for _, s := range p.samples {
			all = append(all, weightedSample{ns: s, w: w})
			weightedSum += float64(s) * w
		}
		totalW += float64(p.txns)
	}
	if len(all) == 0 {
		return
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ns < all[j].ns })
	pr.Latency = LatencySummary{
		AvgNs: weightedSum / totalW,
		P50Ns: float64(weightedPercentile(all, totalW, 0.50)),
		P99Ns: float64(weightedPercentile(all, totalW, 0.99)),
	}
}

// weightedPercentile returns the smallest sample whose cumulative weight
// reaches p of totalW; all must be sorted by ns.
func weightedPercentile(all []weightedSample, totalW, p float64) int64 {
	target := p * totalW
	var cum float64
	for _, s := range all {
		cum += s.w
		if cum >= target {
			return s.ns
		}
	}
	return all[len(all)-1].ns
}
