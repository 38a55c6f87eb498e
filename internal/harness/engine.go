package harness

import (
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
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

// minus is the delta from an earlier sample b to a.
func (a memSample) minus(b memSample) memSample {
	return memSample{a.allocObjs - b.allocObjs, a.allocBytes - b.allocBytes, a.pauseNs - b.pauseNs, a.numGC - b.numGC}
}

// tally is what one phase measured, before any report block is derived
// from it. Tallies add, and one derivation (result) turns a phase's tally
// into its record and the sum of the measured phases' tallies into the
// measured aggregate.
type tally struct {
	txns, ops, aborts uint64
	elapsed           time.Duration
	// samples are the phase's latency reservoir, each weighted by the
	// transactions it stands for (see weigh).
	samples []weightedSample
	mem     memSample // allocator and GC delta
	// counters are the counter deltas by name; nil when the system
	// exports none.
	counters map[string]uint64
	kinds    []KindStat // per-kind deltas
	// checked is set when the domain-invariant check ran at the phase
	// barrier; violations is what it found.
	checked    bool
	violations []ConsistencyViolation
}

// weigh adds one phase's reservoir samples, each weighted by the phase's
// txns ÷ samples. Every reservoir holds the same number of samples however
// many transactions its phase ran, so without the weight a slow,
// low-throughput phase would dominate the aggregate's percentiles far
// beyond its share of the run.
func (t *tally) weigh(samples []int64) {
	w := float64(t.txns) / float64(len(samples))
	for _, ns := range samples {
		t.samples = append(t.samples, weightedSample{ns: ns, w: w})
	}
}

// add sums o into t: counts, samples, memory, counters and kinds by name,
// and the consistency findings.
func (t *tally) add(o tally) {
	t.txns += o.txns
	t.ops += o.ops
	t.aborts += o.aborts
	t.elapsed += o.elapsed
	t.samples = append(t.samples, o.samples...)
	t.mem = memSample{t.mem.allocObjs + o.mem.allocObjs, t.mem.allocBytes + o.mem.allocBytes,
		t.mem.pauseNs + o.mem.pauseNs, t.mem.numGC + o.mem.numGC}
	if o.counters != nil && t.counters == nil {
		t.counters = make(map[string]uint64, len(o.counters))
	}
	for name, v := range o.counters {
		t.counters[name] += v
	}
	for _, k := range o.kinds {
		i := slices.IndexFunc(t.kinds, func(a KindStat) bool { return a.Kind == k.Kind })
		if i < 0 {
			t.kinds = append(t.kinds, k)
			continue
		}
		t.kinds[i].Txns += k.Txns
		t.kinds[i].Aborts += k.Aborts
		t.kinds[i].TotalNs += k.TotalNs
	}
	t.checked = t.checked || o.checked
	t.violations = append(t.violations, o.violations...)
}

// result derives every block of a run-phase record from the tally:
// throughput, abort rate, latency, memory (its arena fields from the
// counters) and, when the tally holds what they derive from, fastpath,
// telemetry, kinds and consistency. The samples are sorted in place.
func (t *tally) result(phase string) Record {
	ph := PhaseResult{Phase: phase, Txns: t.txns, Ops: t.ops, Aborts: t.aborts, Elapsed: t.elapsed}
	if t.elapsed > 0 {
		ph.Throughput = float64(t.txns) / t.elapsed.Seconds()
	}
	if total := t.txns + t.aborts; total > 0 {
		ph.AbortRate = float64(t.aborts) / float64(total)
	}
	ph.Latency.AvgNs, ph.Latency.P50Ns, ph.Latency.P99Ns, _ = weightedDigest(t.samples)
	c := t.counters
	m := &MemoryResult{
		TotalAllocs: t.mem.allocObjs, TotalBytes: t.mem.allocBytes,
		GCPauseNs: int64(t.mem.pauseNs), NumGC: t.mem.numGC,
		PoolGets: c["pool_gets"], PoolHits: c["pool_hits"], PoolRetires: c["pool_retires"],
	}
	if t.ops > 0 {
		m.AllocsPerOp = float64(m.TotalAllocs) / float64(t.ops)
		m.BytesPerOp = float64(m.TotalBytes) / float64(t.ops)
	}
	if m.PoolGets > 0 {
		m.PoolHitRate = float64(m.PoolHits) / float64(m.PoolGets)
	}
	ph.Memory = m
	ph.Fastpath = fastpathResult(c)
	if c != nil {
		ph.Telemetry = &TelemetryResult{Counters: sortedCounters(c), Gauges: deriveGauges(c)}
	}
	ph.Kinds = kindResults(t.kinds)
	if t.checked {
		ph.Consistency = consistencyResult(t.violations)
	}
	return Record{PhaseResult: ph}
}

// EngineConfig parameterizes one scenario run.
type EngineConfig struct {
	Threads  int
	Duration time.Duration // total, sliced across phases by weight
	KeyRange uint64
	Preload  int
	Seed     int64
}

// latencyEvery times every Nth closed-loop transaction: clock reads cost
// tens of nanoseconds, so timing every transaction would tax the fastest
// systems most and compress cross-system ratios.
const latencyEvery = 4

// PhaseResult is the measurement of one phase (or the aggregate of the
// measured phases), and the phase half of a report Record. On a crash
// phase's record Elapsed is the recovery latency.
type PhaseResult struct {
	Phase      string         `json:"phase"`
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
// order, each worker asking for its executor per phase. It returns one
// record per phase, in script order, then the measured aggregate — so
// phase == "measured" selects the headline number whatever the phase
// count. It is deterministic in cfg.Seed up to scheduling (the generators
// are; the interleaving is not).
func RunScenario(sys System, sc Scenario, cfg EngineConfig) []Record {
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

	anyMeasured := slices.ContainsFunc(sc.Phases, func(ph Phase) bool { return ph.Measure })
	var recs []Record
	var agg tally // the measured phases (all run phases when none is marked)
	for pi, ph := range sc.Phases {
		if ph.Kind == PhaseCrash {
			recs = append(recs, runCrashPhase(caps, vs, ph))
			continue
		}
		w := ph.Weight
		if w <= 0 {
			w = 1
		}
		d := time.Duration(float64(cfg.Duration) * w / totalWeight)
		t := runPhase(sys, caps, sc, ph, pi, cfg, workers, d, vs)
		if caps.Consistency != nil && ph.Measure {
			t.checked, t.violations = true, caps.Consistency.ConsistencyCheck()
		}
		if ph.Measure || !anyMeasured {
			agg.add(t)
		}
		recs = append(recs, t.result(ph.Name))
	}
	m := agg.result("measured")
	if sc.VerifyFinal {
		m.FinalCheck = runFinalCheck(caps, vs)
	}
	recs = append(recs, m)
	for i := range recs {
		recs[i].System, recs[i].Scenario = sys.Name(), sc.Name
		recs[i].Threads, recs[i].Shards = cfg.Threads, max(caps.ShardCount(), 1)
	}
	return recs
}

// runPhase spawns the phase's workers (cfg.Threads, multiplied by the
// scenario's WorkersPerThread) and tallies their shards and the system's
// counters around the phase. In crash and VerifyFinal
// scenarios (vs non-nil) write keys are partitioned per worker and, when
// journaling, committed effects are merged into the ground-truth model at
// the phase barrier.
func runPhase(sys System, caps Caps, sc Scenario, ph Phase, phaseIdx int, cfg EngineConfig, workers int, d time.Duration, vs *verifyState) tally {
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
					shard.Record(time.Since(t0))
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
	t := tally{elapsed: elapsed, mem: readMemSample().minus(mem0)}
	var samples []int64
	for _, s := range shards {
		t.txns += s.txns
		t.ops += s.ops
		samples = append(samples, s.Samples...)
	}
	t.weigh(samples)
	if caps.Metrics != nil {
		t.counters = diffMetrics(met0, caps.Metrics.MetricsSnapshot())
	}
	// Worker write domains are disjoint (residue classes), so merging the
	// journals is conflict-free.
	for _, jm := range journals {
		for k, v := range jm {
			vs.model[k] = v
		}
	}
	if caps.TxStats != nil {
		_, aborts1 := caps.TxStats.TxStats()
		t.aborts = aborts1 - aborts0
	}
	if caps.Kinds != nil {
		t.kinds = diffKinds(kin0, caps.Kinds.TxKindStats())
	}
	return t
}

// runCrashPhase executes a PhaseCrash phase: flush committed state, crash,
// time recovery, and verify the recovered contents against the model. All
// workers are stopped at this point (phases are barriers), so the model is
// exactly the committed history and the snapshot is quiescent. The record
// carries this crash's recovery block (Recoverable false when the system
// keeps no durable state) and the consistency check run after it.
func runCrashPhase(caps Caps, vs *verifyState, ph Phase) Record {
	rec := Record{PhaseResult: PhaseResult{Phase: ph.Name}, Recovery: &RecoveryResult{}}
	if caps.CanRecover() {
		caps.Recovery.Persist()
		t0 := time.Now()
		entries := caps.Recovery.CrashAndRecover()
		rec.Elapsed = time.Since(t0)
		fc := checkState(vs.model, caps.Recovery.StateSnapshot)
		*rec.Recovery = RecoveryResult{
			Recoverable: true, RecoveryNs: int64(rec.Elapsed), Recovered: entries,
			ModelEntries: fc.ModelEntries, Missing: fc.Missing, Mismatched: fc.Mismatched,
			Leaked: fc.Leaked, Violations: fc.Violations,
		}
	}
	if caps.Consistency != nil {
		rec.Consistency = consistencyResult(caps.Consistency.ConsistencyCheck())
	}
	return rec
}
