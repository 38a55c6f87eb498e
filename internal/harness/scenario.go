package harness

import (
	"fmt"
	"math/rand"
	"sort"
)

// This file defines the scenario layer of the workload engine: what a
// transaction looks like (Mix), how the workload evolves over a run
// (Phase), and the named combinations the benchmark driver exposes
// (Scenario, Scenarios). The engine in engine.go executes them; the
// generators in generator.go supply the keys.

// Mix describes the transaction population of one phase. Three transaction
// shapes are drawn by weight:
//
//   - Mixed: TxMin..TxMax independent single-key operations in the
//     get:insert:remove proportions of Ratio — the paper's microbenchmark
//     transaction.
//   - Transfer: the bank-transfer composition from the package example:
//     read two keys, write two keys, all-or-nothing.
//   - Order: a TPC-C-mini new-order composition: one customer read, three
//     item read-update pairs, and one order-line insert into a disjoint
//     key region.
//
// A zero Mix (all weights zero) defaults to Mixed only.
type Mix struct {
	Ratio        Ratio // single-key op proportions within a Mixed transaction
	TxMin, TxMax int   // Mixed transaction length bounds (paper: 1..10)

	Mixed    int // weight of Mixed transactions
	Transfer int // weight of Transfer transactions
	Order    int // weight of Order transactions
	Scan     int // weight of Scan transactions (one bounded range scan)
	ScanLen  int // entries per scan (default 64)
}

// shapeWeights returns the normalized weights, applying the Mixed default.
func (m Mix) shapeWeights() (mixed, transfer, order, scan int) {
	mixed, transfer, order, scan = m.Mixed, m.Transfer, m.Order, m.Scan
	if mixed+transfer+order+scan == 0 {
		mixed = 1
	}
	return
}

// PhaseKind selects what a phase does.
type PhaseKind uint8

// Phase kinds of the workload engine.
const (
	// PhaseRun generates and executes transactions for the phase's
	// duration slice — the ordinary measurement phase.
	PhaseRun PhaseKind = iota
	// PhaseCrash takes no duration slice: the engine flushes committed
	// state, simulates a full-system crash, times recovery, and verifies
	// the recovered state against the ground-truth model of committed
	// operations (see verify.go). On systems without durable state it
	// records recoverable: false and leaves the system running.
	PhaseCrash
)

// Phase is one stage of a scenario. Weights slice the run's total duration
// across the PhaseRun phases, so a scenario's wall-clock cost is
// independent of its phase count; PhaseCrash phases take no slice (their
// elapsed time is the measured recovery latency).
type Phase struct {
	Name    string
	Kind    PhaseKind
	Weight  float64 // share of total duration (normalized across run phases)
	Mix     Mix
	Measure bool // include in the scenario's headline aggregate

	// Dist, when non-nil, overrides the scenario's key distribution for
	// this phase, so one scenario can measure the same mix under several
	// distributions (read-mostly runs uniform and zipfian phases
	// back-to-back).
	Dist *Dist
}

// Scenario is a named, self-contained workload: a key distribution plus a
// phase script. Scenarios are pure data — the engine owns execution — so
// adding a scenario never touches the engine or the systems under test.
type Scenario struct {
	Name        string
	Description string
	Dist        Dist
	Phases      []Phase

	// TPCC marks scenarios whose systems run the TPC-C driver instead of
	// the generated key mixes; the driver resolves system specs through
	// NewTPCCSystem and the engine's generated ops are ignored by the
	// workers (each Do call runs one TPC-C transaction).
	TPCC bool

	// WorkersPerThread, when > 1, multiplies the worker goroutines per
	// configured thread — the oversubscription chaos knob (workers ≫
	// GOMAXPROCS stresses help-based progress under preemption).
	WorkersPerThread int

	// GroupSize, when > 1, hands each worker's generated transactions to
	// DoGroup in runs of this size (see GroupWorker), modeling a client
	// that submits pipelined independent requests — the group-commit
	// workload shape. Each transaction keeps its own journal entry and
	// txns count; one latency sample covers a whole run.
	GroupSize int

	// VerifyFinal makes every run phase partition writes and journal
	// committed effects on all systems, then diffs the live end-of-run
	// state against the model (see verify.go) — chaos runs are checked,
	// not just timed.
	VerifyFinal bool

	// ServiceChaos and ReplicaChaos mark scenarios that run the
	// fault-verification runner (internal/chaos Run) instead of the
	// closed-loop engine: medleyd hosted in-process behind real listeners,
	// fault events landing mid-traffic, and a wire-level journal diff
	// against the state that survives. ServiceChaos deploys one daemon over
	// a durable backend behind a fault-injecting proxy, killed and
	// restarted mid-run, and verifies the recovered state. ReplicaChaos
	// deploys a leader and a follower replaying its commit-ordered feed,
	// with either leader kill + promotion cycles or replication-path
	// partitions mid-run, and classifies every replica/model difference.
	// The scenario's Dist and first phase's Mix shape the workload; the
	// fault plan (event counts, fault proxy settings, staleness bounds,
	// rates) is keyed by scenario name in the bench driver.
	ServiceChaos bool
	ReplicaChaos bool
}

// HasCrash reports whether the scenario contains a crash phase. Crash
// scenarios run with partitioned writes (see verify.go) on every system so
// that all systems see the same workload whether or not they can recover.
func (sc Scenario) HasCrash() bool {
	for _, ph := range sc.Phases {
		if ph.Kind == PhaseCrash {
			return true
		}
	}
	return false
}

// orderLineBit tags the keys that Order transactions insert order lines
// under, keeping them disjoint from the item/customer key space without a
// second structure.
const orderLineBit = uint64(1) << 62

// TxGen generates the transactions of one phase for one worker. It is
// deterministic in its seed and, like KeyGen, single-goroutine by design.
type TxGen struct {
	r        *rand.Rand
	kg       KeyGen
	mix      Mix
	keyRange uint64
	buf      []Op
}

// NewTxGen builds a per-worker transaction generator: keys from dist over
// keyRange, shapes and lengths from mix, everything derived from seed.
func NewTxGen(dist Dist, keyRange uint64, mix Mix, seed int64) *TxGen {
	if mix.TxMin <= 0 {
		mix.TxMin = 1
	}
	if mix.TxMax < mix.TxMin {
		mix.TxMax = mix.TxMin
	}
	if mix.Ratio.Get+mix.Ratio.Insert+mix.Ratio.Remove == 0 {
		mix.Ratio = Ratio{Get: 2, Insert: 1, Remove: 1}
	}
	if keyRange == 0 {
		keyRange = 1
	}
	r := rand.New(rand.NewSource(seed))
	return &TxGen{r: r, kg: NewKeyGen(dist, keyRange, r), mix: mix, keyRange: keyRange,
		buf: make([]Op, 0, 16)}
}

// Next returns the next transaction's operations. The slice is reused by
// the following call; workers consume it before generating again.
func (g *TxGen) Next() []Op {
	mixed, transfer, order, scan := g.mix.shapeWeights()
	g.buf = g.buf[:0]
	x := g.r.Intn(mixed + transfer + order + scan)
	switch {
	case x >= mixed+transfer+order:
		n := g.mix.ScanLen
		if n <= 0 {
			n = 64
		}
		g.buf = append(g.buf, Op{Kind: OpRange, Val: uint64(n)})
	case x < mixed:
		n := g.mix.TxMin + g.r.Intn(g.mix.TxMax-g.mix.TxMin+1)
		for i := 0; i < n; i++ {
			g.buf = append(g.buf, Op{
				Kind: pickKind(g.r, g.mix.Ratio),
				Key:  g.kg.Next(),
				Val:  g.r.Uint64(),
			})
		}
	case x < mixed+transfer:
		from := g.kg.Next()
		to := g.kg.Next()
		if to == from {
			to = (from + 1) % g.keyRange
		}
		amount := g.r.Uint64() % 128
		g.buf = append(g.buf,
			Op{Kind: OpGet, Key: from},
			Op{Kind: OpGet, Key: to},
			Op{Kind: OpInsert, Key: from, Val: amount},
			Op{Kind: OpInsert, Key: to, Val: amount},
		)
	default:
		customer := g.kg.Next()
		g.buf = append(g.buf, Op{Kind: OpGet, Key: customer})
		for i := 0; i < 3; i++ {
			item := g.kg.Next()
			g.buf = append(g.buf,
				Op{Kind: OpGet, Key: item},
				Op{Kind: OpInsert, Key: item, Val: g.r.Uint64()},
			)
		}
		g.buf = append(g.buf, Op{
			Kind: OpInsert,
			Key:  orderLineBit | (g.r.Uint64() &^ orderLineBit),
			Val:  customer,
		})
	}
	return g.buf
}

// ---------------------------------------------------------------- registry

// paperMix is the paper's microbenchmark transaction shape at the given
// single-key ratio.
func paperMix(r Ratio) Mix { return Mix{Ratio: r, TxMin: 1, TxMax: 10, Mixed: 1} }

// readMostlyMix is the 95/5 point-lookup traffic of the read-mostly
// scenario: 95% gets, the 5% writes split evenly between inserts and
// removes so the working set stays size-stable, in short 1-4 op
// transactions so most transactions are entirely read-only (the fast-path
// population) and most of the rest carry exactly one write.
func readMostlyMix() Mix {
	return Mix{Ratio: Ratio{Get: 38, Insert: 1, Remove: 1}, TxMin: 1, TxMax: 4, Mixed: 1}
}

// onePhase wraps a mix as a single measured phase.
func onePhase(m Mix) []Phase {
	return []Phase{{Name: "mixed", Weight: 1, Mix: m, Measure: true}}
}

// crashPhases is the crash-recover phase script: populate, run the paper's
// steady state, crash and verify, then keep running on the recovered
// state. The crash phase both recovers and verifies; the post-crash mixed
// phase shows whether the system is healthy (not just correct) afterwards.
func crashPhases(ratio Ratio) []Phase {
	return []Phase{
		{Name: "load", Weight: 0.2,
			Mix: Mix{Ratio: Ratio{Get: 0, Insert: 1, Remove: 0}, TxMin: 1, TxMax: 10, Mixed: 1}},
		{Name: "mixed", Weight: 0.5, Mix: paperMix(ratio), Measure: true},
		{Name: "crash", Kind: PhaseCrash},
		{Name: "post-mixed", Weight: 0.3, Mix: paperMix(ratio), Measure: true},
	}
}

// builtin is the scenario registry. Keys are the -scenario names of
// cmd/medley-bench; EXPERIMENTS.md documents how they map to the paper's
// figures and beyond.
var builtin = map[string]Scenario{
	"uniform-mixed": {
		Description: "paper microbenchmark: uniform keys, 2:1:1 get:insert:remove, 1-10 ops/txn",
		Dist:        Dist{Kind: DistUniform},
		Phases:      onePhase(paperMix(Ratio{Get: 2, Insert: 1, Remove: 1})),
	},
	"uniform-readmostly": {
		Description: "paper microbenchmark: uniform keys, 18:1:1",
		Dist:        Dist{Kind: DistUniform},
		Phases:      onePhase(paperMix(Ratio{Get: 18, Insert: 1, Remove: 1})),
	},
	"uniform-writeheavy": {
		Description: "paper microbenchmark: uniform keys, 0:1:1",
		Dist:        Dist{Kind: DistUniform},
		Phases:      onePhase(paperMix(Ratio{Get: 0, Insert: 1, Remove: 1})),
	},
	"zipfian-mixed": {
		Description: "skewed contention: Zipf(1.2) scrambled keys, 2:1:1",
		Dist:        Dist{Kind: DistZipfian, Theta: 1.2},
		Phases:      onePhase(paperMix(Ratio{Get: 2, Insert: 1, Remove: 1})),
	},
	"zipfian-readmostly": {
		Description: "skewed read-mostly: Zipf(1.2) scrambled keys, 18:1:1",
		Dist:        Dist{Kind: DistZipfian, Theta: 1.2},
		Phases:      onePhase(paperMix(Ratio{Get: 18, Insert: 1, Remove: 1})),
	},
	"latest-mixed": {
		Description: "recency skew: Zipf head at the newest keys, 2:1:1",
		Dist:        Dist{Kind: DistLatest, Theta: 1.2},
		Phases:      onePhase(paperMix(Ratio{Get: 2, Insert: 1, Remove: 1})),
	},
	"hotspot-readmostly": {
		Description: "90% of ops on 10% of keys, 18:1:1",
		Dist:        Dist{Kind: DistHotspot, HotFrac: 0.1, HotOpFrac: 0.9},
		Phases:      onePhase(paperMix(Ratio{Get: 18, Insert: 1, Remove: 1})),
	},
	"transfer": {
		Description: "bank transfers: 2-key read-modify-write compositions, uniform keys",
		Dist:        Dist{Kind: DistUniform},
		Phases:      onePhase(Mix{Transfer: 1}),
	},
	"tpcc-mini": {
		Description: "order entry: 8-op new-order-style compositions, Zipf item popularity",
		Dist:        Dist{Kind: DistZipfian, Theta: 1.2},
		Phases:      onePhase(Mix{Order: 1}),
	},
	"composed-mixed": {
		Description: "mixed population: microbenchmark, transfer and order txns 2:1:1",
		Dist:        Dist{Kind: DistZipfian, Theta: 1.2},
		Phases: onePhase(Mix{
			Ratio: Ratio{Get: 2, Insert: 1, Remove: 1}, TxMin: 1, TxMax: 10,
			Mixed: 2, Transfer: 1, Order: 1,
		}),
	},
	"crash-recover-uniform": {
		Description: "durability: load, 2:1:1 steady state, crash + verified recovery, post-crash steady state; uniform keys",
		Dist:        Dist{Kind: DistUniform},
		Phases:      crashPhases(Ratio{Get: 2, Insert: 1, Remove: 1}),
	},
	"crash-recover-zipfian": {
		Description: "durability under skew: crash + verified recovery with Zipf(1.2) keys, 2:1:1",
		Dist:        Dist{Kind: DistZipfian, Theta: 1.2},
		Phases:      crashPhases(Ratio{Get: 2, Insert: 1, Remove: 1}),
	},
	"crash-recover-writeheavy": {
		Description: "durability under churn: crash + verified recovery at 0:1:1 (stresses payload retirement and block reuse)",
		Dist:        Dist{Kind: DistUniform},
		Phases:      crashPhases(Ratio{Get: 0, Insert: 1, Remove: 1}),
	},
	"alloc-pressure": {
		Description: "GC pressure: the mixed-zipfian microbenchmark instrumented for allocs/op — compares recycling arenas (Medley-hash) against the unpooled baseline (Medley-hash-nopool) in one report",
		Dist:        Dist{Kind: DistZipfian, Theta: 1.2},
		Phases:      onePhase(paperMix(Ratio{Get: 2, Insert: 1, Remove: 1})),
	},
	"read-mostly": {
		Description: "commit fast-path showcase: 95/5 point mix (2.5% inserts, 2.5% removes), short 1-4 op transactions, uniform and Zipf(1.2) phases measured separately",
		Dist:        Dist{Kind: DistUniform},
		Phases: []Phase{
			{Name: "uniform", Weight: 0.5, Mix: readMostlyMix(), Measure: true},
			{Name: "zipfian", Weight: 0.5, Mix: readMostlyMix(), Measure: true,
				Dist: &Dist{Kind: DistZipfian, Theta: 1.2}},
		},
	},
	"scan-heavy": {
		Description: "read-only range scans interleaved 1:2 with 95/5 point transactions: scans commit through the read-only fast path, point writes through the single-write fold",
		Dist:        Dist{Kind: DistUniform},
		Phases: onePhase(Mix{
			Ratio: Ratio{Get: 38, Insert: 1, Remove: 1}, TxMin: 1, TxMax: 4,
			Mixed: 2, Scan: 1, ScanLen: 128,
		}),
	},
	"range-scan": {
		Description: "scan-heavy mix: 2:1:1 point ops with 64-entry range scans interleaved 3:1",
		Dist:        Dist{Kind: DistUniform},
		Phases: onePhase(Mix{
			Ratio: Ratio{Get: 2, Insert: 1, Remove: 1}, TxMin: 1, TxMax: 10,
			Mixed: 3, Scan: 1, ScanLen: 64,
		}),
	},
	"sharded-uniform": {
		Description: "partitioned scaling: paper 2:1:1 mix for sharded stores vs single instances (name@N)",
		Dist:        Dist{Kind: DistUniform},
		Phases:      onePhase(paperMix(Ratio{Get: 2, Insert: 1, Remove: 1})),
	},
	"sharded-zipfian": {
		Description: "partitioned scaling under write-heavy skew: Zipf(1.2) keys, 0:1:1",
		Dist:        Dist{Kind: DistZipfian, Theta: 1.2},
		Phases:      onePhase(paperMix(Ratio{Get: 0, Insert: 1, Remove: 1})),
	},
	"sharded-transfer": {
		Description: "cross-shard atomicity under load: 2-key transfers that straddle shard boundaries",
		Dist:        Dist{Kind: DistUniform},
		Phases:      onePhase(Mix{Transfer: 1}),
	},
	"tpcc-full": {
		Description: "full TPC-C: the standard 45/43/4/4/4 five-transaction mix over hash-partitioned warehouses, with the clause 3.3.2 consistency conditions verified after the measured phases and after a crash phase",
		TPCC:        true,
		Phases: []Phase{
			{Name: "mixed", Weight: 0.7, Measure: true},
			{Name: "crash", Kind: PhaseCrash},
			{Name: "post-mixed", Weight: 0.3, Measure: true},
		},
	},
	"chaos-crash-in-recovery": {
		Description: "chaos: a second crash lands immediately after recovery completes, before any post-crash work — recovery must be idempotent and the twice-recovered state still match the committed model",
		Dist:        Dist{Kind: DistUniform},
		Phases: []Phase{
			{Name: "load", Weight: 0.2,
				Mix: Mix{Ratio: Ratio{Get: 0, Insert: 1, Remove: 0}, TxMin: 1, TxMax: 10, Mixed: 1}},
			{Name: "mixed", Weight: 0.4,
				Mix: paperMix(Ratio{Get: 2, Insert: 1, Remove: 1}), Measure: true},
			{Name: "crash", Kind: PhaseCrash},
			{Name: "re-crash", Kind: PhaseCrash},
			{Name: "post-mixed", Weight: 0.4,
				Mix: paperMix(Ratio{Get: 2, Insert: 1, Remove: 1}), Measure: true},
		},
	},
	"chaos-hot-key": {
		Description: "chaos: pathological contention — 90% of ops hit a single key (hotspot with a one-key hot set), 2:1:1, final state verified against the committed model",
		Dist:        Dist{Kind: DistHotspot, HotFrac: 1e-9, HotOpFrac: 0.9},
		VerifyFinal: true,
		Phases:      onePhase(paperMix(Ratio{Get: 2, Insert: 1, Remove: 1})),
	},
	"chaos-oversubscribe": {
		Description:      "chaos: 8 worker goroutines per configured thread (workers ≫ GOMAXPROCS) — helping must carry preempted commits; final state verified against the committed model",
		Dist:             Dist{Kind: DistUniform},
		WorkersPerThread: 8,
		VerifyFinal:      true,
		Phases:           onePhase(paperMix(Ratio{Get: 2, Insert: 1, Remove: 1})),
	},
	"chaos-shard-skew": {
		Description: "chaos: write-heavy Zipf(1.4) skew that concentrates traffic on a few shards of a partitioned store; final state verified against the committed model",
		Dist:        Dist{Kind: DistZipfian, Theta: 1.4},
		VerifyFinal: true,
		Phases:      onePhase(paperMix(Ratio{Get: 0, Insert: 1, Remove: 1})),
	},
	"chaos-scan-race": {
		Description: "chaos: long range scans (4096 entries) racing write-heavy bursts 1:2; scan validation vs. churn, final state verified against the committed model",
		Dist:        Dist{Kind: DistUniform},
		VerifyFinal: true,
		Phases: onePhase(Mix{
			Ratio: Ratio{Get: 0, Insert: 1, Remove: 1}, TxMin: 1, TxMax: 10,
			Mixed: 2, Scan: 1, ScanLen: 4096,
		}),
	},
	"groupcommit": {
		Description: "group-commit showcase: workers submit pipelined runs of 8 independent 2:1:1 transactions (see GroupSize), measured under Zipf(1.2) skew and under a 90/10 hotspot after an unmeasured warm phase (recycling arenas at steady state) — compares merged group commits (Medley-hash) against the -nogroup ablation (Medley-hash-nogroup)",
		Dist:        Dist{Kind: DistZipfian, Theta: 1.2},
		GroupSize:   8,
		Phases: []Phase{
			{Name: "warm", Weight: 0.34, Mix: paperMix(Ratio{Get: 2, Insert: 1, Remove: 1})},
			{Name: "zipfian", Weight: 0.33, Mix: paperMix(Ratio{Get: 2, Insert: 1, Remove: 1}), Measure: true},
			{Name: "hot-key", Weight: 0.33, Mix: paperMix(Ratio{Get: 2, Insert: 1, Remove: 1}), Measure: true,
				Dist: &Dist{Kind: DistHotspot, HotFrac: 0.1, HotOpFrac: 0.9}},
		},
	},
	"chaos-group-commit": {
		Description: "chaos: group commit racing helper aborts — pipelined runs of 8 transactions over a 90/10 hotspot force merged commits to conflict and fall back mid-run; final state verified against the committed model",
		Dist:        Dist{Kind: DistHotspot, HotFrac: 0.1, HotOpFrac: 0.9},
		GroupSize:   8,
		VerifyFinal: true,
		Phases:      onePhase(paperMix(Ratio{Get: 2, Insert: 1, Remove: 1})),
	},
	"service-mixed": {
		Description: "network service traffic: 90/10 point mixes in short transactions with transfers interleaved 4:1, Zipf(1.2) keys — the open-loop SLO workload for medleyd and the in-process driver",
		Dist:        Dist{Kind: DistZipfian, Theta: 1.2},
		Phases: onePhase(Mix{
			Ratio: Ratio{Get: 18, Insert: 1, Remove: 1}, TxMin: 1, TxMax: 8,
			Mixed: 4, Transfer: 1,
		}),
	},
	"chaos-service-restart": {
		Description:  "service chaos: medleyd over a durable backend is killed and restarted 3 times mid-traffic on a clean network; client journals of definitively acked put/delete batches must match the recovered state exactly (zero wire-level durability violations)",
		Dist:         Dist{Kind: DistUniform},
		ServiceChaos: true,
		Phases: onePhase(Mix{
			Ratio: Ratio{Get: 2, Insert: 1, Remove: 1}, TxMin: 1, TxMax: 8, Mixed: 1,
		}),
	},
	"chaos-net-flaky": {
		Description:  "service chaos: 3 restarts under a flaky network — per-chunk latency and jitter, every 7th connection reset after its request is delivered — exercising retry backoff, the circuit breaker and the dedup window together; wire-level verification on the recovered state",
		Dist:         Dist{Kind: DistUniform},
		ServiceChaos: true,
		Phases: onePhase(Mix{
			Ratio: Ratio{Get: 2, Insert: 1, Remove: 1}, TxMin: 1, TxMax: 8, Mixed: 1,
		}),
	},
	"chaos-slow-client": {
		Description:  "service chaos: a slow, lossy edge — heavy per-chunk latency and slow half-open closes — with tight request deadlines, so expired dispositions and deadline culls dominate; one restart, wire-level verification on the recovered state",
		Dist:         Dist{Kind: DistUniform},
		ServiceChaos: true,
		Phases: onePhase(Mix{
			Ratio: Ratio{Get: 4, Insert: 1, Remove: 1}, TxMin: 1, TxMax: 6, Mixed: 1,
		}),
	},
	"chaos-replica-failover": {
		Description:  "replica chaos: 3 leader kill + follower promotion cycles mid-traffic, each dead address rebound by a fresh snapshot-bootstrapped follower; acked writes lost at promotion are enumerated from the dead feed and tainted, everything else must match the final replica exactly (zero divergence), availability budgeted at 0.99",
		Dist:         Dist{Kind: DistUniform},
		ReplicaChaos: true,
		Phases: onePhase(Mix{
			Ratio: Ratio{Get: 8, Insert: 2, Remove: 1}, TxMin: 1, TxMax: 4, Mixed: 1,
		}),
	},
	"chaos-replica-lag": {
		Description:  "replica chaos: the replication path is partitioned twice mid-run; replay lag must build past the staleness bound, lagging follower reads must be rejected (409, driver falls back to the leader), and post-heal catch-up must converge with zero lost writes and zero divergence",
		Dist:         Dist{Kind: DistUniform},
		ReplicaChaos: true,
		Phases: onePhase(Mix{
			Ratio: Ratio{Get: 12, Insert: 2, Remove: 1}, TxMin: 1, TxMax: 4, Mixed: 1,
		}),
	},
	"load-mixed-drain": {
		Description: "working-set lifecycle: insert-only load, 2:1:1 steady state, remove-heavy drain",
		Dist:        Dist{Kind: DistUniform},
		Phases: []Phase{
			{Name: "load", Weight: 0.25,
				Mix: Mix{Ratio: Ratio{Get: 0, Insert: 1, Remove: 0}, TxMin: 1, TxMax: 10, Mixed: 1}},
			{Name: "mixed", Weight: 0.5,
				Mix: paperMix(Ratio{Get: 2, Insert: 1, Remove: 1}), Measure: true},
			{Name: "drain", Weight: 0.25,
				Mix: Mix{Ratio: Ratio{Get: 1, Insert: 0, Remove: 4}, TxMin: 1, TxMax: 10, Mixed: 1}},
		},
	},
}

// LookupScenario returns the named built-in scenario.
func LookupScenario(name string) (Scenario, error) {
	sc, ok := builtin[name]
	if !ok {
		return Scenario{}, fmt.Errorf("unknown scenario %q (known: %v)", name, ScenarioNames())
	}
	sc.Name = name
	return sc, nil
}

// ScenarioNames lists the built-in scenarios in stable order.
func ScenarioNames() []string {
	names := make([]string, 0, len(builtin))
	for n := range builtin {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
