package harness

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"

	"medley/internal/tpcc"
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
// phase script, and the systems it runs on by default. Scenarios are pure
// data — the engine owns execution — so adding a scenario never touches
// the engine or the systems under test.
type Scenario struct {
	Name        string
	Description string
	Dist        Dist
	Phases      []Phase

	// Systems is the -systems 'auto' set: the specs this workload is
	// meant to compare. LookupScenario fills in the full transient set
	// (every registry structure plus the competitors) on a row that names
	// none.
	Systems []string

	// TPCC, when non-zero, makes this a TPC-C scenario and is its
	// transaction mix: system specs resolve through NewTPCCSystem and the
	// engine's generated ops are ignored by the executors (each ExecBatch
	// call runs one TPC-C transaction drawn from the mix).
	TPCC tpcc.MixWeights

	// WorkersPerThread, when > 1, multiplies the worker goroutines per
	// configured thread — the oversubscription chaos knob (workers ≫
	// GOMAXPROCS stresses help-based progress under preemption).
	WorkersPerThread int

	// VerifyFinal makes every run phase partition writes and journal
	// committed effects on all systems, then diffs the live end-of-run
	// state against the model (see verify.go) — chaos runs are checked,
	// not just timed.
	VerifyFinal bool
}

// IsTPCC reports whether the scenario runs the TPC-C driver.
func (sc Scenario) IsTPCC() bool { return sc.TPCC != tpcc.MixWeights{} }

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

// paperDists and paperRatios span the paper-microbenchmark family: the
// scenario "<dist>-<ratio>" is one measured phase of 1-10 op transactions
// at that get:insert:remove ratio over that key distribution. Section 6
// runs the uniform column; the skewed ones are the same transaction under
// contention.
var paperDists = []struct {
	name, desc string
	dist       Dist
}{
	{"uniform", "uniform keys", Dist{Kind: DistUniform}},
	{"zipfian", "Zipf(1.2) scrambled keys", Dist{Kind: DistZipfian, Theta: 1.2}},
	{"latest", "Zipf(1.2) head at the newest keys", Dist{Kind: DistLatest, Theta: 1.2}},
	{"hotspot", "90% of ops on 10% of keys", Dist{Kind: DistHotspot, HotFrac: 0.1, HotOpFrac: 0.9}},
}

var paperRatios = []struct {
	name  string
	ratio Ratio
}{
	{"writeheavy", Ratio{Get: 0, Insert: 1, Remove: 1}},
	{"mixed", Ratio{Get: 2, Insert: 1, Remove: 1}},
	{"readmostly", Ratio{Get: 18, Insert: 1, Remove: 1}},
}

// paperGrammar is the family's one line in ScenarioUsage.
const paperGrammar = "{uniform|zipfian|latest|hotspot}-{mixed|readmostly|writeheavy}"

// paperScenario resolves a "<dist>-<ratio>" name of the family.
func paperScenario(name string) (Scenario, bool) {
	d, r, _ := strings.Cut(name, "-")
	for _, pd := range paperDists {
		for _, pr := range paperRatios {
			if pd.name == d && pr.name == r {
				return Scenario{
					Description: fmt.Sprintf("paper microbenchmark: %s, %s get:insert:remove, 1-10 ops/txn", pd.desc, pr.ratio),
					Dist:        pd.dist,
					Phases:      onePhase(paperMix(pr.ratio)),
				}, true
			}
		}
	}
	return Scenario{}, false
}

// paperOn is a family member under its own name: the same workload, run
// by default on the systems one comparison is about.
func paperOn(name, description string, systems ...string) Scenario {
	sc, ok := paperScenario(name)
	if !ok {
		panic("harness: no paper scenario " + name)
	}
	sc.Description, sc.Systems = description, systems
	return sc
}

// transientSystems is the Systems of a row that names none; crashSystems
// runs the durability verification on both persistent designs plus one
// transient system for the recoverable:false path.
var (
	transientSystems = []string{
		"medley-hash", "medley-skip", "medley-bst", "medley-rotating",
		"onefile-hash", "tdsl", "lftt",
	}
	crashSystems = []string{"txmontage-hash", "ponefile-hash", "medley-hash"}
)

// builtin is the table of hand-written scenario rows; the paper family
// above resolves beside it. Keys are the -scenario names of
// cmd/medley-bench; EXPERIMENTS.md documents how they map to the paper's
// figures and beyond. The service and replica chaos rows, which the
// closed-loop engine cannot run, live beside their fault plans in
// cmd/medley-bench/chaos.go.
var builtin = map[string]Scenario{
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
		Systems:     crashSystems,
	},
	"crash-recover-zipfian": {
		Description: "durability under skew: crash + verified recovery with Zipf(1.2) keys, 2:1:1",
		Dist:        Dist{Kind: DistZipfian, Theta: 1.2},
		Phases:      crashPhases(Ratio{Get: 2, Insert: 1, Remove: 1}),
		Systems:     crashSystems,
	},
	"crash-recover-writeheavy": {
		Description: "durability under churn: crash + verified recovery at 0:1:1 (stresses payload retirement and block reuse)",
		Dist:        Dist{Kind: DistUniform},
		Phases:      crashPhases(Ratio{Get: 0, Insert: 1, Remove: 1}),
		Systems:     crashSystems,
	},
	"alloc-pressure": paperOn("zipfian-mixed",
		"GC pressure: zipfian-mixed instrumented for allocs/op — compares recycling arenas (Medley-hash) against the unpooled baseline (Medley-hash-nopool) in one report",
		"medley-hash", "medley-hash-nopool"),
	"read-mostly": {
		Description: "commit fast-path showcase: 95/5 point mix (2.5% inserts, 2.5% removes), short 1-4 op transactions, uniform and Zipf(1.2) phases measured separately",
		Dist:        Dist{Kind: DistUniform},
		Phases: []Phase{
			{Name: "uniform", Weight: 0.5, Mix: readMostlyMix(), Measure: true},
			{Name: "zipfian", Weight: 0.5, Mix: readMostlyMix(), Measure: true,
				Dist: &Dist{Kind: DistZipfian, Theta: 1.2}},
		},
		Systems: []string{"medley-hash", "medley-hash-nofast"},
	},
	"scan-heavy": {
		Description: "read-only range scans interleaved 1:2 with 95/5 point transactions: scans commit through the read-only fast path, point writes through the single-write fold",
		Dist:        Dist{Kind: DistUniform},
		Phases: onePhase(Mix{
			Ratio: Ratio{Get: 38, Insert: 1, Remove: 1}, TxMin: 1, TxMax: 4,
			Mixed: 2, Scan: 1, ScanLen: 128,
		}),
		Systems: []string{"medley-hash", "medley-hash-nofast"},
	},
	"range-scan": {
		Description: "scan-heavy mix: 2:1:1 point ops with 64-entry range scans interleaved 3:1",
		Dist:        Dist{Kind: DistUniform},
		Phases: onePhase(Mix{
			Ratio: Ratio{Get: 2, Insert: 1, Remove: 1}, TxMin: 1, TxMax: 10,
			Mixed: 3, Scan: 1, ScanLen: 64,
		}),
	},
	"sharded-zipfian": paperOn("zipfian-writeheavy",
		"partitioned scaling under write-heavy skew: zipfian-writeheavy on sharded stores vs single instances (name@N)",
		"medley-hash", "medley-hash@8", "medley-skip@8", "onefile-hash"),
	"tpcc-paper": {
		Description: "Figure 9: TPC-C newOrder and payment 1:1 (the paper's DBx1000-style mix) on the four TPC-C backends, clause 3.3.2 consistency conditions verified after the measured phase",
		TPCC:        tpcc.PaperMix(),
		Phases:      onePhase(Mix{}),
		Systems:     []string{"medley-skip", "txmontage-skip", "onefile-skip", "tdsl"},
	},
	"tpcc-full": {
		Description: "full TPC-C: the standard 45/43/4/4/4 five-transaction mix over hash-partitioned warehouses, with the clause 3.3.2 consistency conditions verified after each measured phase and at a crash barrier (no TPC-C backend recovers: the barrier reports recoverable=false and the run continues on the live tables)",
		TPCC:        tpcc.FullMix(),
		Phases: []Phase{
			{Name: "mixed", Weight: 0.7, Measure: true},
			{Name: "crash", Kind: PhaseCrash},
			{Name: "post-mixed", Weight: 0.3, Measure: true},
		},
		// The sharded variant exercises cross-shard deliveries and payments.
		Systems: []string{"medley-hash", "medley-hash@4"},
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
		Systems: crashSystems,
	},
	"chaos-hot-key": {
		Description: "chaos: pathological contention — 90% of ops hit a single key (hotspot with a one-key hot set), 2:1:1, final state verified against the committed model",
		Dist:        Dist{Kind: DistHotspot, HotFrac: 1e-9, HotOpFrac: 0.9},
		VerifyFinal: true,
		Phases:      onePhase(paperMix(Ratio{Get: 2, Insert: 1, Remove: 1})),
		Systems:     []string{"medley-hash", "medley-skip"},
	},
	"chaos-oversubscribe": {
		Description:      "chaos: 8 worker goroutines per configured thread (workers ≫ GOMAXPROCS) — helping must carry preempted commits; final state verified against the committed model",
		Dist:             Dist{Kind: DistUniform},
		WorkersPerThread: 8,
		VerifyFinal:      true,
		Phases:           onePhase(paperMix(Ratio{Get: 2, Insert: 1, Remove: 1})),
		Systems:          []string{"medley-hash"},
	},
	"chaos-shard-skew": {
		Description: "chaos: write-heavy Zipf(1.4) skew that concentrates traffic on a few shards of a partitioned store; final state verified against the committed model",
		Dist:        Dist{Kind: DistZipfian, Theta: 1.4},
		VerifyFinal: true,
		Phases:      onePhase(paperMix(Ratio{Get: 0, Insert: 1, Remove: 1})),
		Systems:     []string{"medley-hash", "medley-hash@8"},
	},
	"chaos-scan-race": {
		Description: "chaos: long range scans (4096 entries) racing write-heavy bursts 1:2; scan validation vs. churn, final state verified against the committed model",
		Dist:        Dist{Kind: DistUniform},
		VerifyFinal: true,
		Phases: onePhase(Mix{
			Ratio: Ratio{Get: 0, Insert: 1, Remove: 1}, TxMin: 1, TxMax: 10,
			Mixed: 2, Scan: 1, ScanLen: 4096,
		}),
		Systems: []string{"medley-hash", "medley-skip"},
	},
	"service-mixed": {
		Description: "network service traffic: 90/10 point mixes in short transactions with transfers interleaved 4:1, Zipf(1.2) keys — the open-loop SLO workload for medleyd and the in-process driver",
		Dist:        Dist{Kind: DistZipfian, Theta: 1.2},
		Phases: onePhase(Mix{
			Ratio: Ratio{Get: 18, Insert: 1, Remove: 1}, TxMin: 1, TxMax: 8,
			Mixed: 4, Transfer: 1,
		}),
		// The service path runs on the sharded flagship configuration; the
		// open-loop sweep compares drivers, not store variants.
		Systems: []string{"medley-hash@8"},
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

// LookupScenario returns the named scenario: a hand-written row or a
// member of the paper family.
func LookupScenario(name string) (Scenario, error) {
	sc, ok := builtin[name]
	if !ok {
		sc, ok = paperScenario(name)
	}
	if !ok {
		return Scenario{}, fmt.Errorf("unknown scenario %q (known: %v)", name, ScenarioNames())
	}
	sc.Name = name
	if sc.Systems == nil {
		sc.Systems = transientSystems
	}
	return sc, nil
}

// ScenarioNames lists every name LookupScenario resolves, in stable order.
func ScenarioNames() []string {
	names := slices.Collect(maps.Keys(builtin))
	for _, pd := range paperDists {
		for _, pr := range paperRatios {
			names = append(names, pd.name+"-"+pr.name)
		}
	}
	slices.Sort(names)
	return names
}

// ScenarioUsage is what the CLI's list prints, name to description: the
// hand-written rows and, the way SystemUsage prints spec grammar, one
// entry for the whole paper family.
func ScenarioUsage() map[string]string {
	usage := map[string]string{
		paperGrammar: "paper microbenchmark: 1-10 ops/txn at 2:1:1 | 18:1:1 | 0:1:1 get:insert:remove over uniform, Zipf(1.2), newest-first or 90/10 hotspot keys",
	}
	for n, sc := range builtin {
		usage[n] = sc.Description
	}
	return usage
}

// ----------------------------------------------------------------- figures

// Figure is one plot of the paper's evaluation: scenario rows run on one
// list of system specs. cmd/medley-bench -fig and the root package's
// BenchmarkFigure both range over Figures.
type Figure struct {
	Name, Title string
	Scenarios   []string
	Systems     []string
	// LargestOnly runs only the largest requested thread count: the paper
	// reports the latency figures at 40 threads, not as a sweep.
	LargestOnly bool
}

// uniformRatios is the x-axis Figures 7, 8 and 10 share: the paper's
// three ratios over uniform keys.
var uniformRatios = []string{"uniform-writeheavy", "uniform-mixed", "uniform-readmostly"}

// Figures is Section 6, one row per plot.
var Figures = []Figure{
	{Name: "7", Title: "Figure 7 (hash table)", Scenarios: uniformRatios,
		Systems: []string{"medley-hash", "txmontage-hash", "onefile-hash", "ponefile-hash"}},
	{Name: "8", Title: "Figure 8 (skiplist)", Scenarios: uniformRatios,
		Systems: []string{"medley-skip", "txmontage-skip", "onefile-skip", "ponefile-skip", "tdsl", "lftt"}},
	{Name: "9", Title: "Figure 9 (TPC-C: newOrder+payment 1:1)", Scenarios: []string{"tpcc-paper"},
		Systems: builtin["tpcc-paper"].Systems},
	{Name: "10a", Title: "Figure 10a (skiplist latency, DRAM)", Scenarios: uniformRatios, LargestOnly: true,
		Systems: []string{"plain-skip", "txoff-skip", "medley-skip"}},
	{Name: "10b", Title: "Figure 10b (latency, payloads on NVM, persistence off)", Scenarios: uniformRatios, LargestOnly: true,
		Systems: []string{"txmontage-skip-persistoff"}},
	{Name: "10c", Title: "Figure 10c (latency, txMontage fully persistent)", Scenarios: uniformRatios, LargestOnly: true,
		Systems: []string{"txmontage-skip"}},
}
