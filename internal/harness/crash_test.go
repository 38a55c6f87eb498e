package harness

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"medley/internal/kv"
)

func crashEngineConfig(threads int) EngineConfig {
	return EngineConfig{
		Threads: threads, Duration: 120 * time.Millisecond,
		KeyRange: 1 << 10, Preload: 1 << 8, Seed: 11,
	}
}

func crashScenario(t *testing.T, name string) Scenario {
	t.Helper()
	sc, err := LookupScenario(name)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// recoveryOf is the recovery block of a run's first crash record; nil
// when no record carries one.
func recoveryOf(recs []Record) *RecoveryResult {
	for _, rec := range recs {
		if rec.Recovery != nil {
			return rec.Recovery
		}
	}
	return nil
}

// requireCleanRecovery runs sys through a crash scenario and asserts the
// recovered state matched the committed-operation model exactly.
func requireCleanRecovery(t *testing.T, sys System, scenario string) {
	t.Helper()
	recs := RunScenario(sys, crashScenario(t, scenario), crashEngineConfig(2))
	r := recoveryOf(recs)
	if r == nil {
		t.Fatalf("%s: crash scenario produced no recovery result", sys.Name())
	}
	if !r.Recoverable {
		t.Fatalf("%s: expected recoverable system", sys.Name())
	}
	if v := r.Violations; v != 0 {
		t.Fatalf("%s: %d durability violations (missing=%d mismatched=%d leaked=%d)",
			sys.Name(), v, r.Missing, r.Mismatched, r.Leaked)
	}
	if r.RecoveryNs <= 0 {
		t.Fatalf("%s: no recovery latency measured", sys.Name())
	}
	if r.Recovered != r.ModelEntries {
		t.Fatalf("%s: recovered %d entries, model has %d", sys.Name(), r.Recovered, r.ModelEntries)
	}
	// The system must be healthy after recovery, not just correct.
	post := recs[len(recs)-2]
	if post.Phase != "post-mixed" || post.Txns == 0 {
		t.Fatalf("%s: no post-crash progress: %+v", sys.Name(), post)
	}
}

func TestMontageCrashRecoverNoViolations(t *testing.T) {
	for _, scenario := range []string{
		"crash-recover-uniform", "crash-recover-zipfian", "crash-recover-writeheavy",
	} {
		requireCleanRecovery(t, NewMontage(MontageOpts{
			Buckets: 1 << 10, RegionWords: 1 << 22, AdvanceEvery: 5 * time.Millisecond,
		}), scenario)
	}
}

func TestMontageSkipCrashRecoverNoViolations(t *testing.T) {
	requireCleanRecovery(t, NewMontage(MontageOpts{
		Skiplist: true, RegionWords: 1 << 22, AdvanceEvery: 5 * time.Millisecond,
	}), "crash-recover-zipfian")
}

func TestOneFileCrashRecoverNoViolations(t *testing.T) {
	for _, scenario := range []string{"crash-recover-uniform", "crash-recover-zipfian"} {
		requireCleanRecovery(t, NewOneFile(OneFileOpts{
			Buckets: 1 << 10, Persistent: true, RegionWords: 1 << 20,
		}), scenario)
	}
}

func TestOneFileSkipCrashRecoverNoViolations(t *testing.T) {
	requireCleanRecovery(t, NewOneFile(OneFileOpts{
		Skiplist: true, Persistent: true, RegionWords: 1 << 20,
	}), "crash-recover-uniform")
}

// TestNonPersistentReportsNotRecoverable covers both not-recoverable
// shapes: a system without the capability interface (TDSL) and one that
// implements it but runs with persistence off (txMontage persistOff).
func TestNonPersistentReportsNotRecoverable(t *testing.T) {
	for _, sys := range []System{
		NewTDSL(),
		NewMontage(MontageOpts{Buckets: 1 << 10, RegionWords: 1 << 22, PersistOff: true}),
	} {
		recs := RunScenario(sys, crashScenario(t, "crash-recover-uniform"), crashEngineConfig(2))
		r := recoveryOf(recs)
		if r == nil {
			t.Fatalf("%s: crash scenario produced no recovery result", sys.Name())
		}
		if r.Recoverable || r.Violations != 0 || r.RecoveryNs != 0 {
			t.Fatalf("%s: want clean recoverable=false result, got %+v", sys.Name(), r)
		}
		// The system keeps running: the scenario completes all phases.
		if len(recs) != 5 || recs[3].Txns == 0 {
			t.Fatalf("%s: scenario did not complete around the skipped crash: %+v", sys.Name(), recs)
		}
	}
}

// TestCrashRecordsReportTheirOwnCrash runs a scenario that crashes twice
// and checks each crash record against itself: its recovery block times
// that crash alone, so recovery_ns equals the record's elapsed_ns.
func TestCrashRecordsReportTheirOwnCrash(t *testing.T) {
	sc := crashScenario(t, "chaos-crash-in-recovery")
	sys, err := NewScenarioSystem(sc, "txmontage-hash", tinyTPCCScale(), SystemOpts{Buckets: 1 << 10, KeyRange: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	crashes := 0
	for _, rec := range RunScenario(sys, sc, crashEngineConfig(2)) {
		r := rec.Recovery
		if r == nil {
			continue
		}
		crashes++
		if !r.Recoverable || r.Violations != 0 {
			t.Fatalf("%s: recovery %+v, want recoverable and clean", rec.Phase, r)
		}
		if r.RecoveryNs <= 0 || r.RecoveryNs != int64(rec.Elapsed) {
			t.Errorf("%s: recovery_ns %d, elapsed_ns %d: a crash record must time its own crash",
				rec.Phase, r.RecoveryNs, int64(rec.Elapsed))
		}
	}
	if crashes != 2 {
		t.Fatalf("%d crash records, want 2", crashes)
	}
}

// ------------------------------------------------------- fault injection

// faultyMapSystem is a locked-map System + Recoverable test double whose
// recovery can be sabotaged: dropping a committed write, corrupting a
// value, leaking a key that was never committed, or bringing back a
// removed key with its old value. It proves the verifier detects each
// class of durability violation rather than vacuously reporting zero.
type faultyMapSystem struct {
	mu   sync.Mutex
	m    map[uint64]uint64
	seed int64
	// removed maps each key a worker removed, and nobody re-inserted since,
	// to the value it held.
	removed map[uint64]uint64

	dropCommitted    bool // recovery loses one committed write
	corruptValue     bool // recovery mangles one committed value
	leakUncommitted  bool // recovery resurrects a never-committed key
	resurrectRemoved bool // recovery puts a removed key back with its old value
}

func newFaultyMapSystem(seed int64) *faultyMapSystem {
	return &faultyMapSystem{m: make(map[uint64]uint64), removed: make(map[uint64]uint64), seed: seed}
}

func (s *faultyMapSystem) Name() string { return "faulty-map" }
func (s *faultyMapSystem) Preload(keys []uint64) {
	for _, k := range keys {
		s.m[k] = k
	}
}
func (s *faultyMapSystem) Start() (stop func()) { return func() {} }

type faultyWorker struct{ s *faultyMapSystem }

func (s *faultyMapSystem) NewExecutor() kv.Executor { return &faultyWorker{s} }

func (w *faultyWorker) ExecBatch(ops []kv.Op, _ []kv.Result) error {
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	for _, op := range ops {
		switch op.Kind {
		case OpInsert:
			w.s.m[op.Key] = op.Val
			delete(w.s.removed, op.Key)
		case OpRemove:
			if v, ok := w.s.m[op.Key]; ok {
				w.s.removed[op.Key] = v
				delete(w.s.m, op.Key)
			}
		}
	}
	return nil
}

func (s *faultyMapSystem) CanRecover() bool { return true }
func (s *faultyMapSystem) Persist()         {}

func (s *faultyMapSystem) CrashAndRecover() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	rng := rand.New(rand.NewSource(s.seed))
	if s.dropCommitted || s.corruptValue {
		keys := make([]uint64, 0, len(s.m))
		for k := range s.m {
			keys = append(keys, k)
		}
		if len(keys) > 0 {
			victim := keys[rng.Intn(len(keys))]
			if s.dropCommitted {
				delete(s.m, victim)
			} else {
				s.m[victim] ^= 0xDEAD
			}
		}
	}
	if s.leakUncommitted {
		// Keys >= KeyRange are never generated, so this key was never
		// committed by any worker or preload.
		s.m[1<<40|rng.Uint64()>>24] = 99
	}
	if s.resurrectRemoved {
		for k, v := range s.removed {
			s.m[k] = v
			break
		}
	}
	return len(s.m)
}

func (s *faultyMapSystem) StateSnapshot(fn func(key, val uint64) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range s.m {
		if !fn(k, v) {
			return
		}
	}
}

// TestVerifierDetectsInjectedFaults seeds one fault of each class and
// checks the matching violation counter fires — the acceptance proof that
// a deliberately dropped committed write cannot slip past the verifier.
func TestVerifierDetectsInjectedFaults(t *testing.T) {
	cases := []struct {
		name  string
		mk    func() *faultyMapSystem
		check func(t *testing.T, r *RecoveryResult)
	}{
		{"dropped committed write", func() *faultyMapSystem {
			s := newFaultyMapSystem(42)
			s.dropCommitted = true
			return s
		}, func(t *testing.T, r *RecoveryResult) {
			if r.Missing == 0 {
				t.Fatalf("dropped committed write not detected: %+v", r)
			}
		}},
		{"corrupted committed value", func() *faultyMapSystem {
			s := newFaultyMapSystem(43)
			s.corruptValue = true
			return s
		}, func(t *testing.T, r *RecoveryResult) {
			if r.Mismatched == 0 {
				t.Fatalf("corrupted committed value not detected: %+v", r)
			}
		}},
		{"leaked uncommitted write", func() *faultyMapSystem {
			s := newFaultyMapSystem(44)
			s.leakUncommitted = true
			return s
		}, func(t *testing.T, r *RecoveryResult) {
			if r.Leaked == 0 {
				t.Fatalf("leaked uncommitted write not detected: %+v", r)
			}
		}},
		// An older committed value is not stale here: the engine's check
		// keeps no history, so the deleted key that came back is leaked.
		{"resurrected removed key", func() *faultyMapSystem {
			s := newFaultyMapSystem(46)
			s.resurrectRemoved = true
			return s
		}, func(t *testing.T, r *RecoveryResult) {
			if r.Leaked != 1 || r.Mismatched != 0 || r.Missing != 0 {
				t.Fatalf("resurrected removed key: %+v, want exactly 1 leaked", r)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := recoveryOf(RunScenario(c.mk(), crashScenario(t, "crash-recover-uniform"), crashEngineConfig(2)))
			if r == nil || !r.Recoverable {
				t.Fatalf("no recovery result: %+v", r)
			}
			if r.Violations == 0 {
				t.Fatalf("verifier reported zero violations despite injected fault")
			}
			c.check(t, r)
		})
	}
}

// TestVerifierCleanOnHonestSystem is the control for the fault-injection
// tests: the same double with no fault injected verifies clean.
func TestVerifierCleanOnHonestSystem(t *testing.T) {
	r := recoveryOf(RunScenario(newFaultyMapSystem(45), crashScenario(t, "crash-recover-uniform"), crashEngineConfig(4)))
	if r == nil || !r.Recoverable {
		t.Fatalf("no recovery result: %+v", r)
	}
	if v := r.Violations; v != 0 {
		t.Fatalf("honest system reported %d violations: %+v", v, r)
	}
	if r.ModelEntries == 0 || r.Recovered != r.ModelEntries {
		t.Fatalf("model/recovered mismatch: %+v", r)
	}
}

// ------------------------------------------------------------ partitioning

func TestPartitionKeyOwnership(t *testing.T) {
	const keyRange = 1 << 10
	for _, threads := range []int{1, 2, 3, 4, 7, 8} {
		for tid := 0; tid < threads; tid++ {
			for k := uint64(0); k < keyRange; k += 13 {
				p := PartitionKey(k, tid, threads, keyRange)
				if p >= keyRange {
					t.Fatalf("threads=%d tid=%d k=%d: partitioned key %d out of range", threads, tid, k, p)
				}
				if p%uint64(threads) != uint64(tid) {
					t.Fatalf("threads=%d tid=%d k=%d: key %d not in owner class", threads, tid, k, p)
				}
			}
		}
	}
	// Degenerate range equal to thread count still stays in bounds.
	if p := PartitionKey(3, 3, 4, 4); p != 3 {
		t.Fatalf("tight range: got %d", p)
	}
}

// --------------------------------------------------------------- drain

// TestDrainPhaseShrinksState drives a remove-heavy drain mix against a
// live map and checks it actually empties state, covering the drain phase
// of load-mixed-drain functionally rather than just structurally.
func TestDrainPhaseShrinksState(t *testing.T) {
	sys := newFaultyMapSystem(7) // honest double: a plain locked map
	sc := Scenario{
		Name: "drain-only",
		Dist: Dist{Kind: DistUniform},
		Phases: []Phase{{
			Name: "drain", Weight: 1, Measure: true,
			Mix: Mix{Ratio: Ratio{Get: 1, Insert: 0, Remove: 4}, TxMin: 1, TxMax: 10, Mixed: 1},
		}},
	}
	cfg := crashEngineConfig(2)
	if measuredOf(RunScenario(sys, sc, cfg)).Txns == 0 {
		t.Fatal("drain phase made no progress")
	}
	sys.mu.Lock()
	left := len(sys.m)
	sys.mu.Unlock()
	if left >= cfg.Preload/2 {
		t.Fatalf("drain left %d of %d preloaded entries", left, cfg.Preload)
	}
}
