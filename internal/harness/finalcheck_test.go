package harness

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"medley/internal/kv"
)

// tornMapSystem is a locked-map System + Snapshotter test double whose
// workers can tear transfer transactions: the second leg (the last insert
// of the two-key read-read-write-write shape) is silently dropped, so the
// money leaves one account without arriving at the other. It proves the
// final-state verifier catches torn cross-shard transfers rather than
// vacuously reporting zero.
type tornMapSystem struct {
	mu   sync.Mutex
	m    map[uint64]uint64
	torn bool
	// refuseWrites fails every batch that writes, applying none of it.
	refuseWrites bool
}

func newTornMapSystem(torn bool) *tornMapSystem {
	return &tornMapSystem{m: make(map[uint64]uint64), torn: torn}
}

func (s *tornMapSystem) Name() string { return "torn-map" }
func (s *tornMapSystem) Preload(keys []uint64) {
	for _, k := range keys {
		s.m[k] = k
	}
}
func (s *tornMapSystem) Start() (stop func()) { return func() {} }

func (s *tornMapSystem) StateSnapshot(fn func(key, val uint64) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range s.m {
		if !fn(k, v) {
			return
		}
	}
}

type tornMapWorker struct{ s *tornMapSystem }

func (s *tornMapSystem) NewExecutor() kv.Executor { return &tornMapWorker{s} }

func (w *tornMapWorker) ExecBatch(ops []kv.Op, _ []kv.Result) error {
	// The transfer shape is get A, get B, insert A, insert B; tearing drops
	// the final insert.
	if w.s.torn && len(ops) == 4 && ops[2].Kind == OpInsert && ops[3].Kind == OpInsert {
		ops = ops[:3]
	}
	if w.s.refuseWrites && slices.ContainsFunc(ops, func(op kv.Op) bool { return op.Kind != OpGet }) {
		return errors.New("write refused")
	}
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	for _, op := range ops {
		switch op.Kind {
		case OpInsert:
			w.s.m[op.Key] = op.Val
		case OpRemove:
			delete(w.s.m, op.Key)
		}
	}
	return nil
}

func tornTransferScenario() Scenario {
	return Scenario{
		Name: "torn-transfer", Dist: Dist{Kind: DistUniform}, VerifyFinal: true,
		Phases: []Phase{{Name: "transfer", Weight: 1, Measure: true, Mix: Mix{Transfer: 1}}},
	}
}

// TestFinalCheckDetectsTornTransfer seeds the torn-transfer fault and
// checks the VerifyFinal machinery reports it as state divergence: the
// second leg's account still carries its old value (mismatched) or never
// appeared (missing).
func TestFinalCheckDetectsTornTransfer(t *testing.T) {
	fc := measuredOf(RunScenario(newTornMapSystem(true), tornTransferScenario(), EngineConfig{
		Threads: 2, Duration: 60 * time.Millisecond,
		KeyRange: 1 << 10, Preload: 1 << 8, Seed: 13,
	})).FinalCheck
	if fc == nil || !fc.Checked {
		t.Fatalf("no final check: %+v", fc)
	}
	if fc.Violations == 0 {
		t.Fatal("torn transfers verified clean")
	}
	if fc.Missing+fc.Mismatched == 0 {
		t.Fatalf("torn second leg not reported as missing/mismatched: %+v", fc)
	}
}

// TestFinalCheckCleanOnHonestTransfers is the control: the same double
// applying every op verifies clean under the identical workload.
func TestFinalCheckCleanOnHonestTransfers(t *testing.T) {
	fc := measuredOf(RunScenario(newTornMapSystem(false), tornTransferScenario(), EngineConfig{
		Threads: 2, Duration: 60 * time.Millisecond,
		KeyRange: 1 << 10, Preload: 1 << 8, Seed: 13,
	})).FinalCheck
	if fc == nil || !fc.Checked {
		t.Fatalf("no final check: %+v", fc)
	}
	if v := fc.Violations; v != 0 {
		t.Fatalf("honest transfers reported %d violations (missing=%d mismatched=%d leaked=%d)",
			v, fc.Missing, fc.Mismatched, fc.Leaked)
	}
	if fc.ModelEntries == 0 {
		t.Fatal("model is empty")
	}
}

// TestFailedSendIsNotJournaled runs a VerifyFinal scenario on a system
// that fails every batch that writes: nothing it refused was committed,
// so nothing may be journaled, and the final check must find the preload
// intact — no missing, mismatched or leaked writes. The failed
// transactions still count in the record: the engine counts what ran.
func TestFailedSendIsNotJournaled(t *testing.T) {
	sys := newTornMapSystem(false)
	sys.refuseWrites = true
	sc := Scenario{
		Name: "refused-writes", Dist: Dist{Kind: DistUniform}, VerifyFinal: true,
		Phases: []Phase{{Name: "mixed", Weight: 1, Measure: true,
			Mix: Mix{Ratio: Ratio{Get: 1, Insert: 1, Remove: 1}, TxMin: 1, TxMax: 4, Mixed: 1}}},
	}
	m := measuredOf(RunScenario(sys, sc, EngineConfig{
		Threads: 2, Duration: 60 * time.Millisecond,
		KeyRange: 1 << 10, Preload: 1 << 8, Seed: 17,
	}))
	fc := m.FinalCheck
	if fc == nil || !fc.Checked || fc.ModelEntries == 0 {
		t.Fatalf("no final check over the preload: %+v", fc)
	}
	if fc.Violations != 0 {
		t.Fatalf("refused writes were journaled: missing=%d mismatched=%d leaked=%d",
			fc.Missing, fc.Mismatched, fc.Leaked)
	}
	if m.Txns == 0 || m.Ops < m.Txns {
		t.Fatalf("txns=%d ops=%d, want every transaction that ran counted", m.Txns, m.Ops)
	}
}
