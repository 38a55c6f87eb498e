package store

import (
	"testing"

	"medley/internal/kv"
)

// TestQuiesceFlushesExecutorLimbo pins the barrier flush: advancing the
// epoch alone reclaims nothing parked in an executor's limbo, and handing
// Quiesce the executor reclaims every block it retired.
func TestQuiesceFlushesExecutorLimbo(t *testing.T) {
	st, err := New("medley-hash", Opts{Buckets: 1 << 8, KeyRange: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	sys := st.(*System)
	ebrStats := func() (retired, reclaimed uint64) {
		for _, m := range sys.MetricsSnapshot() {
			switch m.Name {
			case "ebr_retired":
				retired = m.Value
			case "ebr_reclaimed":
				reclaimed = m.Value
			}
		}
		return retired, reclaimed
	}
	ex := sys.NewExecutor()
	ops := make([]kv.Op, 64)
	for round := uint64(0); round < 4; round++ {
		for i := range ops {
			ops[i] = kv.Op{Kind: kv.OpPut, Key: uint64(i), Val: round}
		}
		if err := ex.ExecBatch(ops, nil); err != nil {
			t.Fatal(err)
		}
	}
	retired, before := ebrStats()
	if retired == 0 || before >= retired {
		t.Fatalf("retired %d, reclaimed %d: the overwrites left nothing in limbo", retired, before)
	}
	sys.Quiesce(nil)
	if _, after := ebrStats(); after != before {
		t.Fatalf("Quiesce(nil) reclaimed %d → %d: an epoch advance alone must not touch an executor's limbo", before, after)
	}
	sys.Quiesce([]kv.Executor{ex})
	if _, after := ebrStats(); after != retired {
		t.Fatalf("Quiesce(ex) reclaimed %d → %d of %d retired: the executor's limbo was not flushed", before, after, retired)
	}
	res := make([]kv.Result, 1)
	if err := ex.ExecBatch([]kv.Op{{Kind: kv.OpGet, Key: 3}}, res); err != nil {
		t.Fatal(err)
	}
	if res[0] != (kv.Result{Val: 3, Ok: true}) {
		t.Errorf("flushed executor reads %+v, want 3", res[0])
	}
}
