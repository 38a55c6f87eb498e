package store

import (
	"testing"

	"medley/internal/kv"
)

// TestNewExecutorReusesReleased pins the barrier hand-back: an executor
// passed to ReleaseWorker is the one NewExecutor returns next, still
// working, and once none is idle NewExecutor builds a fresh one.
func TestNewExecutorReusesReleased(t *testing.T) {
	st, err := New("medley-hash", Opts{Buckets: 1 << 8, KeyRange: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	sys := st.(*System)
	a, b := sys.NewExecutor(), sys.NewExecutor()
	if a == b {
		t.Fatal("two fresh executors are one")
	}
	sys.ReleaseWorker(a)
	if got := sys.NewExecutor(); got != a {
		t.Fatal("NewExecutor did not hand back the released executor")
	}
	if got := sys.NewExecutor(); got == a || got == b {
		t.Fatal("NewExecutor handed out an executor nobody released")
	}
	res := make([]kv.Result, 2)
	if err := a.ExecBatch([]kv.Op{{Kind: kv.OpPut, Key: 1, Val: 7}, {Kind: kv.OpGet, Key: 1}}, res); err != nil {
		t.Fatal(err)
	}
	if res[1] != (kv.Result{Val: 7, Ok: true}) {
		t.Errorf("reused executor reads %+v, want 7", res[1])
	}
}
