package harness

import (
	"testing"

	"medley/internal/kv"
)

// TestVerifyWireFoldsStaleIntoMismatched pins the crash-restart view of
// the replica verifier, FinalCheck: same missing and leaked counts and
// violation total, with stale counted as mismatched.
func TestVerifyWireFoldsStaleIntoMismatched(t *testing.T) {
	put := func(k, v uint64) kv.Op { return kv.Op{Kind: kv.OpPut, Key: k, Val: v} }
	pre, j := NewWireJournal(), NewWireJournal()
	pre.Commit([]kv.Op{put(1, 1), put(3, 3)})
	j.Commit([]kv.Op{put(1, 2), put(2, 5), {Kind: kv.OpDelete, Key: 3}, put(4, 7)})
	j.Taint([]kv.Op{put(5, 9)})
	journals := []*WireJournal{pre, j}
	state := map[uint64]uint64{
		1: 1,  // an older acked value: stale
		2: 6,  // a value nobody acked: mismatched
		3: 3,  // deleted, the acked preload value survives: stale
		5: 42, // tainted: excluded from both sides
		6: 1,  // never written: leaked
		// 4 acked and absent: missing
	}
	snap := func(fn func(k, v uint64) bool) {
		for k, v := range state {
			if !fn(k, v) {
				return
			}
		}
	}

	rc, tainted := VerifyReplicaWire(journals, snap)
	if want := (ReplicaCheckResult{Checked: true, ModelEntries: 3, Missing: 1, Stale: 2, Mismatched: 1, Leaked: 1}); rc != want {
		t.Fatalf("replica verifier = %+v, want %+v", rc, want)
	}
	fc := rc.FinalCheck()
	if want := (FinalCheckResult{Checked: true, ModelEntries: 3, Missing: 1, Mismatched: 3, Leaked: 1, Violations: 5}); fc != want {
		t.Errorf("FinalCheck = %+v, want %+v", fc, want)
	}
	if tainted != 1 {
		t.Errorf("tainted = %d, want 1", tainted)
	}
	if fc.Violations != rc.Violations() {
		t.Errorf("violation totals differ: %d vs %d", fc.Violations, rc.Violations())
	}
}
