package service

import (
	"sync"
	"testing"
	"time"

	"medley/internal/cdc"
	"medley/internal/harness"
	"medley/internal/kv"
)

// This file is the seeded-fault proof of the divergence verifier: one
// feed entry is dropped and one is delivered out of order on the way to
// the follower, and the verifier must detect BOTH and class them
// correctly — the dropped overwrite as a stale key (the replica kept the
// older acked value), the reordered fresh insert as a missing key (the
// skipped entry never applied) — while the follower's own counters
// localize the faults (gaps, reordered).

const (
	dropKey    = 111 // second write to this key is dropped in flight
	reorderKey = 222 // this key's only write is delivered late (seq regression)
)

// seededMangler drops dropKey's second write and delays reorderKey's
// write by one chunk (so it arrives below the replay cursor).
type seededMangler struct {
	mu       sync.Mutex
	dropSeen int
	held     []cdc.Entry
	dropped  bool
	reorderd bool
}

func (m *seededMangler) mangle(shard int, entries []cdc.Entry) []cdc.Entry {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]cdc.Entry, 0, len(entries)+len(m.held))
	for _, e := range entries {
		switch {
		case e.Key == dropKey:
			m.dropSeen++
			if m.dropSeen == 2 {
				m.dropped = true
				continue // the seeded drop
			}
			out = append(out, e)
		case e.Key == reorderKey && !m.reorderd:
			m.held = append(m.held, e) // hold for a later chunk
		default:
			out = append(out, e)
		}
	}
	// Release held entries once newer ones have passed: they now sit
	// below the follower's cursor — a reordered delivery.
	if len(m.held) > 0 && len(out) > 0 {
		m.reorderd = true
		out = append(out, m.held...)
		m.held = nil
	}
	return out
}

func TestSeededFaultDivergenceDetectedAndClassed(t *testing.T) {
	leader, lts := startNode(t, NodeConfig{FeedShards: 1})
	_ = leader
	mangler := &seededMangler{}
	follower, _ := startNode(t, NodeConfig{
		Follow:     lts.URL,
		FeedShards: 1,
		Mangle:     mangler.mangle,
	})
	waitFor(t, 5*time.Second, "follower ready", func() bool {
		return follower.Follower().Ready()
	})

	journal := harness.NewWireJournal()
	put := func(key, val uint64) {
		ops := []kv.Op{{Kind: kv.OpPut, Key: key, Val: val}}
		resp, _, _ := postNodeBatch(t, lts.URL, BatchRequest{Ops: []WireOp{
			{Op: "put", Key: key, Val: val},
		}})
		if resp.StatusCode != 200 {
			t.Fatalf("put %d: status %d", key, resp.StatusCode)
		}
		journal.Commit(ops)
	}

	// Prior value for dropKey replicates cleanly; its overwrite is the
	// entry the mangler drops.
	put(dropKey, 1000)
	waitFor(t, 5*time.Second, "prior value replicated", func() bool {
		return follower.Follower().Lag() == 0 && follower.Follower().Stats().Applied >= 1
	})
	put(dropKey, 2000) // dropped in flight → replica keeps 1000 (stale)
	put(reorderKey, 3000)
	// Filler traffic so the held reorderKey entry is released behind
	// newer seqs and the drop produces an observable gap.
	for i := uint64(0); i < 40; i++ {
		put(500+i, i)
	}

	waitFor(t, 10*time.Second, "seeded faults delivered", func() bool {
		st := follower.Follower().Stats()
		return mangler.dropped && mangler.reorderd && st.Lag == 0 &&
			st.Gaps >= 1 && st.Reordered >= 1
	})
	time.Sleep(30 * time.Millisecond)

	// The follower's counters localize both faults.
	st := follower.Follower().Stats()
	if st.Gaps < 1 {
		t.Fatalf("dropped entry not detected: gaps = %d", st.Gaps)
	}
	if st.Reordered < 1 {
		t.Fatalf("reordered entry not detected: reordered = %d", st.Reordered)
	}

	// The verifier diffs replica state against the journaled model and
	// classes each fault.
	snap, ok := follower.Service().Backend().(harness.Snapshotter)
	if !ok {
		t.Fatal("backend not snapshottable")
	}
	rc, tainted := harness.VerifyReplicaWire([]*harness.WireJournal{journal}, snap.StateSnapshot)
	if tainted != 0 {
		t.Fatalf("tainted = %d, want 0 (no in-doubt outcomes)", tainted)
	}
	if rc.Stale != 1 {
		t.Fatalf("dropped overwrite classed as %+v, want exactly 1 stale key", rc)
	}
	if rc.Missing != 1 {
		t.Fatalf("reordered insert classed as %+v, want exactly 1 missing key", rc)
	}
	if rc.Mismatched != 0 || rc.Leaked != 0 {
		t.Fatalf("phantom divergence classes: %+v", rc)
	}
	if rc.Violations() != 2 {
		t.Fatalf("violations = %d, want 2", rc.Violations())
	}
}

// TestCleanReplicationZeroDivergence is the negative control: without
// mangling the same pipeline verifies clean.
func TestCleanReplicationZeroDivergence(t *testing.T) {
	leader, lts := startNode(t, NodeConfig{FeedShards: 2})
	follower, _ := startNode(t, NodeConfig{Follow: lts.URL, FeedShards: 2})
	journal := harness.NewWireJournal()
	for i := uint64(0); i < 200; i++ {
		k, v := i%50, i
		ops := []kv.Op{{Kind: kv.OpPut, Key: k, Val: v}}
		if i%7 == 6 {
			ops = []kv.Op{{Kind: kv.OpDelete, Key: k}}
			postNodeBatch(t, lts.URL, BatchRequest{Ops: []WireOp{{Op: "delete", Key: k}}})
		} else {
			postNodeBatch(t, lts.URL, BatchRequest{Ops: []WireOp{{Op: "put", Key: k, Val: v}}})
		}
		journal.Commit(ops)
	}
	waitFor(t, 10*time.Second, "follower caught up", func() bool { return caughtUp(leader, follower) })
	snap := follower.Service().Backend().(harness.Snapshotter)
	rc, tainted := harness.VerifyReplicaWire([]*harness.WireJournal{journal}, snap.StateSnapshot)
	if rc.Violations() != 0 || tainted != 0 {
		t.Fatalf("clean replication diverged: %+v (tainted %d)", rc, tainted)
	}
	st := follower.Follower().Stats()
	if st.Gaps != 0 || st.Reordered != 0 {
		t.Fatalf("clean replication counted faults: %+v", st)
	}
}
