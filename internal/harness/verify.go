package harness

import "medley/internal/kv"

// This file is the crash–recovery verification layer of the workload
// engine. The paper's headline property is nonblocking persistence: after
// a crash, every committed transaction's effects are recoverable and no
// aborted transaction's effects survive. The engine checks it end to end:
// while a crash scenario runs, each worker's sender journals the
// key→value effects of its acknowledged transactions into a WireJournal
// that lives for the run; at each crash phase the journals are merged
// into a ground-truth model, the system is flushed, crashed and
// recovered, and the recovered state is compared against the model.
// A transaction whose send failed is not journaled: it did not commit.
//
// Exactness of the model depends on write partitioning. Concurrent
// workers racing on one key would leave the final committed value
// schedule-dependent, so in crash scenarios the engine rewrites every
// write's key into the worker's residue class (key ≡ worker id mod
// threads). Each worker is then the sole writer of its keys, its journal
// is authoritative for them, and the merged model is exact: a missing,
// mismatched or resurrected key after recovery is a durability violation,
// never scheduling noise. Reads are left unpartitioned so cross-worker
// contention on the read path is preserved.

// modelVal is one key's expected post-recovery state: a value, or
// known-absent (present == false) when the last committed effect was a
// remove.
type modelVal struct {
	val     uint64
	present bool
}

// PartitionKey maps k into worker tid's residue class modulo threads,
// staying inside [0, keyRange). Callers guarantee keyRange >= threads
// (RunScenario for crash scenarios, the chaos runner for its senders), so
// the wrap below never underflows.
func PartitionKey(k uint64, tid, threads int, keyRange uint64) uint64 {
	t := uint64(threads)
	p := k - k%t + uint64(tid)
	if p >= keyRange {
		p -= t
	}
	return p
}

// RecoveryResult is the outcome of one crash phase, and the recovery
// block of a crash-phase record: how recovery went and whether the
// recovered state matches the ground-truth model.
type RecoveryResult struct {
	// Recoverable is false for systems that keep no durable state (or run
	// with persistence off); all other fields are then zero.
	Recoverable bool `json:"recoverable"`

	// RecoveryNs is the wall time of crash + recovery (device reset, log
	// replay or payload scan, index rebuild).
	RecoveryNs int64 `json:"recovery_ns"`

	// Recovered counts the entries the system reported rebuilding;
	// ModelEntries counts the keys the ground-truth model expects present.
	Recovered    int `json:"recovered_entries"`
	ModelEntries int `json:"model_entries"`

	// Durability violations by kind: a committed write absent after
	// recovery (Missing), present with the wrong value (Mismatched), or a
	// key visible that the model says was never committed or was removed
	// (Leaked — an aborted or unborn write surviving the crash).
	// Violations is their sum.
	Missing    uint64 `json:"missing_writes"`
	Mismatched uint64 `json:"mismatched_writes"`
	Leaked     uint64 `json:"leaked_writes"`
	Violations uint64 `json:"durability_violations"`
}

// FinalCheckResult is the outcome of a VerifyFinal scenario's end-of-run
// state check, and the final_check block of its measured aggregate record:
// the system's live contents diffed against the journaled model of
// committed effects. Unlike RecoveryResult this involves no crash — it
// proves the system under chaos conditions (hot keys, oversubscription,
// skew, scan races) neither lost nor invented committed writes.
type FinalCheckResult struct {
	// Checked is false when the system cannot iterate its state (no
	// Snapshotter) or the scenario did not request the check.
	Checked      bool   `json:"checked"`
	ModelEntries int    `json:"model_entries"`
	Missing      uint64 `json:"missing_writes"`
	Mismatched   uint64 `json:"mismatched_writes"`
	Leaked       uint64 `json:"leaked_writes"`
	Violations   uint64 `json:"state_violations"` // the three above, summed
}

// --------------------------------------------------- wire-level verification
//
// In process, "committed" is unambiguous: an executor's answer is
// definitive. Behind a wire it is not — a
// client whose connection dies mid-request cannot know whether the
// server executed it. The wire verifier extends the same model-diff
// machinery across that gap: each sender journals only definitively
// acknowledged batches, marks the write keys of in-doubt outcomes as
// tainted, and VerifyReplicaWire excludes tainted keys from both the
// model and the server snapshot before diffing. Everything that remains
// is a key the client knows the committed value of, so a post-restart
// difference there is a real durability (or duplicated-execution)
// violation, never retry ambiguity. Exactness still requires partitioned writes
// (PartitionKey): one sender per residue class, sole writer of its keys.

// WireJournal is one sender's client-side record of what it knows about
// the store's state: the last committed value of every key it wrote
// with a definitive acknowledgement, and the set of keys whose state is
// unknowable (touched by an in-doubt request). It is the one journal —
// the engine's workers, the chaos senders and both preloads keep one —
// and single-goroutine, like the sender that writes it.
type WireJournal struct {
	model map[uint64]modelVal
	hist  map[uint64][]uint64 // every acked put value per key, in order
	taint map[uint64]struct{}
}

// NewWireJournal creates an empty journal that keeps put histories.
func NewWireJournal() *WireJournal { return newJournal(true) }

// newJournal creates an empty journal, keeping per-key put histories only
// when history is set.
func newJournal(history bool) *WireJournal {
	j := &WireJournal{model: make(map[uint64]modelVal), taint: make(map[uint64]struct{})}
	if history {
		j.hist = make(map[uint64][]uint64)
	}
	return j
}

// Commit folds a definitively acknowledged batch's effects into the
// journal, in operation order. Only idempotent writes (put, delete) are
// modelable from the client side; an acked OpAdd is tainted instead —
// its final value depends on how many times it ran, which is exactly
// what a client cannot count (chaos workloads avoid adds for this
// reason). A journal made by NewWireJournal also keeps put values as a
// per-key history, which is what lets the replica verifier tell a stale
// value (an older acked write — replication lost the suffix) from a
// mismatched one (a value no client ever acked — corruption).
func (j *WireJournal) Commit(ops []kv.Op) {
	for _, op := range ops {
		switch op.Kind {
		case kv.OpPut:
			j.model[op.Key] = modelVal{val: op.Val, present: true}
			if j.hist != nil {
				j.hist[op.Key] = append(j.hist[op.Key], op.Val)
			}
		case kv.OpDelete:
			j.model[op.Key] = modelVal{}
		case kv.OpAdd:
			j.taint[op.Key] = struct{}{}
		}
	}
}

// Taint marks every write key of an in-doubt batch as unknowable: the
// request may or may not have executed, so nothing about these keys can
// be asserted afterwards.
func (j *WireJournal) Taint(ops []kv.Op) {
	for _, op := range ops {
		switch op.Kind {
		case kv.OpPut, kv.OpDelete, kv.OpAdd:
			j.taint[op.Key] = struct{}{}
		}
	}
}

// ------------------------------------------------------ the one classifier
//
// Every journal is judged by classify: the engine's crash phase and final
// check, the chaos runner's recovered store and its caught-up follower.
// Per-key acked-value histories, where a wire journal keeps them, let it
// tell a divergence apart instead of just counting it. A replica holding
// an older acked value lost a replay suffix (stale); a value no client
// ever acked is corruption (mismatched); a key the model has that the
// state lacks vanished (missing); a key the state has that the model
// deleted — or never wrote — leaked. With no history nothing reads as
// stale, so a resurrected deleted key is leaked and a wrong value is
// mismatched. That is why the engine's journals keep no history: a
// full-speed closed-loop run would grow it with every put, so an engine
// check folds what would be stale into mismatched and leaked.

// ReplicaCheckResult is the outcome of one classified divergence check.
type ReplicaCheckResult struct {
	Checked      bool
	ModelEntries int
	Missing      uint64 // model has the key, replica does not
	Stale        uint64 // replica holds an older acked value
	Mismatched   uint64 // replica holds a value no client acked
	Leaked       uint64 // replica holds a key deleted or never written
}

// Violations is the total divergence count.
func (r ReplicaCheckResult) Violations() uint64 {
	return r.Missing + r.Stale + r.Mismatched + r.Leaked
}

// FinalCheck projects the classified diff onto the three-way final-state
// taxonomy, stale counted as mismatched; the violation total is unchanged.
// It is the crash-restart view too: a recovered store has no replay stream
// to fall behind on, so an older acked value there is a wrong value.
func (r ReplicaCheckResult) FinalCheck() FinalCheckResult {
	return FinalCheckResult{
		Checked: r.Checked, ModelEntries: r.ModelEntries,
		Missing: r.Missing, Mismatched: r.Mismatched + r.Stale, Leaked: r.Leaked,
		Violations: r.Violations(),
	}
}

// VerifyReplicaWire merges the senders' journals and diffs a quiesced,
// caught-up replica snapshot against them, classifying each divergent
// key. Tainted keys (in-doubt outcomes, lost-at-promotion suffixes) are
// excluded from both sides; the count of exclusions is returned so
// reports show what ambiguity cost.
func VerifyReplicaWire(journals []*WireJournal, snap func(fn func(key, val uint64) bool)) (ReplicaCheckResult, int) {
	model := make(map[uint64]modelVal)
	hist := make(map[uint64][]uint64)
	taint := make(map[uint64]struct{})
	for _, j := range journals {
		// Partitioned writes: per key exactly one SENDER journal wrote, so
		// plain assignment merges the models exactly — provided a preload
		// journal comes before the senders', whose later value for a key
		// must win. Histories append: a preload journal and the key's
		// sender both hold acked values, and staleness classification
		// needs every one of them.
		for k, v := range j.model {
			model[k] = v
		}
		for k, h := range j.hist {
			hist[k] = append(hist[k], h...)
		}
		for k := range j.taint {
			taint[k] = struct{}{}
		}
	}
	for k := range taint {
		delete(model, k)
		delete(hist, k)
	}
	got := make(map[uint64]uint64, len(model))
	snap(func(k, v uint64) bool {
		if _, bad := taint[k]; !bad {
			got[k] = v
		}
		return true
	})
	return classify(model, hist, got), len(taint)
}

// classify diffs state got against model, telling stale values from
// mismatched ones by the per-key acked histories in hist (nil: none).
func classify(model map[uint64]modelVal, hist map[uint64][]uint64, got map[uint64]uint64) ReplicaCheckResult {
	acked := func(k, v uint64) bool {
		for _, h := range hist[k] {
			if h == v {
				return true
			}
		}
		return false
	}
	rc := ReplicaCheckResult{Checked: true}
	for k, e := range model {
		gv, ok := got[k]
		if e.present {
			rc.ModelEntries++
			switch {
			case !ok:
				rc.Missing++
			case gv == e.val:
			case acked(k, gv):
				rc.Stale++
			default:
				rc.Mismatched++
			}
			continue
		}
		// Deleted on the leader: a surviving older acked value means the
		// delete has not replicated (stale); anything else leaked.
		if ok {
			if acked(k, gv) {
				rc.Stale++
			} else {
				rc.Leaked++
			}
		}
	}
	for k := range got {
		if _, ok := model[k]; !ok {
			rc.Leaked++
		}
	}
	return rc
}
