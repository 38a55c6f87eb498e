package core

import "errors"

// This file is the group-commit path: RunGroup merges a batch of
// independent logical transactions into one physical commit, so the whole
// group pays the per-commit protocol — Begin's status reset, the read-set
// publication fence, the InPrep→InProg and terminal status CASes, the
// settle sweep and finish tail — exactly once instead of once per member.
//
// Correctness falls out of ordinary serializability: the merged
// transaction executes the members back-to-back in member order, so a
// member reads its predecessors' speculative effects through the normal
// descriptor-cell resolution, and a successful merged commit is
// indistinguishable from the members committing individually in that
// order with nothing interleaved between them. Conflicts with concurrent
// transactions (failed validation, a helper's eager abort) roll the whole
// merged attempt back — every installed cell uninstalls to its displaced
// value — after which the fallback re-runs each member as its own
// transaction via RunRetry, the pre-group behavior.
//
// The trade is blast radius: a merged group is a bigger, longer-lived
// footprint, so one hot cell can abort all its members' work. groupAttempts
// bounds how much work is re-speculated before falling back, and the
// adaptive backoff (backoff.go) is fed from group outcomes too, so a
// worker whose groups keep losing backs off like any other loser.

// groupAttempts is how many times RunGroup re-tries the merged commit
// before falling back to individual member transactions.
const groupAttempts = 2

// RunGroup executes n member bodies, each a logical transaction, until
// every member has committed or returned its own non-abort error; it
// returns the first such member error, or nil when all members committed.
// member(i) runs the i-th body and must be re-runnable: a body may execute
// several times (merged attempts, then individual retries), with all
// transactional effects of abandoned attempts rolled back in between.
//
// With group commit enabled on the Tx's manager (the default;
// TxManager.DisableGroupCommit ablates it) and n > 1, the members are
// merged into one physical transaction and committed with one protocol
// round; the GroupCommits/GroupedTxns shard counters record each merge.
// On conflict or member error the merged attempt rolls back and every
// member falls back to its own RunRetry, preserving member order.
//
// Like every Tx method, RunGroup is owner-only: it must be called on the
// goroutine that registered tx, with no transaction open.
func (tx *Tx) RunGroup(n int, member func(i int) error) error {
	if n > 1 && tx.group {
		merged := func() error {
			for i := 0; i < n; i++ {
				if err := member(i); err != nil {
					return err
				}
			}
			return nil
		}
		for attempt := 0; attempt < groupAttempts; attempt++ {
			err := tx.Run(merged)
			if err == nil {
				shard := tx.desc.shard
				bump(&shard.GroupCommits)
				bumpN(&shard.GroupedTxns, uint64(n))
				tx.cm.note(tx, false)
				return nil
			}
			tx.cm.note(tx, true)
			if !errors.Is(err, ErrTxAborted) {
				// A member failed of its own accord. The merged
				// transaction rolled back every member's effects, so the
				// individual fallback gives each member its own outcome
				// (re-surfacing the error from that member's own
				// transaction).
				break
			}
			tx.backoff(attempt)
		}
	}
	// Individual fallback: every member as its own transaction, in member
	// order. RunRetry absorbs aborts, so the only errors that surface are
	// the members' own.
	var firstErr error
	for i := 0; i < n; i++ {
		err := tx.RunRetry(func() error { return member(i) })
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
