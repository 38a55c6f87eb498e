package core

import (
	"runtime"
	"time"
)

// This file is the contention-adaptive retry backoff. The previous design
// was a fixed ladder — backoffYields plain Gosched calls, then exponential
// jittered sleeps up to backoffMax — which treats a transient conflict on
// an otherwise quiet shard the same as a sustained hot-key pileup. The
// adaptive manager keeps the ladder's shape (and its hard bounds, pinned
// by backoff_test.go) but steers two of its knobs per Tx:
//
//   - the yield count: under a low abort-rate EWMA conflicts are transient
//     and the conflict window is shorter than any timer sleep, so the
//     ladder yields longer before sleeping; under a high EWMA spinning
//     only amplifies the pileup, so it sleeps almost immediately;
//   - the jitter window cap: a quiet shard caps sleeps well under
//     backoffMax (a displaced transaction should retry quickly), while a
//     hot conflict widens the window to the full backoffMax so competing
//     workers desynchronize.
//
// Hot-conflict detection feeds the second knob: a retry loop that keeps
// aborting while the shard's AbortsByOthers counter advances is being
// displaced by other workers' eager contention management — the signature
// of everyone hammering one key — rather than failing validation against
// background churn.

// backoffYields is the cold-state number of plain runtime.Gosched retries
// before the ladder starts sleeping; backoffMax is the hard cap on the
// jitter window in every contention regime.
const (
	backoffYields   = 4
	backoffMax      = 128 * time.Microsecond
	backoffMaxShift = 7 // 1us << 7 == backoffMax
)

// EWMA fixed point: ewmaOne is 1.0; each completed attempt folds its
// outcome (abort = 1, commit = 0) in with weight 1/2^ewmaShift.
const (
	ewmaOne   = 1 << 16
	ewmaShift = 4
)

// hotStreakLen is how many consecutive aborts of one retry loop, each
// accompanied by fresh eager-abort traffic on this shard, flag a hot
// conflict.
const hotStreakLen = 3

// backoffYield and backoffSleep are seams for the ladder-contract tests
// (backoff_test.go), which swap them to observe the yield/sleep schedule
// without timing heuristics. Production code never reassigns them.
var (
	backoffYield = runtime.Gosched
	backoffSleep = time.Sleep
)

// contention is a Tx's adaptive backoff state. It is owner-only: the one
// cross-thread signal it consumes (the shard's AbortsByOthers counter,
// written by displacing threads) is read through the shard's atomic.
type contention struct {
	ewma    uint32 // abort-rate EWMA, fixed point in [0, ewmaOne]
	streak  uint32 // consecutive aborts in the current retry loop
	lastABO uint64 // shard AbortsByOthers at the last noted outcome
	hot     bool   // current retry loop looks like a hot-key pileup
}

// note folds one completed attempt into the EWMA and updates the
// hot-conflict detector. Called by RunRetry after every attempt, aborted
// or not.
func (c *contention) note(tx *Tx, aborted bool) {
	abo := tx.desc.shard.AbortsByOthers.Load()
	var sample uint32
	if aborted {
		sample = ewmaOne
		c.streak++
		c.hot = c.streak >= hotStreakLen && abo != c.lastABO
	} else {
		c.streak = 0
		c.hot = false
	}
	c.lastABO = abo
	delta := int32(sample) - int32(c.ewma)
	c.ewma = uint32(int32(c.ewma) + delta>>ewmaShift)
}

// yields is the number of plain Gosched retries before this loop's ladder
// starts sleeping.
func (c *contention) yields() int {
	switch {
	case c.hot || c.ewma >= ewmaOne/3:
		// Sustained conflict: every spin re-enters the fray and knocks
		// out somebody's InPrep window. Get off the processor fast.
		return 1
	case c.ewma < ewmaOne/16:
		// Conflicts are rare; the one we just hit is almost certainly
		// gone by the next yield.
		return 2 * backoffYields
	default:
		return backoffYields
	}
}

// windowLimit caps the jitter window for this loop's contention regime;
// never above backoffMax.
func (c *contention) windowLimit() time.Duration {
	switch {
	case c.hot || c.ewma >= ewmaOne/3:
		return backoffMax
	case c.ewma < ewmaOne/16:
		return backoffMax / 8
	default:
		return backoffMax / 2
	}
}

// backoff delays the attempt-th retry. Sleeps happen outside the Tx's SMR
// critical section: between attempts the previous transaction has settled
// and no node reference survives into the next attempt, so this is a
// quiescent point — and a worker sleeping tens of microseconds while
// announcing an old epoch would otherwise stall reclamation for the whole
// domain exactly when contention (and displacement traffic) peaks.
func (tx *Tx) backoff(attempt int) {
	yields := tx.cm.yields()
	if attempt < yields {
		backoffYield()
		return
	}
	shift := attempt - yields
	if shift > backoffMaxShift {
		shift = backoffMaxShift
	}
	window := time.Microsecond << uint(shift)
	if lim := tx.cm.windowLimit(); window > lim {
		window = lim
	}
	pause := tx.smr != nil && tx.smr.Active()
	if pause {
		tx.smr.Exit()
	}
	backoffSleep(time.Duration(tx.nextRand()%uint64(window)) + 1)
	if pause {
		tx.smr.Enter()
	}
}

// nextRand steps the Tx's xorshift64* PRNG (Vigna 2016), seeded from the
// thread id on first use. Cheap, allocation-free, and private to the
// owning goroutine.
func (tx *Tx) nextRand() uint64 {
	x := tx.rngState
	if x == 0 {
		x = uint64(tx.desc.tid)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	}
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	tx.rngState = x
	return x * 0x2545F4914F6CDD1D
}
