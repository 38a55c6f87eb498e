package core

import (
	"testing"
	"time"

	"medley/internal/ebr"
)

// instrumentBackoff swaps the ladder's yield/sleep seams for recorders and
// returns (yields, sleeps, restore). Tests that use it must not run the
// ladder from other goroutines while instrumented.
func instrumentBackoff() (*int, *[]time.Duration, func()) {
	yields := new(int)
	sleeps := new([]time.Duration)
	oldYield, oldSleep := backoffYield, backoffSleep
	backoffYield = func() { *yields++ }
	backoffSleep = func(d time.Duration) { *sleeps = append(*sleeps, d) }
	return yields, sleeps, func() {
		backoffYield, backoffSleep = oldYield, oldSleep
	}
}

// TestBackoffLadderContract pins the ladder shape the adaptive manager
// must preserve: on a cold Tx (no contention history) the first
// backoffYields attempts are plain yields with no sleep, and every sleep
// the ladder ever takes is strictly bounded by backoffMax regardless of
// the contention state steering it.
func TestBackoffLadderContract(t *testing.T) {
	yields, sleeps, restore := instrumentBackoff()
	defer restore()

	mgr := NewTxManager()
	tx := mgr.Register()
	for attempt := 0; attempt < backoffYields; attempt++ {
		tx.backoff(attempt)
	}
	if *yields != backoffYields || len(*sleeps) != 0 {
		t.Fatalf("cold ladder: %d yields, %d sleeps over the first %d attempts, want %d yields and no sleeps",
			*yields, len(*sleeps), backoffYields, backoffYields)
	}

	// Every contention regime — cold, moderate, saturated, hot — must keep
	// each sleep in (0, backoffMax] at every ladder depth.
	states := []contention{
		{},
		{ewma: ewmaOne / 8},
		{ewma: ewmaOne},
		{ewma: ewmaOne, hot: true},
	}
	for _, st := range states {
		tx.cm = st
		*sleeps = (*sleeps)[:0]
		for attempt := 0; attempt < 64; attempt++ {
			tx.backoff(attempt)
		}
		if len(*sleeps) == 0 {
			t.Fatalf("state %+v: ladder never slept over 64 attempts", st)
		}
		for _, d := range *sleeps {
			if d <= 0 || d > backoffMax {
				t.Fatalf("state %+v: sleep %v outside (0, %v]", st, d, backoffMax)
			}
		}
	}
}

// TestBackoffSleepsOutsideTheSMRSection pins backoff.go's claim that sleeps
// happen at an SMR quiescent point: a Tx whose EBR handle is entered runs
// a body that aborts a dozen times, and every ladder sleep must see the
// section released, while the section is held again once RunRetry returns.
func TestBackoffSleepsOutsideTheSMRSection(t *testing.T) {
	_, _, restore := instrumentBackoff()
	defer restore()
	tx := NewTxManager().Register()
	h := ebr.New(1).Register()
	tx.SetSMR(h)
	var held []bool
	backoffSleep = func(time.Duration) { held = append(held, h.Active()) }

	h.Enter()
	defer h.Exit()
	const aborts = 12
	runs := 0
	err := tx.RunRetry(func() error {
		if runs++; runs <= aborts {
			return ErrTxAborted
		}
		return nil
	})
	if err != nil || runs != aborts+1 {
		t.Fatalf("RunRetry = %v after %d runs, want nil after %d", err, runs, aborts+1)
	}
	if len(held) == 0 {
		t.Fatalf("%d aborts and the ladder never slept", aborts)
	}
	for i, active := range held {
		if active {
			t.Errorf("sleep %d of %d held the SMR section", i+1, len(held))
		}
	}
	if !h.Active() {
		t.Error("RunRetry returned with the SMR section released")
	}
}

// TestBackoffAdaptiveSteering checks the directions the adaptive manager
// moves in: a high abort-rate EWMA (or a detected hot conflict) stops
// spinning almost immediately and widens the jitter window to the full
// cap, while a quiet shard spins longer and sleeps shorter.
func TestBackoffAdaptiveSteering(t *testing.T) {
	quiet := contention{ewma: 0}
	busy := contention{ewma: ewmaOne / 2}
	hot := contention{hot: true}
	if qy, by := quiet.yields(), busy.yields(); qy <= by {
		t.Fatalf("yields: quiet %d <= busy %d, want the quiet shard to spin longer", qy, by)
	}
	if busy.yields() != 1 || hot.yields() != 1 {
		t.Fatalf("busy/hot yields = %d/%d, want 1/1", busy.yields(), hot.yields())
	}
	if qw, bw := quiet.windowLimit(), busy.windowLimit(); qw >= bw {
		t.Fatalf("window: quiet %v >= busy %v, want the busy shard to jitter wider", qw, bw)
	}
	if busy.windowLimit() != backoffMax || hot.windowLimit() != backoffMax {
		t.Fatalf("busy/hot window = %v/%v, want %v", busy.windowLimit(), hot.windowLimit(), backoffMax)
	}
}

// TestBackoffEwmaTracksOutcomes checks that noted aborts raise the EWMA,
// noted commits decay it, and that a streak of aborts accompanied by
// fresh eager-abort traffic on the shard trips the hot-conflict detector
// — while the same streak without displacement traffic (pure validation
// failures) does not.
func TestBackoffEwmaTracksOutcomes(t *testing.T) {
	mgr := NewTxManager()
	tx := mgr.Register()

	for i := 0; i < 16; i++ {
		tx.cm.note(tx, true)
	}
	raised := tx.cm.ewma
	if raised <= ewmaOne/3 {
		t.Fatalf("EWMA after 16 aborts = %d, want > %d", raised, ewmaOne/3)
	}
	for i := 0; i < 64; i++ {
		tx.cm.note(tx, false)
	}
	if tx.cm.ewma >= raised || tx.cm.ewma > ewmaOne/16 {
		t.Fatalf("EWMA after 64 commits = %d, want decayed below %d", tx.cm.ewma, ewmaOne/16)
	}

	// Aborts with the shard's AbortsByOthers advancing: hot.
	for i := 0; i < hotStreakLen+1; i++ {
		tx.desc.shard.AbortsByOthers.Add(1)
		tx.cm.note(tx, true)
	}
	if !tx.cm.hot {
		t.Fatal("abort streak with displacement traffic did not trip hot-conflict detection")
	}
	// One commit clears it.
	tx.cm.note(tx, false)
	if tx.cm.hot {
		t.Fatal("hot flag survived a committed attempt")
	}
	// The same streak without displacement traffic stays cold.
	for i := 0; i < hotStreakLen+4; i++ {
		tx.cm.note(tx, true)
	}
	if tx.cm.hot {
		t.Fatal("abort streak without displacement traffic tripped hot-conflict detection")
	}
}

// TestBackoffJitterDeterministic pins the jitter PRNG contract: the
// xorshift sequence is a pure function of the Tx's thread id, so two
// contexts with the same tid produce identical sequences and a given
// run's backoff schedule is reproducible.
func TestBackoffJitterDeterministic(t *testing.T) {
	// Fresh managers both hand out tid 0 first.
	tx1 := NewTxManager().Register()
	tx2 := NewTxManager().Register()
	for i := 0; i < 256; i++ {
		a, b := tx1.nextRand(), tx2.nextRand()
		if a != b {
			t.Fatalf("step %d: same-seed sequences diverge (%d != %d)", i, a, b)
		}
		if a == 0 {
			t.Fatalf("step %d: xorshift emitted 0 (degenerate state)", i)
		}
	}
	// Different tids give different streams.
	m := NewTxManager()
	ta, tb := m.Register(), m.Register()
	same := 0
	for i := 0; i < 64; i++ {
		if ta.nextRand() == tb.nextRand() {
			same++
		}
	}
	if same == 64 {
		t.Fatal("distinct tids produced identical jitter streams")
	}
}
