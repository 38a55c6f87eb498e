package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"medley/internal/kv"
)

// gatedBackend's executors block inside ExecBatch until released, so a
// test can hold a request "in execution" while racing a retry against it.
type gatedBackend struct {
	fakeBackend
	started chan struct{} // signaled when an execution begins
	release chan struct{} // closed to let executions finish
}

func (b *gatedBackend) NewExecutor() kv.Executor { return &gatedExec{b: b} }

type gatedExec struct{ b *gatedBackend }

func (e *gatedExec) ExecBatch(ops []kv.Op, res []kv.Result) error {
	select {
	case e.b.started <- struct{}{}:
	default:
	}
	<-e.b.release
	fe := fakeExec{b: &e.b.fakeBackend}
	return fe.ExecBatch(ops, res)
}

// TestExpiredRequestsNeverExecute pins the deadline contract at its two
// observable choke points: a context already past its deadline is
// refused at admission, and a pooled request whose deadline passes
// before the tick drain is answered kv.ErrExpired without its ops ever
// reaching the backend — while a live neighbor in the same batch still
// executes.
func TestExpiredRequestsNeverExecute(t *testing.T) {
	be := &fakeBackend{}
	s := newService(be, Config{Workers: 1, Tick: time.Hour, PoolSize: 64})
	defer s.Close()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	if err := s.SubmitCtx(ctx, "", oneOp(1), nil); !errors.Is(err, kv.ErrExpired) {
		t.Fatalf("pre-expired admission: err = %v, want kv.ErrExpired", err)
	}

	dead := &request{ops: oneOp(2), done: make(chan error, 1),
		deadline: time.Now().Add(-time.Millisecond)}
	live := &request{ops: oneOp(3), done: make(chan error, 1)}
	s.pool <- dead
	s.pool <- live
	if got := s.drainTick(make([]*request, 0, 64)); got != 2 {
		t.Fatalf("drainTick disposed of %d, want 2", got)
	}
	if err := <-dead.done; !errors.Is(err, kv.ErrExpired) {
		t.Fatalf("expired request: err = %v, want kv.ErrExpired", err)
	}
	if err := <-live.done; err != nil {
		t.Fatalf("live request: %v", err)
	}
	if got := be.executed(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("executed = %v, want [3] (expired op ran)", got)
	}
	if got := s.expired.Load(); got != 2 {
		t.Errorf("expired counter = %d, want 2", got)
	}
}

// TestExpiredClaimAbandonedForRetry pins the dedup interaction of an
// expiry: a request dropped at its deadline abandons its window claim,
// so a retry with the same ID claims fresh and actually executes instead
// of being answered "already done" by a request that never ran.
func TestExpiredClaimAbandonedForRetry(t *testing.T) {
	be := &fakeBackend{}
	s := newService(be, Config{Workers: 1, Tick: time.Hour, PoolSize: 64, DedupWindow: 8})
	defer s.Close()

	mine, prior := s.window.claim("retry-me")
	if prior != nil {
		t.Fatal("fresh ID already claimed")
	}
	dead := &request{ops: oneOp(5), done: make(chan error, 1),
		deadline: time.Now().Add(-time.Millisecond), ent: mine}
	s.pool <- dead
	s.drainTick(make([]*request, 0, 64))
	if err := <-dead.done; !errors.Is(err, kv.ErrExpired) {
		t.Fatalf("err = %v, want kv.ErrExpired", err)
	}
	s.window.mu.Lock()
	_, still := s.window.m["retry-me"]
	s.window.mu.Unlock()
	if still {
		t.Fatal("expired request's claim not abandoned")
	}

	// The retry must execute for real.
	done := make(chan error, 1)
	go func() { done <- s.SubmitCtx(context.Background(), "retry-me", oneOp(5), nil) }()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.pool) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("retry never admitted")
		}
		time.Sleep(100 * time.Microsecond)
	}
	s.drainTick(make([]*request, 0, 64))
	if err := <-done; err != nil {
		t.Fatalf("retry after expiry: %v", err)
	}
	if got := be.executed(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("executed = %v, want [5]", got)
	}
	if got := s.dedupHits.Load(); got != 0 {
		t.Errorf("dedupHits = %d, want 0 (retry must not be answered from an abandoned claim)", got)
	}
}

// TestDedupWindowHitAndEviction pins the window's core promise and its
// documented bound: a retry inside the window returns the original
// results without re-executing; once newer IDs evict the original, the
// same retry re-executes.
func TestDedupWindowHitAndEviction(t *testing.T) {
	be := &fakeBackend{}
	s := newService(be, Config{Tick: 200 * time.Microsecond, DedupWindow: 2})
	defer s.Close()
	ctx := context.Background()

	res1 := make([]kv.Result, 1)
	if err := s.SubmitCtx(ctx, "a", oneOp(1), res1); err != nil {
		t.Fatal(err)
	}
	res2 := make([]kv.Result, 1)
	if err := s.SubmitCtx(ctx, "a", oneOp(1), res2); err != nil {
		t.Fatal(err)
	}
	if got := len(be.executed()); got != 1 {
		t.Fatalf("retry re-executed: %d executions, want 1", got)
	}
	if got := s.dedupHits.Load(); got != 1 {
		t.Errorf("dedupHits = %d, want 1", got)
	}
	if res2[0] != res1[0] {
		t.Errorf("retry results %+v != original %+v", res2[0], res1[0])
	}

	// Two fresh IDs through a window of 2 evict "a"; the next "a" retry
	// is outside the window and must execute again.
	if err := s.SubmitCtx(ctx, "b", oneOp(2), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitCtx(ctx, "c", oneOp(3), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitCtx(ctx, "a", oneOp(1), nil); err != nil {
		t.Fatal(err)
	}
	if got := len(be.executed()); got != 4 {
		t.Fatalf("%d executions, want 4 (evicted retry must re-execute)", got)
	}
	if got := s.dedupHits.Load(); got != 1 {
		t.Errorf("dedupHits = %d, want still 1 (eviction means re-execution, not a hit)", got)
	}
}

// TestZeroConfigDedupsRetries pins the window as always on: a zero Config
// takes the default window, and a retried ID is answered from it rather
// than executed a second time.
func TestZeroConfigDedupsRetries(t *testing.T) {
	be := &fakeBackend{}
	s := newService(be, Config{})
	defer s.Close()
	for range 2 {
		if err := s.SubmitCtx(context.Background(), "once", oneOp(1), nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(be.executed()); got != 1 {
		t.Fatalf("%d executions of one ID, want 1", got)
	}
	if got := s.dedupHits.Load(); got != 1 {
		t.Errorf("dedupHits = %d, want 1", got)
	}
}

// TestDedupRetryParksOnInflight pins the in-flight race: a retry that
// arrives while its original is still executing parks on the claim and
// wakes with the original's results — one execution, two identical
// answers.
func TestDedupRetryParksOnInflight(t *testing.T) {
	be := &gatedBackend{started: make(chan struct{}, 1), release: make(chan struct{})}
	s := newService(be, Config{Tick: 200 * time.Microsecond, Workers: 1, DedupWindow: 8})
	defer s.Close()
	ctx := context.Background()

	var wg sync.WaitGroup
	res1, res2 := make([]kv.Result, 1), make([]kv.Result, 1)
	var err1, err2 error
	wg.Add(1)
	go func() { defer wg.Done(); err1 = s.SubmitCtx(ctx, "dup", oneOp(9), res1) }()
	<-be.started // the original is inside ExecBatch now

	wg.Add(1)
	go func() { defer wg.Done(); err2 = s.SubmitCtx(ctx, "dup", oneOp(9), res2) }()
	time.Sleep(2 * time.Millisecond) // let the retry reach the claim and park
	close(be.release)
	wg.Wait()

	if err1 != nil || err2 != nil {
		t.Fatalf("errs = %v, %v", err1, err2)
	}
	if got := len(be.executed()); got != 1 {
		t.Fatalf("%d executions, want 1 (in-flight retry executed)", got)
	}
	if got := s.dedupHits.Load(); got != 1 {
		t.Errorf("dedupHits = %d, want 1", got)
	}
	if res2[0] != res1[0] {
		t.Errorf("parked retry results %+v != original %+v", res2[0], res1[0])
	}
}

// A claim that settles with no retry parked on it costs its entry and
// nothing else: the wake-up channel is made by the first waiter, so a
// claim plus complete, with the window full and evicting, allocates once.
func TestDedupClaimAllocatesOnlyItsEntry(t *testing.T) {
	const window, runs = 64, 512
	w := newDedupWindow(window)
	ids := make([]string, window+runs+1)
	for i := range ids {
		ids[i] = fmt.Sprintf("rq-%d", i)
	}
	next := 0
	claimComplete := func() {
		e, _ := w.claim(ids[next])
		w.complete(e, nil, nil)
		next++
	}
	for range window {
		claimComplete()
	}
	if a := testing.AllocsPerRun(runs, claimComplete); a > 1 {
		t.Errorf("a claim and its complete with no waiter allocate %.2f times, want 1: the entry", a)
	}
}

// Retries that park on a claim race its settle: some make the channel
// before the outcome lands, some find the entry already settled. Every
// one must answer with the original's results (run under -race).
func TestDedupWaitersRaceTheSettle(t *testing.T) {
	w := newDedupWindow(8)
	for round := uint64(0); round < 200; round++ {
		id := fmt.Sprint(round)
		mine, _ := w.claim(id)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, prior := w.claim(id)
				res := make([]kv.Result, 1)
				if hit, err := w.await(prior, res, nil, time.Time{}); !hit || err != nil || res[0].Val != round {
					t.Errorf("round %d: a parked retry answered %+v, hit %v, %v", round, res[0], hit, err)
				}
			}()
		}
		close(start)
		w.complete(mine, []kv.Result{{Val: round}}, nil)
		wg.Wait()
	}
}

// TestDedupClaimAbandonedOnShed pins the shed interaction: a request
// shed at admission leaves no claim behind, so the client's retry (the
// whole point of the ID) executes fresh instead of finding a ghost entry.
func TestDedupClaimAbandonedOnShed(t *testing.T) {
	be := &fakeBackend{}
	s := newService(be, Config{PoolSize: 1, Tick: time.Hour, Workers: 1, DedupWindow: 8})

	blocker := &request{ops: oneOp(1), done: make(chan error, 1)}
	s.pool <- blocker
	if err := s.SubmitCtx(context.Background(), "shed-me", oneOp(2), nil); !errors.Is(err, kv.ErrOverload) {
		t.Fatalf("err = %v, want kv.ErrOverload", err)
	}
	s.window.mu.Lock()
	_, still := s.window.m["shed-me"]
	s.window.mu.Unlock()
	if still {
		t.Fatal("shed request left its claim in the dedup window")
	}
	s.Close()
	<-blocker.done
}

// TestCloseDrainsDeterministically pins the shutdown contract under
// race: with Submits racing Close, every caller gets exactly one of
// {nil, kv.ErrOverload, ErrClosed}, and the number of nil answers equals the
// number of backend executions — no request is half-admitted, lost, or
// answered twice. Run under -race this also pins the mu-gated admission.
func TestCloseDrainsDeterministically(t *testing.T) {
	be := &fakeBackend{}
	s := newService(be, Config{Tick: 50 * time.Microsecond, Workers: 2, PoolSize: 8})

	const n = 64
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Submit(oneOp(uint64(i)), nil)
		}(i)
	}
	time.Sleep(500 * time.Microsecond)
	s.Close()
	wg.Wait()

	completed := 0
	for i, err := range errs {
		switch {
		case err == nil:
			completed++
		case errors.Is(err, kv.ErrOverload), errors.Is(err, ErrClosed):
		default:
			t.Fatalf("submit %d: unexpected disposition %v", i, err)
		}
	}
	if got := len(be.executed()); got != completed {
		t.Errorf("%d executions for %d completed submits", got, completed)
	}
	if err := s.Submit(oneOp(99), nil); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close submit: err = %v, want ErrClosed", err)
	}
}
