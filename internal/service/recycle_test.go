package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"medley/internal/kv"
)

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// A warm leader's Submit recycles its request and the request's reply
// channel, so the pipeline allocates nothing per transaction: what
// remains is the store's and the feed's, which steady state pays from
// their own pools. An ID-carrying call costs its dedup entry alone, plus
// the entry's copy of the results when the caller asks for them.
func TestSubmitAllocatesNothing(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates, and a sync.Pool under it drops a quarter of what it is given")
	}
	const keys, window, runs = 256, 64, 1000
	n, err := NewNode(NodeConfig{
		Backend: hashStore(t, keys/8, keys),
		Service: Config{Tick: 20 * time.Microsecond, Workers: 2, DedupWindow: window},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	s := n.Service()

	ops, res := make([]kv.Op, 4), make([]kv.Result, 4)
	var k uint64
	fill := func() {
		for i := range ops {
			k++
			ops[i] = kv.Op{Kind: kv.OpKind(i % 2), Key: k % keys, Val: k} // get, put, get, put
		}
	}
	submit := func() {
		fill()
		if err := s.Submit(ops, res); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up: every key present, so each put replaces a node the store
	// recycles, and the slabs and EBR limbo at steady state.
	for range 4 * keys {
		submit()
	}
	if a := testing.AllocsPerRun(runs, submit); a > 0.05 {
		t.Errorf("a 4-op Submit allocates %.2f times, want 0: its request and reply channel are recycled", a)
	}

	ids := make([]string, window+2*(runs+1)) // AllocsPerRun calls f once more than runs
	for i := range ids {
		ids[i] = fmt.Sprintf("rq-%d", i)
	}
	next := 0
	submitID := func(res []kv.Result) func() {
		return func() {
			fill()
			if err := s.SubmitCtx(context.Background(), ids[next], ops, res); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	for range window { // a full window evicts one entry a claim
		submitID(nil)()
	}
	if a := testing.AllocsPerRun(runs, submitID(nil)); a != 1 {
		t.Errorf("an ID-carrying SubmitCtx allocates %.2f times, want 1: its dedup entry", a)
	}
	if a := testing.AllocsPerRun(runs, submitID(res)); a != 1 {
		t.Errorf("an ID-carrying SubmitCtx with results allocates %.2f times, want 1: its dedup entry, which holds up to four results inline", a)
	}
}

// TestRecycledRequestAnswersOnlyItsCaller storms the pipeline with calls
// whose requests are recycled across every disposition: submitters that
// each own a key put a value unique to the call and read it back in the
// same transaction, a pool of eight sheds most of them, some deadlines
// lapse in the pool and some at the worker, some IDs are retried while
// their originals are in flight, and Close lands mid-storm. Every call
// must return once with its own results — the value it put, over the one
// its owner last executed — or, refused, with its result slice untouched
// and an error of the classes its kind allows; and the store must end
// holding each owner's last executed put. A request answered twice,
// recycled before its answer was received or reused while the service
// still held it answers some caller with another call's outcome, which
// this sees (and -race sees the overlapping writes). Under GOGC=1 the
// request pool empties every cycle, so fresh and recycled requests mix.
func TestRecycledRequestAnswersOnlyItsCaller(t *testing.T) {
	submitters := 8 * runtime.GOMAXPROCS(0)
	calls := 2000
	if testing.Short() {
		calls = 400
	}
	const tick = 200 * time.Microsecond
	be := kvBackend(t, "medley-hash@2")
	s := newService(be, Config{PoolSize: 8, Tick: tick, Workers: 2, DedupWindow: submitters * calls})

	sentinel := kv.Result{Val: math.MaxUint64}
	// call runs one transaction: put v at key, read it back.
	call := func(ctx context.Context, id string, key, v uint64) ([]kv.Result, error) {
		ops := []kv.Op{{Kind: kv.OpPut, Key: key, Val: v}, {Kind: kv.OpGet, Key: key}}
		res := []kv.Result{sentinel, sentinel}
		return res, s.SubmitCtx(ctx, id, ops, res)
	}
	refusal := func(err error, deadline bool) bool {
		return errors.Is(err, kv.ErrOverload) || errors.Is(err, ErrClosed) ||
			(deadline && errors.Is(err, kv.ErrExpired))
	}

	var done atomic.Int64
	halfway := make(chan struct{})
	var once sync.Once
	last := make([]uint64, submitters) // each owner's last executed put
	start := make(chan struct{})
	var wg sync.WaitGroup
	var returned atomic.Int64
	wg.Add(submitters)
	for o := range submitters {
		go func() {
			defer wg.Done()
			defer returned.Add(1)
			key := uint64(o)
			rng := rand.New(rand.NewPCG(uint64(o), 45))
			// check judges one answer to the put of v; prev is the owner's
			// last executed put before it.
			check := func(what string, prev, v uint64, res []kv.Result, err error, deadline bool) bool {
				switch {
				case err == nil:
					if want := (kv.Result{Val: prev, Ok: prev != 0}); res[0] != want || res[1] != (kv.Result{Val: v, Ok: true}) {
						t.Errorf("owner %d %s of %#x answered %+v, want [%+v {Val:%#x Ok:true}]", o, what, v, res, want, v)
					}
					return true
				case !refusal(err, deadline):
					t.Errorf("owner %d %s of %#x (deadline %v) refused with %v", o, what, v, deadline, err)
				case res[0] != sentinel || res[1] != sentinel:
					t.Errorf("owner %d %s of %#x refused with %v but its results were written: %+v", o, what, v, err, res)
				}
				return false
			}
			<-start
			for j := range calls {
				v := uint64(o)<<32 | uint64(j+1)
				prev := last[o]
				var err error
				switch j % 4 {
				case 0, 2: // no deadline: executed, shed or closed
					var res []kv.Result
					res, err = call(context.Background(), "", key, v)
					if check("call", prev, v, res, err, false) {
						last[o] = v
					}
				case 1: // a deadline of up to three ticks: some lapse pooled, some at the worker
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Int64N(int64(3*tick))))
					var res []kv.Result
					res, err = call(ctx, "", key, v)
					cancel()
					if check("deadline call", prev, v, res, err, true) {
						last[o] = v
					}
				case 3: // an ID retried while its original is in flight
					id := fmt.Sprintf("%d/%d", o, j)
					var orig []kv.Result
					var origErr error
					inflight := make(chan struct{})
					go func() {
						defer close(inflight)
						orig, origErr = call(context.Background(), id, key, v)
					}()
					runtime.Gosched()
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Int64N(int64(3*tick))))
					var res []kv.Result
					res, err = call(ctx, id, key, v)
					cancel()
					<-inflight
					// Whichever of the two claimed first executes at most
					// once; a parked one wakes with its outcome or its
					// refusal, or lapses, so either may see any refusal.
					a := check("original", prev, v, orig, origErr, true)
					if b := check("retry", prev, v, res, err, true); a || b {
						last[o] = v
					}
					if errors.Is(origErr, ErrClosed) {
						err = origErr
					}
				}
				if done.Add(1) == int64(submitters*calls/2) {
					once.Do(func() { close(halfway) })
				}
				switch {
				case errors.Is(err, ErrClosed):
					return
				case errors.Is(err, kv.ErrOverload):
					// Back off up to a tick, as a client honoring Retry-After
					// does, so that the pool sheds without starving execution.
					time.Sleep(time.Duration(rng.Int64N(int64(tick))))
				}
			}
		}()
	}
	// A call that waits for an answer another call received never
	// returns: give up on it rather than on the test binary.
	all := make(chan struct{})
	go func() { wg.Wait(); close(all) }()
	giveUp := time.NewTimer(time.Minute)
	defer giveUp.Stop()
	wait := func(what string, c <-chan struct{}) {
		select {
		case <-c:
		case <-giveUp.C:
			t.Fatalf("%d of %d submitters still wait %s: an answer went to another call",
				int64(submitters)-returned.Load(), submitters, what)
		}
	}
	close(start)
	wait("for half the calls to return", halfway)
	s.Close()
	wait("after Close", all)

	ex := be.NewExecutor()
	res := make([]kv.Result, 1)
	for o := range submitters {
		if err := ex.ExecBatch([]kv.Op{{Kind: kv.OpGet, Key: uint64(o)}}, res); err != nil {
			t.Fatal(err)
		}
		if want := (kv.Result{Val: last[o], Ok: last[o] != 0}); res[0] != want {
			t.Errorf("owner %d's key holds %+v after the storm, want its last executed put %+v", o, res[0], want)
		}
	}
	t.Logf("%d submitters of %d calls answered %d, Close at half: svc_executed %d, shed %d, expired %d, dedup hits %d",
		submitters, calls, done.Load(), s.executed.Load(), s.shed.Load(), s.expired.Load(), s.dedupHits.Load())
}
