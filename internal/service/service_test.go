package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"medley/internal/cdc"
	"medley/internal/kv"
)

// fakeBackend records execution order; its executors complete instantly.
type fakeBackend struct {
	mu    sync.Mutex
	order []uint64
}

func (b *fakeBackend) Name() string          { return "fake" }
func (b *fakeBackend) Preload(keys []uint64) {}
func (b *fakeBackend) Start() func()         { return func() {} }
func (b *fakeBackend) SupportsChangeFeed() bool {
	return false // fakeExec publishes nothing
}
func (b *fakeBackend) NewExecutor() kv.Executor {
	return &fakeExec{b: b}
}

func (b *fakeBackend) executed() []uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]uint64(nil), b.order...)
}

type fakeExec struct{ b *fakeBackend }

func (e *fakeExec) ExecBatch(ops []kv.Op, res []kv.Result) error {
	e.b.mu.Lock()
	for _, op := range ops {
		e.b.order = append(e.b.order, op.Key)
	}
	e.b.mu.Unlock()
	for i := range res {
		res[i] = kv.Result{Val: ops[i].Val, Ok: true}
	}
	return nil
}

func oneOp(key uint64) []kv.Op {
	return []kv.Op{{Kind: kv.OpPut, Key: key, Val: key}}
}

// TestTickCoalescesAndPreservesFIFO pins the pipeline's scheduling
// contract: everything pooled when a tick fires drains as ONE batch (one
// scheduling decision), and with a single worker the execution order is
// exactly pool (FIFO) order. White-box: the pool is filled directly and
// the tick forced by hand, so the test is deterministic.
func TestTickCoalescesAndPreservesFIFO(t *testing.T) {
	be := &fakeBackend{}
	s := New(be, Config{Workers: 1, Tick: time.Hour, PoolSize: 64})
	defer s.Close()

	const n = 10
	var reqs []*request
	for i := uint64(0); i < n; i++ {
		r := &request{ops: oneOp(i), done: make(chan error, 1)}
		s.pool <- r
		reqs = append(reqs, r)
	}
	if got := s.drainTick(make([]*request, 0, 64)); got != n {
		t.Fatalf("drainTick dispatched %d, want %d", got, n)
	}
	for i, r := range reqs {
		if err := <-r.done; err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := s.ticks.Load(); got != 1 {
		t.Errorf("ticks = %d, want 1 (no coalescing)", got)
	}
	if got := s.batched.Load(); got != n {
		t.Errorf("batched = %d, want %d", got, n)
	}
	order := be.executed()
	if len(order) != n {
		t.Fatalf("executed %d ops, want %d", len(order), n)
	}
	for i, k := range order {
		if k != uint64(i) {
			t.Fatalf("FIFO violated: position %d executed key %d (order %v)", i, k, order)
		}
	}
}

// TestSubmitRoundTrip drives the public path end to end: concurrent
// Submits through a running tick loop, results filled per request.
func TestSubmitRoundTrip(t *testing.T) {
	be := &fakeBackend{}
	s := New(be, Config{Tick: 200 * time.Microsecond, Workers: 2})
	defer s.Close()

	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := make([]kv.Result, 1)
			errs[i] = s.Submit(oneOp(uint64(i)), res)
			if errs[i] == nil && (res[0].Val != uint64(i) || !res[0].Ok) {
				errs[i] = fmt.Errorf("request %d: result %+v", i, res[0])
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if got := s.executed.Load(); got != n {
		t.Errorf("executed = %d, want %d", got, n)
	}
}

// TestShedOnOverflow pins admission control: a full pool refuses
// instantly with ErrShed, already-admitted requests still complete (Close
// drains them), and a closed service answers ErrClosed.
func TestShedOnOverflow(t *testing.T) {
	be := &fakeBackend{}
	s := New(be, Config{PoolSize: 1, Tick: time.Hour, Workers: 1})

	admitted := make(chan error, 1)
	go func() { admitted <- s.Submit(oneOp(1), nil) }()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.pool) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never reached the pool")
		}
		time.Sleep(100 * time.Microsecond)
	}

	if err := s.Submit(oneOp(2), nil); err != ErrShed {
		t.Fatalf("overflow submit: err = %v, want ErrShed", err)
	}
	if got := s.shed.Load(); got != 1 {
		t.Errorf("shed = %d, want 1", got)
	}

	s.Close()
	if err := <-admitted; err != nil {
		t.Fatalf("admitted request lost at close: %v", err)
	}
	if got := be.executed(); len(got) != 1 || got[0] != 1 {
		t.Errorf("executed = %v, want [1]", got)
	}
	if err := s.Submit(oneOp(3), nil); err != ErrClosed {
		t.Fatalf("post-close submit: err = %v, want ErrClosed", err)
	}
}

// TestValidateOps pins the admission-side batch validation.
func TestValidateOps(t *testing.T) {
	if err := validateOps(nil); err == nil {
		t.Error("empty batch admitted")
	}
	big := make([]kv.Op, MaxOpsPerBatch+1)
	if err := validateOps(big); err == nil {
		t.Error("oversized batch admitted")
	}
	if err := validateOps([]kv.Op{{Kind: kv.OpKind(99)}}); err == nil {
		t.Error("unknown kind admitted")
	}
	if err := validateOps(oneOp(1)); err != nil {
		t.Errorf("valid batch refused: %v", err)
	}
}

// failingBackend's executors fail any batch that leads with failKey (after
// running it through the ordinary fake execution), so the worker's
// per-request error routing is observable.
type failingBackend struct{ fakeBackend }

const failKey = 666

var errMemberFail = errors.New("member failed")

func (b *failingBackend) NewExecutor() kv.Executor { return &failingExec{fakeExec{b: &b.fakeBackend}} }

type failingExec struct{ fakeExec }

func (e *failingExec) ExecBatch(ops []kv.Op, res []kv.Result) error {
	if err := e.fakeExec.ExecBatch(ops, res); err != nil {
		return err
	}
	if ops[0].Key == failKey {
		return errMemberFail
	}
	return nil
}

// TestChunkRoutesEachRequestItsOwnOutcome pins the worker's settle loop: a
// multi-request chunk executes in pool order, and every submitter gets its
// own results and its own error — a failing request fails alone.
func TestChunkRoutesEachRequestItsOwnOutcome(t *testing.T) {
	be := &failingBackend{}
	s := New(be, Config{Workers: 1, Tick: time.Hour, PoolSize: 64})
	defer s.Close()

	keys := []uint64{1, failKey, 3}
	var reqs []*request
	for _, k := range keys {
		r := &request{ops: oneOp(k), res: make([]kv.Result, 1), done: make(chan error, 1)}
		s.pool <- r
		reqs = append(reqs, r)
	}
	if got := s.drainTick(make([]*request, 0, 64)); got != len(keys) {
		t.Fatalf("drainTick dispatched %d, want %d", got, len(keys))
	}
	for i, r := range reqs {
		err := <-r.done
		if keys[i] == failKey {
			if !errors.Is(err, errMemberFail) {
				t.Errorf("failing request got err %v, want errMemberFail", err)
			}
			continue
		}
		if err != nil {
			t.Errorf("request %d: %v", i, err)
		}
		if r.res[0].Val != keys[i] || !r.res[0].Ok {
			t.Errorf("request %d: result %+v not scattered back", i, r.res[0])
		}
	}
	if got := be.executed(); len(got) != len(keys) || got[0] != 1 || got[1] != failKey || got[2] != 3 {
		t.Errorf("execution order = %v, want %v", got, keys)
	}
	if ex, er := s.executed.Load(), s.errored.Load(); ex != 2 || er != 1 {
		t.Errorf("executed/errored = %d/%d, want 2/1", ex, er)
	}
}

// TestChunkExecutesEachRequestOnceAsItsOwnCommit is the worker contract on
// a real store: 64 submitters, released together, each add 1 to one key
// through a one-worker pipeline drained by hand, so all 64 requests land in
// one chunk. Every request must execute exactly once, as its own commit,
// and be answered: the returned post-values are a permutation of 1..64, and
// on a node the feed holds 64 entries under 64 distinct tickets whose
// values count 1..64 in ticket order.
func TestChunkExecutesEachRequestOnceAsItsOwnCommit(t *testing.T) {
	const reqs, key = 64, 7
	cfg := Config{Workers: 1, Tick: time.Hour, PoolSize: reqs} // drained by hand below
	node, err := NewNode(NodeConfig{Backend: kvBackend(t, "medley-hash"), Service: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	bare := New(kvBackend(t, "medley-hash"), cfg)
	defer bare.Close()

	for _, c := range []struct {
		name string
		s    *Service
		feed *cdc.Feed
	}{{"node", node.Service(), node.Feed()}, {"feedless service", bare, nil}} {
		posts := make([]uint64, reqs)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < reqs; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				res := make([]kv.Result, 1)
				<-start
				if err := c.s.Submit([]kv.Op{{Kind: kv.OpAdd, Key: key, Val: 1}}, res); err != nil {
					t.Errorf("%s: submit %d: %v", c.name, g, err)
					return
				}
				posts[g] = res[0].Val
			}(g)
		}
		close(start)
		for len(c.s.pool) < reqs {
			runtime.Gosched()
		}
		if got := c.s.drainTick(make([]*request, 0, reqs)); got != reqs {
			t.Fatalf("%s: drainTick dispatched %d, want %d", c.name, got, reqs)
		}
		wg.Wait()
		sort.Slice(posts, func(i, j int) bool { return posts[i] < posts[j] })
		for i, v := range posts {
			if v != uint64(i+1) {
				t.Fatalf("%s: sorted post-values = %v, want 1..%d", c.name, posts, reqs)
			}
		}
		counters := map[string]uint64{}
		for _, m := range c.s.MetricsSnapshot() {
			counters[m.Name] = m.Value
		}
		if counters["svc_ticks"] != 1 || counters["svc_executed"] != reqs {
			t.Errorf("%s: svc_ticks/svc_executed = %d/%d, want 1/%d",
				c.name, counters["svc_ticks"], counters["svc_executed"], reqs)
		}
		if got := counters["tx_commits"]; got != reqs {
			t.Errorf("%s: tx_commits = %d, want %d (one commit per request)", c.name, got, reqs)
		}
		if c.feed == nil {
			res := make([]kv.Result, 1)
			err := c.s.be.NewExecutor().ExecBatch([]kv.Op{{Kind: kv.OpGet, Key: key}}, res)
			if err != nil || res[0].Val != reqs {
				t.Errorf("%s: key reads %d (err %v), want %d", c.name, res[0].Val, err, reqs)
			}
			continue
		}
		entries, err := c.feed.ReadFrom(c.feed.ShardOf(key), 1, make([]cdc.Entry, 2*reqs))
		if err != nil {
			t.Fatalf("%s: ReadFrom: %v", c.name, err)
		}
		if len(entries) != reqs {
			t.Fatalf("%s: feed holds %d entries, want %d", c.name, len(entries), reqs)
		}
		for i, e := range entries {
			if e.Key != key || e.Val != uint64(i+1) {
				t.Fatalf("%s: entry %d = %+v, want key %d val %d", c.name, i, e, key, i+1)
			}
			if i > 0 && e.TxID <= entries[i-1].TxID {
				t.Fatalf("%s: tickets not strictly increasing at entry %d: %d after %d",
					c.name, i, e.TxID, entries[i-1].TxID)
			}
		}
		if st := c.feed.Stats(); st.Pending != 0 || st.Published != reqs {
			t.Errorf("%s: feed stats %+v, want %d published and none pending", c.name, st, reqs)
		}
	}
}

// TestFreshServiceGaugesFinite pins the zero-denominator guard: a service
// that has executed nothing must export no NaN/Inf gauge — ratios whose
// denominator is zero are omitted, not divided — and the /metrics JSON
// shape must stay encodable (encoding/json rejects NaN, so one bad gauge
// would break the endpoint, silently with json.Encoder).
func TestFreshServiceGaugesFinite(t *testing.T) {
	s := New(&fakeBackend{}, Config{Tick: time.Hour})
	defer s.Close()
	for _, g := range s.Gauges() {
		if math.IsNaN(g.Value) || math.IsInf(g.Value, 0) {
			t.Errorf("gauge %s = %v on a fresh service", g.Name, g.Value)
		}
		switch g.Name {
		case "svc_shed_rate", "svc_batch_coalesce":
			t.Errorf("gauge %s exported with zero denominator", g.Name)
		}
	}
	if _, err := json.Marshal(struct {
		Counters any `json:"counters"`
		Gauges   any `json:"gauges"`
	}{s.MetricsSnapshot(), s.Gauges()}); err != nil {
		t.Fatalf("fresh /metrics shape not encodable: %v", err)
	}
}

// TestGaugesDeriveRatios pins the derived-gauge math against the
// counters.
func TestGaugesDeriveRatios(t *testing.T) {
	be := &fakeBackend{}
	s := New(be, Config{Tick: 200 * time.Microsecond})
	defer s.Close()
	for i := 0; i < 8; i++ {
		if err := s.Submit(oneOp(uint64(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	var coalesce, shedRate float64 = -1, -1
	for _, g := range s.Gauges() {
		switch g.Name {
		case "svc_batch_coalesce":
			coalesce = g.Value
		case "svc_shed_rate":
			shedRate = g.Value
		}
	}
	if coalesce < 1 {
		t.Errorf("svc_batch_coalesce = %v, want >= 1", coalesce)
	}
	if shedRate != 0 {
		t.Errorf("svc_shed_rate = %v, want 0", shedRate)
	}
	found := false
	for _, m := range s.MetricsSnapshot() {
		if m.Name == "svc_executed" && m.Value == 8 {
			found = true
		}
	}
	if !found {
		t.Error("svc_executed counter missing or wrong")
	}
}

// TestMetricsMergeDedupCounters pins the dedup window's lifecycle
// counters in the merged /metrics export: claims, window hits, abandons,
// evictions and completes ride alongside the existing svc_* counters,
// and the merged list stays name-sorted (the wire contract since the
// backend merge landed).
func TestMetricsMergeDedupCounters(t *testing.T) {
	s := New(&fakeBackend{}, Config{Tick: 200 * time.Microsecond, DedupWindow: 1})
	defer s.Close()

	// claim+complete, then a same-ID retry (window hit).
	ctx := context.Background()
	if err := s.SubmitCtx(ctx, "rq-1", oneOp(1), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitCtx(ctx, "rq-1", oneOp(1), nil); err != nil {
		t.Fatal(err)
	}
	// A second ID evicts the first from the size-1 window.
	if err := s.SubmitCtx(ctx, "rq-2", oneOp(2), nil); err != nil {
		t.Fatal(err)
	}
	// Abandon: a claim released without executing (the shed path).
	mine, prior := s.window.claim("rq-3")
	if mine == nil || prior != nil {
		t.Fatalf("claim rq-3: mine=%v prior=%v", mine, prior)
	}
	s.window.abandon(mine, ErrShed)

	want := map[string]uint64{
		"svc_dedup_claims":      3, // rq-1, rq-2, rq-3
		"svc_dedup_window_hits": 1, // the rq-1 retry
		"svc_dedup_completes":   2, // rq-1, rq-2 executed
		"svc_dedup_abandons":    1, // rq-3
		"svc_dedup_evictions":   2, // rq-1 pushed out by rq-2, rq-2 by rq-3
	}
	got := map[string]uint64{}
	ms := s.MetricsSnapshot()
	for _, m := range ms {
		got[m.Name] = m.Value
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %d, want %d", name, got[name], v)
		}
	}
	// The service-level hit counter (retries answered) agrees.
	if got["svc_dedup_hits"] != 1 {
		t.Errorf("svc_dedup_hits = %d, want 1", got["svc_dedup_hits"])
	}
	if !sort.SliceIsSorted(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name }) {
		t.Error("merged metrics not name-sorted")
	}
}
