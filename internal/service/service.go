// Package service is medleyd's engine: a network service layer that turns
// the NBTC transactional store into a multi-key request/response system.
//
// The pipeline is txpool → tick → workers. Requests land in a bounded
// transaction pool (one channel: the bound is the admission control, the
// channel order is the FIFO fairness guarantee). A tick loop drains the
// pool in batches — coalescing whatever arrived during the tick into one
// scheduling decision — and splits each batch into contiguous chunks
// executed by persistent worker goroutines, each request as its own
// atomic transaction with a per-request promise carrying the result back
// to the submitting handler. When execution falls behind the arrival
// rate the pool fills and Submit sheds instead of queueing without bound:
// overload surfaces as fast 429s, not as collapse.
//
// The layer deliberately adds no second concurrency control: atomicity
// and strict serializability come entirely from the store's transactions
// (internal/core); the service only decides when work runs and how much
// of it is admitted.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"medley/internal/cdc"
	"medley/internal/kv"
	"medley/internal/obs"
)

// Backend is the store seam: what the service needs from the system under
// it. Everything store.New builds is one — medleyd is internal/store
// behind a listener — and so is anything else with these five methods (the
// chaos runner puts a competitor STM behind the same pipeline).
type Backend interface {
	Name() string
	Preload(keys []uint64)
	// Start launches background maintenance and returns its stop.
	Start() func()
	// NewExecutor hands out a batch executor: each service worker owns
	// one, and a Node keeps a few for replay. An executor is used by one
	// goroutine at a time; a channel hand-off orders it.
	NewExecutor() kv.Executor
	// SupportsChangeFeed reports whether the executors can publish their
	// commits to a change feed in commit order. A node over a backend that
	// cannot has no feed and cannot follow: a feed nothing publishes to
	// reads as a follower that is never behind.
	SupportsChangeFeed() bool
}

// Optional capabilities of a Backend, probed where they are used: the
// live key→value state, which a node serves as /v1/snapshot and scans to
// bootstrap a follower, and the store's partition count for /healthz
// (obs.MetricsSnapshotter, for /metrics, is the third). A follower's
// executors must also be loaders: a bootstrap chunk is a load, not a
// transaction (replica.Config.Load).
type (
	snapshotter interface {
		StateSnapshot(fn func(key, val uint64) bool)
	}
	shardCounter interface{ ShardCount() int }
	loader       interface{ Load(ops []kv.Op) }
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("service: closed")

// Config sizes the pipeline. Zero values take defaults.
type Config struct {
	// PoolSize bounds the txpool; arrivals beyond it are shed (default
	// 4096). It also bounds one tick's drain: a tick that overruns simply
	// delays the next, ticks never overlap.
	PoolSize int
	// Tick is the batch period: how long arrivals coalesce before a
	// drain (default 1ms). Shorter ticks trade batching efficiency for
	// lower queueing latency.
	Tick time.Duration
	// Workers is the number of executor goroutines a tick's batch is
	// split across (default GOMAXPROCS).
	Workers int
	// DedupWindow bounds the completed-request window that answers
	// idempotent retries (requests carrying an ID): the outcomes of the
	// last DedupWindow ID-carrying requests are remembered, so a retry
	// inside the window returns the original results instead of
	// re-executing (default 4096).
	DedupWindow int

	// feed, set by NewNode, is attached to every worker executor: each
	// committed write batch publishes its absolute post-states to the
	// feed in commit-ticket order, and the HTTP layer serves it through
	// GET /v1/watch and GET /v1/snapshot. nil when the backend cannot
	// publish one.
	feed *cdc.Feed
}

func (c Config) withDefaults() Config {
	if c.PoolSize <= 0 {
		c.PoolSize = 4096
	}
	if c.Tick <= 0 {
		c.Tick = time.Millisecond
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.DedupWindow <= 0 {
		c.DedupWindow = 4096
	}
	return c
}

// request is one admitted transaction: its operations, the caller's
// result slice, and the promise the executing worker fulfills. deadline
// (when non-zero) is checked at admission, at tick drain, and once more
// by the worker just before execution; ent (when non-nil) is the
// request's claim in the dedup window, settled with the outcome.
type request struct {
	ops      []kv.Op
	res      []kv.Result
	done     chan error
	deadline time.Time
	ent      *dedupEntry
}

// expired reports whether the request's deadline passed as of now.
func (r *request) expired(now time.Time) bool {
	return !r.deadline.IsZero() && now.After(r.deadline)
}

// chunk is one worker's contiguous slice of a tick's batch.
type chunk struct {
	reqs []*request
	wg   *sync.WaitGroup
}

// Service is the running pipeline of a Node (NewNode builds it).
type Service struct {
	be  Backend
	cfg Config

	pool    chan *request
	workers []chan chunk
	stopCh  chan struct{}
	loopWG  sync.WaitGroup
	workWG  sync.WaitGroup
	stopBE  func()
	window  *dedupWindow

	// mu gates admission against Close: Submit holds the read side across
	// the closed check and the pool send, Close takes the write side to
	// flip closed. After Close's critical section, no Submit can still be
	// between its check and its send, so the tick loop's final drains see
	// every admitted request — no promise is left unresolved.
	mu     sync.RWMutex
	closed bool

	accepted  atomic.Uint64 // requests admitted to the pool
	shed      atomic.Uint64 // requests refused at admission
	executed  atomic.Uint64 // requests executed successfully
	errored   atomic.Uint64 // requests whose execution failed
	expired   atomic.Uint64 // requests dropped, unexecuted, at their deadline
	dedupHits atomic.Uint64 // retries answered from the dedup window
	ticks     atomic.Uint64 // ticks that dispatched a batch
	batched   atomic.Uint64 // requests dispatched inside batches
}

// newService builds and starts the pipeline over be: backend maintenance,
// the worker executors, and the tick loop.
func newService(be Backend, cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		be:     be,
		cfg:    cfg,
		pool:   make(chan *request, cfg.PoolSize),
		stopCh: make(chan struct{}),
		window: newDedupWindow(cfg.DedupWindow),
	}
	s.stopBE = be.Start()
	s.workers = make([]chan chunk, cfg.Workers)
	for i := range s.workers {
		ch := make(chan chunk, 1)
		s.workers[i] = ch
		s.workWG.Add(1)
		go s.worker(ch)
	}
	s.loopWG.Add(1)
	go s.tickLoop()
	return s
}

// Backend returns the system under the service.
func (s *Service) Backend() Backend { return s.be }

// Config returns the resolved (defaulted) configuration.
func (s *Service) Config() Config { return s.cfg }

// Submit runs ops as one atomic transaction through the pipeline,
// filling res when non-nil (len(res) must equal len(ops) then), and
// blocks until the transaction executed or was refused. It is safe for
// concurrent use. Admission is instantaneous: a full pool sheds
// immediately with kv.ErrOverload (HTTP 429) rather than queueing the
// caller. Its refusals are the ones an HTTPDriver session returns, so an
// in-process caller and a wire client classify them alike.
func (s *Service) Submit(ops []kv.Op, res []kv.Result) error {
	return s.SubmitCtx(context.Background(), "", ops, res)
}

// SubmitCtx is Submit with the fault-tolerance contract attached.
//
// ctx's deadline, when set, bounds the request end to end: a request
// whose deadline passes before execution begins is dropped — at
// admission, at tick drain, or by the worker immediately before the
// transaction would start — and answered with kv.ErrExpired (HTTP 504).
// Expired requests are never executed, so retrying one is always safe. A
// request whose execution has already started runs to completion
// regardless (the store's transactions are not cancellable mid-flight).
//
// id, when non-empty, makes the request idempotent across retries: the
// outcome is remembered in the dedup window (Config.DedupWindow), and a
// second SubmitCtx with the same id inside the window returns the
// original results without re-executing — including when the retry races
// the original in flight, in which case it parks until the original
// settles. With id == "", every call executes.
func (s *Service) SubmitCtx(ctx context.Context, id string, ops []kv.Op, res []kv.Result) error {
	deadline, _ := ctx.Deadline()
	now := time.Now()
	if !deadline.IsZero() && now.After(deadline) {
		s.expired.Add(1)
		return kv.ErrExpired
	}

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	var ent *dedupEntry
	if id != "" {
		mine, prior := s.window.claim(id)
		if prior != nil {
			stop := s.stopCh
			s.mu.RUnlock()
			hit, err := s.window.await(prior, res, stop, deadline)
			if hit {
				s.dedupHits.Add(1)
			} else if errors.Is(err, kv.ErrExpired) {
				s.expired.Add(1)
			}
			return err
		}
		ent = mine
	}
	req := &request{ops: ops, res: res, done: make(chan error, 1), deadline: deadline, ent: ent}
	select {
	case s.pool <- req:
		s.accepted.Add(1)
	default:
		s.shed.Add(1)
		if ent != nil {
			s.window.abandon(ent, kv.ErrOverload)
		}
		s.mu.RUnlock()
		return kv.ErrOverload
	}
	s.mu.RUnlock()
	return <-req.done
}

// finishExecuted settles a request that ran: counters, dedup window,
// promise.
func (s *Service) finishExecuted(r *request, err error) {
	if err != nil {
		s.errored.Add(1)
	} else {
		s.executed.Add(1)
	}
	if r.ent != nil {
		s.window.complete(r.ent, r.res, err)
	}
	r.done <- err
}

// finishExpired settles a request dropped, unexecuted, at its deadline.
// The dedup claim is abandoned — nothing executed, so a retry with the
// same ID must claim fresh and actually run.
func (s *Service) finishExpired(r *request) {
	s.expired.Add(1)
	if r.ent != nil {
		s.window.abandon(r.ent, kv.ErrExpired)
	}
	r.done <- kv.ErrExpired
}

// tickLoop drains the pool once per tick. Dispatch is synchronous — the
// loop waits for the batch to finish before the next drain — so a tick's
// batch is bounded and execution backpressure propagates to the pool
// (and from there to admission) instead of to an unbounded work queue.
func (s *Service) tickLoop() {
	defer s.loopWG.Done()
	t := time.NewTicker(s.cfg.Tick)
	defer t.Stop()
	batch := make([]*request, 0, s.cfg.PoolSize)
	for {
		select {
		case <-s.stopCh:
			// Final drains: closed is already set, so no new request can
			// be admitted; loop until the pool is empty so every admitted
			// request is answered.
			for s.drainTick(batch[:0]) > 0 {
			}
			for _, ch := range s.workers {
				close(ch)
			}
			return
		case <-t.C:
			s.drainTick(batch[:0])
		}
	}
}

// drainTick drains up to PoolSize pooled requests and executes them,
// returning how many it disposed of (dispatched or expired).
func (s *Service) drainTick(batch []*request) int {
drain:
	for len(batch) < s.cfg.PoolSize {
		select {
		case r := <-s.pool:
			batch = append(batch, r)
		default:
			break drain
		}
	}
	if len(batch) == 0 {
		return 0
	}
	drained := len(batch)
	// Deadline cull: requests that expired while pooled are answered here
	// and never reach a worker, so a backlogged pool sheds dead work
	// before spending execution capacity on it.
	now := time.Now()
	live := batch[:0]
	for _, r := range batch {
		if r.expired(now) {
			s.finishExpired(r)
			continue
		}
		live = append(live, r)
	}
	batch = live
	if len(batch) == 0 {
		return drained
	}
	s.ticks.Add(1)
	s.batched.Add(uint64(len(batch)))
	// Contiguous chunks, round-robin over workers: request order within a
	// chunk is pool (FIFO) order, so single-worker configurations preserve
	// submission order end to end.
	var wg sync.WaitGroup
	n := len(s.workers)
	per := (len(batch) + n - 1) / n
	for i := 0; i < len(batch); i += per {
		end := i + per
		if end > len(batch) {
			end = len(batch)
		}
		wg.Add(1)
		s.workers[(i/per)%n] <- chunk{reqs: batch[i:end], wg: &wg}
	}
	wg.Wait()
	return drained
}

// newExecutor hands out an executor of the backend with the service's
// feed, if any, attached: a worker's, or one of a Node's replay executors.
func (s *Service) newExecutor() kv.Executor {
	ex := s.be.NewExecutor()
	// A feed taps the commit order of the store's own executors (nothing
	// else draws a core commit ticket); NewNode attaches one to no other
	// backend.
	if tap, ok := ex.(interface{ SetChangeFeed(*cdc.Feed) bool }); ok && s.cfg.feed != nil {
		tap.SetChangeFeed(s.cfg.feed)
	}
	return ex
}

// worker executes chunks: one executor, each request its own transaction
// and its own commit.
func (s *Service) worker(ch chan chunk) {
	defer s.workWG.Done()
	ex := s.newExecutor()
	var errs []error
	var live []*request
	for c := range ch {
		// Last deadline check, immediately before execution: a request can
		// expire between the tick drain and its worker slot, and once the
		// transaction starts it is not cancellable — this is the final
		// point where "expired" can still mean "never executed".
		now := time.Now()
		live = live[:0]
		for _, r := range c.reqs {
			if r.expired(now) {
				s.finishExpired(r)
				continue
			}
			live = append(live, r)
		}
		if len(live) == 0 {
			c.wg.Done()
			continue
		}
		if cap(errs) < len(live) {
			errs = make([]error, len(live))
		}
		errs = errs[:len(live)]
		for i, r := range live {
			errs[i] = ex.ExecBatch(r.ops, r.res)
		}
		// Answered once the whole chunk has run. Settling inside the loop
		// above (ROADMAP 1b) read +36% throughput and +15% heap_peak_mb on
		// svc-saturate, bound 17% — and there the heap follows the throughput:
		// the mix's puts insert absent keys, so the live heap, and with it the
		// collector's goal, grows with every transaction served
		// (EXPERIMENTS.md "What the ruler cannot show").
		for i, r := range live {
			s.finishExecuted(r, errs[i])
		}
		c.wg.Done()
	}
}

// RetryAfter is how long an overloaded client should wait before
// retrying: one tick, at most a second. A tick drains up to PoolSize
// requests, so the next tick empties a full pool. The HTTP layer sends it
// with every 429 so clients wait for that drain instead of guessing.
func (s *Service) RetryAfter() time.Duration { return min(s.cfg.Tick, time.Second) }

// Close drains the pipeline and stops the backend. The drain is
// deterministic: every request admitted before Close executes and gets
// an answer (or kv.ErrExpired at its deadline), and every Submit after it
// gets ErrClosed — the mu write lock below cannot be taken while any
// Submit sits between its closed check and its pool send, so once it is
// held the pool holds the complete set of outstanding requests and the
// tick loop's final drains answer all of them.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stopCh)
	s.loopWG.Wait()
	s.workWG.Wait()
	if s.stopBE != nil {
		s.stopBE()
	}
	if s.cfg.feed != nil {
		// Wake watch streamers so their handlers can return.
		s.cfg.feed.Close()
	}
}

// MetricsSnapshot exports the pipeline counters, prefixed svc_, merged
// with the backend's own snapshot when it exports one — one endpoint
// serves the whole stack's counters.
func (s *Service) MetricsSnapshot() []obs.Metric {
	out := []obs.Metric{
		{Name: "svc_accepted", Value: s.accepted.Load()},
		{Name: "svc_shed", Value: s.shed.Load()},
		{Name: "svc_executed", Value: s.executed.Load()},
		{Name: "svc_errors", Value: s.errored.Load()},
		{Name: "svc_expired", Value: s.expired.Load()},
		{Name: "svc_dedup_hits", Value: s.dedupHits.Load()},
		{Name: "svc_ticks", Value: s.ticks.Load()},
		{Name: "svc_batched_txns", Value: s.batched.Load()},
		{Name: "svc_dedup_claims", Value: s.window.claims.Load()},
		{Name: "svc_dedup_window_hits", Value: s.window.hits.Load()},
		{Name: "svc_dedup_abandons", Value: s.window.abandons.Load()},
		{Name: "svc_dedup_evictions", Value: s.window.evictions.Load()},
		{Name: "svc_dedup_completes", Value: s.window.completes.Load()},
	}
	if ms, ok := s.be.(obs.MetricsSnapshotter); ok {
		out = append(out, ms.MetricsSnapshot()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Gauges derives the service-level ratios from the current counters.
func (s *Service) Gauges() []obs.Gauge {
	accepted, shed := s.accepted.Load(), s.shed.Load()
	out := obs.AppendRatio(nil, "svc_shed_rate", shed, accepted+shed)
	out = obs.AppendRatio(out, "svc_batch_coalesce", s.batched.Load(), s.ticks.Load())
	out = obs.AppendRatio(out, "svc_expired_share", s.expired.Load(),
		s.executed.Load()+s.errored.Load()+s.expired.Load())
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// validateOps rejects batches the executor cannot run: empty, oversized,
// or containing unknown kinds. Validation happens before admission so a
// malformed request never occupies pool capacity.
func validateOps(ops []kv.Op) error {
	if len(ops) == 0 {
		return fmt.Errorf("empty batch")
	}
	if len(ops) > MaxOpsPerBatch {
		return fmt.Errorf("batch of %d ops exceeds limit %d", len(ops), MaxOpsPerBatch)
	}
	for i, op := range ops {
		switch op.Kind {
		case kv.OpGet, kv.OpPut, kv.OpDelete, kv.OpScan, kv.OpAdd:
		default:
			return fmt.Errorf("op %d: unknown kind %d", i, op.Kind)
		}
	}
	return nil
}

// MaxOpsPerBatch bounds one request's operation count (after transfer
// expansion). Transactions are meant to be short (the paper's
// microbenchmarks run 1-10 ops); the bound keeps one request from
// monopolizing a tick.
const MaxOpsPerBatch = 1024
