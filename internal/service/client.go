package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"medley/internal/kv"
)

// HTTPDriver implements the harness's Driver over the wire: the open-loop
// engine drives a medleyd server exactly as it drives an in-process
// store, so one report compares raw store latency against the full
// network pipeline. The server owns the backend's lifecycle; Start only
// verifies reachability and learns the system's identity from /healthz.
//
// The driver is fault-tolerant under one fixed policy (the constants
// below): every batch carries a request ID (the server's dedup window
// makes retries exactly-once), transport errors and 503s are retried
// with capped exponential backoff under a per-session retry budget, and
// a circuit breaker shared by all sessions opens after consecutive
// transport errors — failing fast until a healthz probe confirms the
// server is back. Stats is its one counter view.
type HTTPDriver struct {
	baseV  atomic.Value // string: current leader base URL (failover swaps it)
	cfg    HTTPDriverConfig
	client *http.Client
	system string
	shards int

	breaker breaker
	idBase  string        // per-driver prefix making request IDs unique
	idSeq   atomic.Uint64 // per-driver counter completing each ID

	foMu  sync.Mutex    // serializes failover probing
	rrSeq atomic.Uint64 // round-robins read requests over replicas

	retries    atomic.Uint64 // attempts beyond the first, all sessions
	inDoubt    atomic.Uint64 // requests whose execution is unknown
	expired    atomic.Uint64 // requests that expired client- or server-side
	raWaits    atomic.Uint64 // Retry-After drain hints honored
	staleReads atomic.Uint64 // replica reads refused as stale (fell back to leader)
	failovers  atomic.Uint64 // leader base swaps after failover probes
	recoveries atomic.Uint64 // failover sweeps resolved by the current base leading again
}

// baseURL is the current leader base (failover may have swapped it).
func (d *HTTPDriver) baseURL() string { return d.baseV.Load().(string) }

// The driver's fault policy. A request is retried at most maxRetries
// times; the nth retry waits a full-jitter backoff of ~backoffBase·2ⁿ,
// capped at backoffCap. The breaker opens after breakerThreshold
// consecutive transport errors and fails fast for breakerCooldown before
// half-opening with a healthz probe. A request honors the server's
// Retry-After drain hints until their cumulative wait would pass
// retryAfterBudget, so a sustained 429 storm degrades into reported
// sheds instead of stalling the sender forever. Start polls /healthz for
// at most startTimeout: a server that never comes up is a configuration
// mistake to report, not a condition to poll forever.
const (
	maxRetries       = 3
	backoffBase      = 2 * time.Millisecond
	backoffCap       = 250 * time.Millisecond
	breakerThreshold = 8
	breakerCooldown  = 200 * time.Millisecond
	retryAfterBudget = time.Second
)

// startTimeout is a variable only so a test of the bound need not wait it out.
var startTimeout = 5 * time.Second

// HTTPDriverConfig is what a caller of the driver chooses; the zero
// value means no deadline, a 256-retry session budget and no replicas.
type HTTPDriverConfig struct {
	// Deadline, when positive, bounds each request end to end: the wire
	// request carries the remaining budget as deadline_ms, and the
	// client stops retrying (kv.ErrExpired) once it is spent.
	Deadline time.Duration
	// RetryBudget caps total retries per session across all requests, so
	// a dying server cannot multiply offered load. An open-loop sweep
	// keeps its sessions for every rate step, so the budget covers the
	// whole sweep. 0 means 256; negative is unlimited.
	RetryBudget int
	// Replicas lists follower base URLs. Read-only batches route to
	// replicas round-robin; a replica that answers 409 (stale), 503 (not
	// leader), or dies on the wire falls the same request back to the
	// leader. Replicas are also failover candidates: once the leader is
	// unreachable through all retries, the driver probes every known
	// endpoint's /healthz and adopts whichever now reports itself
	// leader.
	Replicas []string
}

// HTTPDriverStats is a snapshot of the driver's fault counters.
type HTTPDriverStats struct {
	Retries         uint64 // attempts beyond the first
	InDoubt         uint64 // requests whose execution is unknown
	Expired         uint64 // requests that ran out of deadline
	BreakerOpens    uint64 // closed→open transitions
	BreakerOpen     bool   // circuit currently open (failing fast)
	RetryAfterWaits uint64 // 429 drain hints honored
	StaleReads      uint64 // replica reads refused, fell back to leader
	Failovers       uint64 // leader base swaps after failover probes
	Recoveries      uint64 // sweeps resolved by the current base leading again
}

// NewHTTPDriver targets a running medleyd at base (e.g.
// "http://127.0.0.1:7654") with the zero HTTPDriverConfig.
func NewHTTPDriver(base string) *HTTPDriver {
	return NewHTTPDriverConfig(base, HTTPDriverConfig{})
}

// NewHTTPDriverConfig is NewHTTPDriver with the caller's choices.
func NewHTTPDriverConfig(base string, cfg HTTPDriverConfig) *HTTPDriver {
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = 256
	}
	d := &HTTPDriver{
		cfg: cfg,
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				// Open-loop senders each hold one connection; the defaults
				// (2 idle conns per host) would thrash the pool.
				MaxIdleConns:        1024,
				MaxIdleConnsPerHost: 1024,
			},
		},
		idBase: fmt.Sprintf("%08x", rand.Uint32()),
	}
	d.baseV.Store(base)
	d.breaker.probe = func() bool { return d.healthz() == nil }
	return d
}

// Kind implements Driver.
func (d *HTTPDriver) Kind() string { return "http" }

// System implements Driver; valid after Start.
func (d *HTTPDriver) System() string { return d.system }

// ShardCount reports the server's answer (the harness's ShardCounter).
func (d *HTTPDriver) ShardCount() int {
	if d.shards > 0 {
		return d.shards
	}
	return 1
}

// Stats snapshots the driver's fault counters across all sessions.
func (d *HTTPDriver) Stats() HTTPDriverStats {
	return HTTPDriverStats{
		Retries:         d.retries.Load(),
		InDoubt:         d.inDoubt.Load(),
		Expired:         d.expired.Load(),
		BreakerOpens:    d.breaker.opens.Load(),
		BreakerOpen:     d.breaker.isOpen(),
		RetryAfterWaits: d.raWaits.Load(),
		StaleReads:      d.staleReads.Load(),
		Failovers:       d.failovers.Load(),
		Recoveries:      d.recoveries.Load(),
	}
}

// getHealth is the one /healthz probe: the answer of the server at ep
// when it says it is up, else why not.
func (d *HTTPDriver) getHealth(ep string) (healthResponse, error) {
	var h healthResponse
	resp, err := d.client.Get(ep + "/healthz")
	if err != nil {
		return h, err
	}
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz: status %d, %v", resp.StatusCode, err)
	}
	return h, nil
}

// healthz runs one liveness probe against the current leader, recording
// the server identity on success.
func (d *HTTPDriver) healthz() error {
	h, err := d.getHealth(d.baseURL())
	if err == nil {
		d.system, d.shards = h.System, h.Shards
	}
	return err
}

// failover sweeps every known endpoint's /healthz for one now claiming
// leadership and swaps the driver's base to it. It reports whether a
// live leader was confirmed (current base recovering counts; only an
// actual swap increments the failover counter). Serialized so
// concurrent sessions discovering a dead leader share one sweep.
func (d *HTTPDriver) failover() bool {
	if len(d.cfg.Replicas) == 0 {
		return false
	}
	d.foMu.Lock()
	defer d.foMu.Unlock()
	cur := d.baseURL()
	eps := make([]string, 0, 1+len(d.cfg.Replicas))
	eps = append(eps, cur)
	eps = append(eps, d.cfg.Replicas...)
	for _, ep := range eps {
		h, err := d.getHealth(ep)
		if err != nil {
			continue
		}
		// Followers are skipped — they may be promoted any moment, but
		// routing writes at them now would only bounce off the not-leader
		// gate.
		if h.Role != RoleLeader {
			continue
		}
		d.system, d.shards = h.System, h.Shards
		if ep != cur {
			d.baseV.Store(ep)
			d.failovers.Add(1)
		} else {
			// The current base answers as leader again — either it
			// recovered, or a promoted node rebound its address before
			// this sweep ran. Leadership is confirmed without a swap.
			d.recoveries.Add(1)
		}
		d.breaker.reset()
		return true
	}
	return false
}

// Start implements Driver: polls /healthz until the server
// answers (it may still be starting), failing with the last probe error
// once startTimeout is spent.
func (d *HTTPDriver) Start() error {
	deadline := time.Now().Add(startTimeout)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("service: %s unreachable after %v: %w",
					d.baseURL(), startTimeout, lastErr)
			}
			time.Sleep(100 * time.Millisecond)
		}
		if lastErr = d.healthz(); lastErr == nil {
			return nil
		}
	}
}

// preloadChunk bounds one preload batch to the server's op limit.
const preloadChunk = 512

// Preload implements Driver: installs keys (key == value) with
// put batches through the ordinary wire path.
func (d *HTTPDriver) Preload(keys []uint64) error {
	sess := &httpSession{d: d} // zero retryBudget: preload is setup, unlimited
	ops := make([]kv.Op, 0, preloadChunk)
	for len(keys) > 0 {
		n := len(keys)
		if n > preloadChunk {
			n = preloadChunk
		}
		ops = ops[:0]
		for _, k := range keys[:n] {
			ops = append(ops, kv.Op{Kind: kv.OpPut, Key: k, Val: k})
		}
		keys = keys[n:]
		// A shed during preload is not overload to report — retry until
		// the batch lands.
		for {
			err := sess.Do(ops, nil)
			if err == nil {
				break
			}
			if errors.Is(err, kv.ErrOverload) {
				time.Sleep(time.Millisecond)
				continue
			}
			return err
		}
	}
	return nil
}

// NewSession implements Driver. The http.Client is shared
// (connection pooling is per-transport); the session carries only its
// encode buffer and retry budget.
func (d *HTTPDriver) NewSession() (kv.Session, error) {
	return &httpSession{d: d, retryBudget: d.cfg.RetryBudget}, nil
}

// Close implements Driver.
func (d *HTTPDriver) Close() error {
	d.client.CloseIdleConnections()
	return nil
}

// ErrCircuitOpen is returned without touching the network while the
// driver's circuit breaker is open: the server was unreachable on
// consecutive recent attempts and the cooldown's healthz probe has not
// yet confirmed recovery. The request was never sent.
var ErrCircuitOpen = errors.New("service: circuit breaker open")

type httpSession struct {
	d   *HTTPDriver
	buf bytes.Buffer
	// retryBudget caps retries across the session's lifetime when
	// positive; zero or negative is unlimited.
	retryBudget int
	retryUsed   int
	rng         rand.PCG
	rngSet      bool
}

// jitter returns a uniform duration in [0, max) from a session-local
// generator (the global one would serialize senders).
func (s *httpSession) jitter(max time.Duration) time.Duration {
	if !s.rngSet {
		s.rng = *rand.NewPCG(rand.Uint64(), rand.Uint64())
		s.rngSet = true
	}
	if max <= 0 {
		return 0
	}
	return time.Duration(s.rng.Uint64() % uint64(max))
}

// backoff returns the full-jitter backoff before retry n (0-based):
// uniform in (0, min(base·2ⁿ, cap)].
func (s *httpSession) backoff(n int) time.Duration {
	d := backoffBase << uint(n)
	if d <= 0 || d > backoffCap {
		d = backoffCap
	}
	return s.jitter(d) + time.Millisecond/4
}

// Do implements kv.Session: one POST /v1/batch per
// transaction, retried under the driver's fault policy. Every request
// carries a fresh ID, and every retry reuses it, so a server with a
// dedup window executes the batch at most once no matter how many
// attempts the network eats.
//
// Outcome classification, in the order the loop settles it:
//
//   - 200 → nil (definitive; a dedup replay is indistinguishable by design)
//   - 429 → kv.ErrOverload once cumulative honored Retry-After waits
//     exceed retryAfterBudget (hints pace the sender, they are not retries)
//   - 504 → kv.ErrExpired (server never executed it)
//   - client-side deadline spent → kv.ErrExpired
//   - 4xx → permanent error, no retry (except 409 staleness, retryable)
//   - transport error, 503 → retry with backoff while attempts and budget
//     last; if the leader stays transport-dead and Replicas are known, one
//     failover probe may swap the base and restart the attempt allowance
//
// Read-only batches route to a configured replica first; any replica
// failure (staleness 409, not-leader 503, transport) falls the same
// request back to the leader without burning a retry.
//
// Any terminal error after a transport-errored attempt is wrapped in
// kv.ErrInDoubt: the dead attempt may have executed. Only a
// 200 clears the doubt — success means the batch's effects are in
// (directly, or replayed out of the dedup window). Non-200 answers
// speak for their own attempt only: after a server restart the dedup
// window is empty, so a 429/503/504 on a retry cannot prove the dead
// original never ran.
func (s *httpSession) Do(ops []kv.Op, res []kv.Result) error {
	wire, err := encodeOps(ops)
	if err != nil {
		return err
	}
	req := BatchRequest{Ops: wire}
	req.ID = s.d.idBase + "-" + strconv.FormatUint(s.d.idSeq.Add(1), 36)

	var deadline time.Time
	if s.d.cfg.Deadline > 0 {
		deadline = time.Now().Add(s.d.cfg.Deadline)
	}

	inDoubt := false // a dead attempt may have executed
	fail := func(err error) error {
		if inDoubt {
			s.d.inDoubt.Add(1)
			return fmt.Errorf("%w: %w", kv.ErrInDoubt, err)
		}
		return err
	}

	// Read-only batches may route to a replica; target "" means the
	// current leader (resolved per attempt, so failover swaps apply).
	target := ""
	if reps := s.d.cfg.Replicas; len(reps) > 0 {
		readOnly := true
		for i := range ops {
			if ops[i].Kind != kv.OpGet && ops[i].Kind != kv.OpScan {
				readOnly = false
				break
			}
		}
		if readOnly {
			target = reps[int(s.d.rrSeq.Add(1)%uint64(len(reps)))]
		}
	}

	var raUsed time.Duration // cumulative honored Retry-After waits
	failedOver := false
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if attempt > maxRetries ||
				(s.retryBudget > 0 && s.retryUsed >= s.retryBudget) {
				// Out of attempts against this leader. If it looks gone —
				// transport-dead, breaker open, or answering 503 (which is
				// what a follower REBOUND ON THE OLD LEADER'S ADDRESS says
				// to writes) — and other endpoints are known, one failover
				// sweep may find a promoted leader; adopting it restarts
				// the attempt allowance — at most once per request.
				if !failedOver &&
					(errors.Is(lastErr, errTransport) || errors.Is(lastErr, ErrCircuitOpen) ||
						errors.Is(lastErr, errRetryable)) &&
					s.d.failover() {
					failedOver = true
					attempt = 0
				} else {
					return fail(lastErr)
				}
			} else {
				s.retryUsed++
				s.d.retries.Add(1)
				time.Sleep(s.backoff(attempt - 1))
			}
		}
		if !deadline.IsZero() {
			remaining := time.Until(deadline)
			if remaining <= 0 {
				s.d.expired.Add(1)
				return fail(kv.ErrExpired)
			}
			req.DeadlineMs = int64(remaining / time.Millisecond)
			if req.DeadlineMs == 0 {
				req.DeadlineMs = 1
			}
		}
		// The breaker tracks the leader only; replica attempts bypass it.
		if target == "" && !s.d.breaker.allow() {
			lastErr = ErrCircuitOpen
			continue
		}
		s.buf.Reset()
		if err := json.NewEncoder(&s.buf).Encode(req); err != nil {
			return err
		}
		wait, err := s.post(target, s.buf.Bytes(), res)
		if target != "" && err != nil {
			// The replica refused (stale, not leader) or died: fall the
			// same request back to the leader without burning a retry.
			// Reads have no effects, so a dead replica attempt raises no
			// doubt.
			if errors.Is(err, errStale) || errors.Is(err, errRetryable) {
				s.d.staleReads.Add(1)
			}
			target = ""
			lastErr = err
			attempt--
			continue
		}
		switch {
		case err == nil:
			// Definitive: executed (a dedup replay of a dead attempt is
			// indistinguishable from first execution by design).
			return nil
		case errors.Is(err, errTransport):
			// The request may have executed and the answer died on the
			// wire; only a later definitive server answer can tell.
			inDoubt = true
			lastErr = err
			continue
		case errors.Is(err, kv.ErrOverload):
			// The server shed this attempt at admission. Honor drain
			// hints until their cumulative wait exhausts retryAfterBudget,
			// then report the shed: sheds are backpressure working, not
			// faults, so honored waits pace the sender without counting
			// as retries. The budget cap means a sustained storm degrades
			// into reported sheds rather than stalling the sender
			// forever. Doubt from an earlier dead attempt is NOT cleared:
			// a shed answers for this attempt only (after a restart the
			// dedup window is empty, so it says nothing about whether the
			// original executed).
			if wait > 0 && raUsed+wait <= retryAfterBudget {
				raUsed += wait
				s.d.raWaits.Add(1)
				time.Sleep(wait)
				lastErr = err
				attempt-- // server-paced waits are not retries
				continue
			}
			return fail(err)
		case errors.Is(err, errStale):
			// 409 from the leader itself (a freshly promoted follower
			// still settling): definitive not-executed, worth retrying.
			lastErr = err
			continue
		case errors.Is(err, kv.ErrExpired):
			// 504: the server guarantees this attempt never executed.
			s.d.expired.Add(1)
			return fail(err)
		case errors.Is(err, errRetryable):
			// 503: the service is draining for shutdown/restart — this
			// attempt was not executed, worth retrying into the restart.
			lastErr = err
			continue
		default:
			// Server rejection (4xx, decode mismatch) — definitive for
			// this attempt; still in doubt if an earlier attempt died.
			return fail(err)
		}
	}
}

// errTransport tags errors where no server answer arrived; errRetryable
// tags definitive not-executed answers worth retrying (503); errStale
// tags 409 answers (a replica behind its staleness bound, or a node
// still settling a role change).
var (
	errTransport = errors.New("service: transport error")
	errRetryable = errors.New("service: transient server error")
	errStale     = errors.New("service: replica not fresh")
)

// post runs one POST /v1/batch attempt against target ("" = current
// leader). A 429 returns kv.ErrOverload along with the server's
// Retry-After hint (0 when absent or unusable). Only leader attempts
// feed the circuit breaker — a dead replica must not fail-fast writes.
func (s *httpSession) post(target string, payload []byte, res []kv.Result) (time.Duration, error) {
	leaderward := target == ""
	if leaderward {
		target = s.d.baseURL()
	}
	resp, err := s.d.client.Post(target+"/v1/batch", "application/json", bytes.NewReader(payload))
	if leaderward {
		s.d.breaker.observe(err == nil)
	}
	if err != nil {
		return 0, fmt.Errorf("%w: %w", errTransport, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		_, _ = io.Copy(io.Discard, resp.Body)
		return retryAfterDelay(resp.Header.Get("Retry-After")), kv.ErrOverload
	case http.StatusConflict:
		_, _ = io.Copy(io.Discard, resp.Body)
		return retryAfterDelay(resp.Header.Get("Retry-After")), errStale
	case http.StatusGatewayTimeout:
		_, _ = io.Copy(io.Discard, resp.Body)
		return 0, kv.ErrExpired
	case http.StatusServiceUnavailable:
		_, _ = io.Copy(io.Discard, resp.Body)
		return 0, fmt.Errorf("%w: status 503", errRetryable)
	default:
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return 0, fmt.Errorf("service: batch failed: status %d: %s", resp.StatusCode, e.Error)
	}
	if res == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return 0, nil
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		// The transaction committed server-side; only the answer died.
		return 0, fmt.Errorf("%w: reading response: %w", errTransport, err)
	}
	if len(br.Results) != len(res) {
		return 0, fmt.Errorf("service: %d results for %d ops", len(br.Results), len(res))
	}
	for i, r := range br.Results {
		res[i] = kv.Result{Val: r.Val, Ok: r.Ok}
	}
	return 0, nil
}

// retryAfterDelay parses a Retry-After header as (possibly fractional)
// seconds, clamped to at most a second so a confused server cannot stall
// a sender. 0 means absent or unusable: classify the shed immediately.
func retryAfterDelay(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.ParseFloat(h, 64)
	if err != nil || secs <= 0 {
		return 0
	}
	d := time.Duration(secs * float64(time.Second))
	if d > time.Second {
		d = time.Second
	}
	return d
}

func (s *httpSession) Close() error { return nil }

// breaker is the driver-wide circuit breaker. Closed, it only counts
// consecutive transport failures; at breakerThreshold it opens and every
// session fails fast (no network) for breakerCooldown, after which exactly one
// caller per cooldown half-opens the circuit by probing healthz —
// success closes it, failure re-arms the cooldown. Sharing one breaker
// across sessions means one recovered probe re-admits the whole fleet
// at once instead of each sender rediscovering the server.
type breaker struct {
	probe func() bool

	mu         sync.Mutex
	open       bool
	downconsec int
	until      time.Time // while open: next probe time

	opens atomic.Uint64
}

// allow reports whether a request may go to the network now, running the
// half-open probe when the cooldown has elapsed.
func (b *breaker) allow() bool {
	b.mu.Lock()
	if !b.open {
		b.mu.Unlock()
		return true
	}
	if time.Now().Before(b.until) {
		b.mu.Unlock()
		return false
	}
	// Claim the probe slot before unlocking so concurrent callers fail
	// fast instead of stampeding healthz.
	b.until = time.Now().Add(breakerCooldown)
	b.mu.Unlock()
	if b.probe() {
		b.mu.Lock()
		b.open = false
		b.downconsec = 0
		b.mu.Unlock()
		return true
	}
	return false
}

// isOpen reports whether the circuit is currently failing fast.
func (b *breaker) isOpen() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}

// reset force-closes the breaker — failover adopted a new leader, so
// the consecutive-failure history belongs to the dead one.
func (b *breaker) reset() {
	b.mu.Lock()
	b.open = false
	b.downconsec = 0
	b.mu.Unlock()
}

// observe records one network attempt's fate (ok = any HTTP answer
// arrived; status codes are the server being alive).
func (b *breaker) observe(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.downconsec = 0
		b.open = false
		return
	}
	b.downconsec++
	if !b.open && b.downconsec >= breakerThreshold {
		b.open = true
		b.until = time.Now().Add(breakerCooldown)
		b.opens.Add(1)
	}
}
