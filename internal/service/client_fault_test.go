package service

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"medley/internal/faultnet"
	"medley/internal/kv"
)

// hijackKill yanks the connection under a response and closes it with
// RST: the client sees a transport error with no server answer — the
// "executed but the answer died" shape the retry machinery exists for.
func hijackKill(w http.ResponseWriter, r *http.Request) {
	_, _ = io.Copy(io.Discard, r.Body)
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic("test server not hijackable")
	}
	conn, _, err := hj.Hijack()
	if err != nil {
		return
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	conn.Close()
}

// TestHTTPDriverRetriesTransportWithSameID pins the retry loop: transport
// errors are retried under maxRetries with the SAME request ID on every
// attempt (the ID is what makes the server-side dedup window able to
// answer the retry), and the eventual success returns decoded results.
func TestHTTPDriverRetriesTransportWithSameID(t *testing.T) {
	var attempts atomic.Int64
	var mu sync.Mutex
	var ids []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		if err := readBatch(r, &req); err != nil {
			t.Errorf("decode: %v", err)
			return
		}
		mu.Lock()
		ids = append(ids, req.ID)
		mu.Unlock()
		if attempts.Add(1) <= 2 {
			hijackKill(w, r)
			return
		}
		_, _ = w.Write([]byte(`{"results":[{"val":7,"ok":true}]}`))
	}))
	defer ts.Close()

	d := NewHTTPDriver(ts.URL)
	sess, err := d.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	res := make([]kv.Result, 1)
	if err := sess.Do([]kv.Op{{Kind: kv.OpGet, Key: 7}}, res); err != nil {
		t.Fatalf("err = %v, want nil after retries", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("%d attempts, want 3", got)
	}
	if got := d.Stats().Retries; got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	if res[0].Val != 7 || !res[0].Ok {
		t.Errorf("result = %+v, want {7 true}", res[0])
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ids) != 3 || ids[0] == "" || len(ids[0]) > MaxRequestID {
		t.Fatalf("ids = %q, want 3 non-empty bounded ids", ids)
	}
	if ids[1] != ids[0] || ids[2] != ids[0] {
		t.Errorf("retries changed the request ID: %q", ids)
	}
}

func readBatch(r *http.Request, req *BatchRequest) error {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, req)
}

// TestHTTPDriverInDoubtAfterTransportExhaustion pins the in-doubt
// classification: when every attempt dies on the wire, the final error
// must say so — the request may have executed, and verifiers need to
// taint its keys rather than assume either outcome.
func TestHTTPDriverInDoubtAfterTransportExhaustion(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(hijackKill))
	defer ts.Close()

	d := NewHTTPDriver(ts.URL)
	sess, _ := d.NewSession()
	err := sess.Do([]kv.Op{{Kind: kv.OpPut, Key: 1, Val: 1}}, nil)
	if err == nil {
		t.Fatal("want error from a server that never answers")
	}
	if !IsInDoubt(err) {
		t.Fatalf("err = %v, want in-doubt", err)
	}
	if !errors.Is(err, errTransport) {
		t.Fatalf("err = %v, want wrapped transport cause", err)
	}
	st := d.Stats()
	if st.InDoubt != 1 || st.Retries != maxRetries {
		t.Errorf("stats = %+v, want 1 in-doubt, %d retries", st, maxRetries)
	}
}

// TestHTTPDriverDeadlineStopsRetrying pins the client-side deadline: a
// server that holds each attempt past the deadline before killing the
// connection leaves retries to spare, yet the request stops at the
// configured deadline with kv.ErrExpired, and the outcome stays in
// doubt (attempts did reach the network).
func TestHTTPDriverDeadlineStopsRetrying(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(60 * time.Millisecond)
		hijackKill(w, r)
	}))
	defer ts.Close()

	d := NewHTTPDriverConfig(ts.URL, HTTPDriverConfig{Deadline: 50 * time.Millisecond, RetryBudget: -1})
	sess, _ := d.NewSession()
	start := time.Now()
	err := sess.Do([]kv.Op{{Kind: kv.OpGet, Key: 1}}, nil)
	if !errors.Is(err, kv.ErrExpired) {
		t.Fatalf("err = %v, want kv.ErrExpired", err)
	}
	if !IsInDoubt(err) {
		t.Fatalf("err = %v, want in-doubt (attempts reached the wire)", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline honored after %v, want ~50ms", elapsed)
	}
	if st := d.Stats(); st.Expired != 1 || st.Retries >= maxRetries {
		t.Errorf("stats = %+v, want 1 expired with retries to spare", st)
	}
}

// TestHTTPDriverBreakerOpensAndRecovers pins the breaker state machine:
// consecutive transport errors open it (each request makes 1+maxRetries
// attempts), an open breaker fails fast without touching the network,
// and after the cooldown a healthz probe on a recovered server closes it
// again. Stats reports the state throughout.
func TestHTTPDriverBreakerOpensAndRecovers(t *testing.T) {
	var down atomic.Bool
	down.Store(true)
	var batchAttempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			hijackKill(w, r)
			return
		}
		switch r.URL.Path {
		case "/healthz":
			_, _ = w.Write([]byte(`{"system":"fake","shards":1}`))
		default:
			batchAttempts.Add(1)
			_, _ = w.Write([]byte(`{"results":[{"val":1,"ok":true}]}`))
		}
	}))
	defer ts.Close()

	d := NewHTTPDriver(ts.URL)
	sess, _ := d.NewSession()
	ops := []kv.Op{{Kind: kv.OpGet, Key: 1}}

	if d.Stats().BreakerOpen {
		t.Fatal("fresh driver reports an open breaker")
	}
	for i := 0; i < breakerThreshold/(1+maxRetries); i++ {
		if err := sess.Do(ops, nil); err == nil || errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("request %d: err = %v, want a transport error before the breaker opens", i, err)
		}
	}
	if st := d.Stats(); st.BreakerOpens != 1 || !st.BreakerOpen {
		t.Fatalf("stats = %+v, want the breaker opened once and open after threshold", st)
	}

	if err := sess.Do(ops, nil); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker: err = %v, want ErrCircuitOpen", err)
	}

	down.Store(false)
	time.Sleep(breakerCooldown + 10*time.Millisecond) // past the cooldown: next attempt probes
	res := make([]kv.Result, 1)
	if err := sess.Do(ops, res); err != nil {
		t.Fatalf("recovered server: err = %v, want nil (probe should close the breaker)", err)
	}
	if got := batchAttempts.Load(); got != 1 {
		t.Errorf("batch attempts while open/recovered = %d, want 1 (open breaker must not touch the network)", got)
	}
	if st := d.Stats(); st.BreakerOpens != 1 || st.BreakerOpen {
		t.Errorf("stats = %+v, want still 1 open and the breaker closed", st)
	}
}

// TestHTTPDriverStartBounded pins the Start contract: Start against a
// dead address fails within startTimeout with an error that names the
// unreachable base URL instead of polling forever.
func TestHTTPDriverStartBounded(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here anymore

	defer func(was time.Duration) { startTimeout = was }(startTimeout)
	startTimeout = 200 * time.Millisecond
	d := NewHTTPDriver("http://" + addr)
	start := time.Now()
	err = d.Start()
	if err == nil {
		t.Fatal("Start succeeded against a dead address")
	}
	if !strings.Contains(err.Error(), "unreachable") || !strings.Contains(err.Error(), addr) {
		t.Errorf("err = %v, want the unreachable address named", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("Start took %v, want bounded by the 200ms startTimeout", elapsed)
	}
}

// TestRetryExactlyOnceWithDedupWindow is the seeded fault the dedup
// window exists for: a real store behind the HTTP server, reached through
// a faultnet proxy armed to eat exactly one response — the canonical
// "transfer executed, answer died" fault. The client retries with the same
// ID and the window answers the retry, so the money moves exactly once
// instead of twice.
func TestRetryExactlyOnceWithDedupWindow(t *testing.T) {
	_, ts := startNode(t, NodeConfig{})

	proxy, err := faultnet.New("127.0.0.1:0", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// Seed and final reads bypass the proxy: only the transfer is faulted.
	direct := NewHTTPDriver(ts.URL)
	dsess, err := direct.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	seed := []kv.Op{
		{Kind: kv.OpPut, Key: 1, Val: 1000},
		{Kind: kv.OpPut, Key: 2, Val: 1000},
	}
	if err := dsess.Do(seed, nil); err != nil {
		t.Fatal(err)
	}

	d := NewHTTPDriver("http://" + proxy.Addr())
	sess, err := d.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	proxy.ResetNextResponses(1) // the transfer's first answer dies on the wire

	amt := uint64(100)
	transfer := []kv.Op{
		{Kind: kv.OpAdd, Key: 1, Val: -amt},
		{Kind: kv.OpAdd, Key: 2, Val: amt},
	}
	if err := sess.Do(transfer, nil); err != nil {
		t.Fatalf("transfer through fault: %v", err)
	}

	res := make([]kv.Result, 2)
	if err := dsess.Do([]kv.Op{{Kind: kv.OpGet, Key: 1}, {Kind: kv.OpGet, Key: 2}}, res); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Retries == 0 {
		t.Fatal("injected fault never fired: no retry happened")
	}
	if res[0].Val != 900 || res[1].Val != 1100 {
		t.Fatalf("balances = %d/%d, want 900/1100 (exactly-once across the retry)", res[0].Val, res[1].Val)
	}
}
