package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"medley/internal/harness"
	"medley/internal/kv"
)

// kvBackend builds a real registry system as a service backend.
func kvBackend(t *testing.T, spec string) Backend {
	t.Helper()
	sys, err := harness.NewSystem(spec, harness.SystemOpts{Buckets: 1 << 10, KeyRange: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	be, ok := sys.(Backend)
	if !ok {
		t.Fatalf("system %q is not a service backend", spec)
	}
	return be
}

func postBatch(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestHTTPTransferAtomicity is the wire-level torn-transfer check: writer
// clients move money between two accounts with the transfer verb while
// reader clients fetch both balances in one transaction through the HTTP
// driver. Every observed sum must equal the initial total — a single
// deviation means a reader saw a half-applied transfer through the full
// network path (JSON decode, txpool, tick batch, executor).
func TestHTTPTransferAtomicity(t *testing.T) {
	_, ts := startNode(t, NodeConfig{Service: Config{Workers: 4}})

	const keyA, keyB, initial = 100, 200, 10000
	resp, body := postBatch(t, ts.URL,
		`{"ops":[{"op":"put","key":100,"val":10000},{"op":"put","key":200,"val":10000}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("preload: status %d: %s", resp.StatusCode, body)
	}

	const writers, transfers = 4, 200
	var writerWG, readerWG sync.WaitGroup
	errCh := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < transfers; i++ {
				req := `{"ops":[{"op":"transfer","from":100,"to":200,"val":3}]}`
				if (w+i)%2 == 1 {
					req = `{"ops":[{"op":"transfer","from":200,"to":100,"val":3}]}`
				}
				resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(req))
				if err != nil {
					errCh <- err
					return
				}
				var br BatchResponse
				err = json.NewDecoder(resp.Body).Decode(&br)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil {
					continue // shed under load is fine; atomicity is the readers' claim
				}
				if len(br.Results) != 1 || !br.Results[0].Ok {
					t.Errorf("transfer on existing keys not ok: %+v", br.Results)
					return
				}
			}
		}(w)
	}

	stop := make(chan struct{})
	d := NewHTTPDriver(ts.URL)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			sess, err := d.NewSession()
			if err != nil {
				errCh <- err
				return
			}
			defer sess.Close()
			ops := []kv.Op{{Kind: kv.OpGet, Key: keyA}, {Kind: kv.OpGet, Key: keyB}}
			res := make([]kv.Result, 2)
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch err := sess.Do(ops, res); err {
				case nil:
					if sum := res[0].Val + res[1].Val; sum != 2*initial {
						t.Errorf("torn transfer observed: %d + %d = %d, want %d",
							res[0].Val, res[1].Val, sum, 2*initial)
						return
					}
				case kv.ErrOverload:
					// shed read: retry
				default:
					errCh <- err
					return
				}
			}
		}()
	}

	// Readers observe throughout the writer run, then stop.
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("transport failure: %v", err)
	}
}

// TestHTTPShedMapsTo429AndErrOverload pins the overload path across the
// wire: a full txpool answers 429, and the HTTP driver maps 429 back to
// kv.ErrOverload so open-loop accounting classifies it as shed.
func TestHTTPShedMapsTo429AndErrOverload(t *testing.T) {
	n, ts := startNode(t, NodeConfig{Backend: &fakeBackend{},
		Service: Config{PoolSize: 1, Tick: time.Hour, Workers: 1}})
	s := n.Service()

	// Occupy the only pool slot directly (white-box) so the next wire
	// request must shed.
	blocker := &request{ops: oneOp(1), done: make(chan error, 1)}
	s.pool <- blocker

	resp, body := postBatch(t, ts.URL, `{"ops":[{"op":"get","key":7}]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (%s)", resp.StatusCode, body)
	}
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("429 body not an ErrorResponse: %q", body)
	}

	d := NewHTTPDriver(ts.URL)
	sess, err := d.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Do([]kv.Op{{Kind: kv.OpGet, Key: 7}}, nil); err != kv.ErrOverload {
		t.Fatalf("driver err = %v, want kv.ErrOverload", err)
	}
	s.Close() // drains the blocker
	if err := <-blocker.done; err != nil {
		t.Fatalf("blocker lost: %v", err)
	}
}

// TestShedCarriesRetryAfter pins the server half of the backoff hint:
// every 429 carries a Retry-After header of one tick, capped — fractional
// seconds, at most a second.
func TestShedCarriesRetryAfter(t *testing.T) {
	n, ts := startNode(t, NodeConfig{Backend: &fakeBackend{},
		Service: Config{PoolSize: 1, Tick: time.Hour, Workers: 1}})
	s := n.Service()

	blocker := &request{ops: oneOp(1), done: make(chan error, 1)}
	s.pool <- blocker

	resp, body := postBatch(t, ts.URL, `{"ops":[{"op":"get","key":7}]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (%s)", resp.StatusCode, body)
	}
	h := resp.Header.Get("Retry-After")
	if h == "" {
		t.Fatal("429 without Retry-After header")
	}
	secs, err := strconv.ParseFloat(h, 64)
	if err != nil {
		t.Fatalf("Retry-After %q not fractional seconds: %v", h, err)
	}
	if secs <= 0 || secs > 1 {
		t.Errorf("Retry-After = %vs, want in (0, 1]", secs)
	}
	s.Close()
	<-blocker.done
}

// TestHTTPDriverHonorsRetryAfter pins the client half: a 429 with a
// Retry-After hint is retried after the advertised wait, a persistent
// 429 keeps getting honored until the cumulative waits exhaust
// retryAfterBudget and then classifies as kv.ErrOverload, and a
// 429 without the hint sheds immediately.
func TestHTTPDriverHonorsRetryAfter(t *testing.T) {
	var attempts atomic.Int64
	shed := func(w http.ResponseWriter, hint string) {
		if hint != "" {
			w.Header().Set("Retry-After", hint)
		}
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(`{"error":"overloaded"}`))
	}
	mode := "recover" // recover | always | bare
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := attempts.Add(1)
		switch {
		case mode == "recover" && n > 1:
			_, _ = w.Write([]byte(`{"results":[{"val":7,"ok":true}]}`))
		case mode == "bare":
			shed(w, "")
		default:
			shed(w, "0.4")
		}
	}))
	defer ts.Close()

	// The 1s budget with 0.4s hints: two honored waits fit, the third
	// (cumulative 1.2s) would not.
	sess := &httpSession{d: NewHTTPDriver(ts.URL)}
	ops := []kv.Op{{Kind: kv.OpGet, Key: 7}}

	res := make([]kv.Result, 1)
	start := time.Now()
	if err := sess.Do(ops, res); err != nil {
		t.Fatalf("recovering server: err = %v, want nil after one retry", err)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("recovering server: %d attempts, want 2", got)
	}
	if elapsed := time.Since(start); elapsed < 400*time.Millisecond {
		t.Errorf("retried after %v, want >= the 0.4s Retry-After hint", elapsed)
	}
	if res[0].Val != 7 || !res[0].Ok {
		t.Errorf("retried result = %+v, want {7 true}", res[0])
	}

	mode, _ = "always", attempts.Swap(0)
	start = time.Now()
	if err := sess.Do(ops, nil); err != kv.ErrOverload {
		t.Fatalf("persistent 429: err = %v, want kv.ErrOverload", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("persistent 429: %d attempts, want 3 (two 0.4s waits fit the 1s budget)", got)
	}
	if elapsed := time.Since(start); elapsed < 800*time.Millisecond {
		t.Errorf("persistent 429 shed after %v, want >= 0.8s of honored waits", elapsed)
	}
	if got := sess.d.Stats().RetryAfterWaits; got != 3 {
		t.Errorf("RetryAfterWaits = %d, want 3 (one recovery + two storm waits)", got)
	}

	mode, _ = "bare", attempts.Swap(0)
	if err := sess.Do(ops, nil); err != kv.ErrOverload {
		t.Fatalf("bare 429: err = %v, want kv.ErrOverload", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("bare 429: %d attempts, want 1 (no hint, no retry)", got)
	}
}

// TestHTTPValidation pins the 400 surface: malformed JSON, empty batches,
// unknown verbs, self-transfers and oversized batches are all refused
// before admission.
func TestHTTPValidation(t *testing.T) {
	n, ts := startNode(t, NodeConfig{Backend: &fakeBackend{}})

	var big strings.Builder
	big.WriteString(`{"ops":[`)
	for i := 0; i <= MaxOpsPerBatch/2; i++ {
		if i > 0 {
			big.WriteString(",")
		}
		big.WriteString(`{"op":"transfer","from":1,"to":2,"val":1}`)
	}
	big.WriteString(`]}`)

	cases := []struct {
		name, body string
	}{
		{"malformed", `{"ops":`},
		{"empty", `{"ops":[]}`},
		{"unknown-verb", `{"ops":[{"op":"increment","key":1}]}`},
		{"self-transfer", `{"ops":[{"op":"transfer","from":5,"to":5,"val":1}]}`},
		{"oversized", big.String()},
	}
	for _, tc := range cases {
		resp, body := postBatch(t, ts.URL, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", tc.name, resp.StatusCode, body)
		}
	}
	if got := n.Service().accepted.Load(); got != 0 {
		t.Errorf("invalid requests reached the pool: accepted = %d", got)
	}
}

// TestMetricsAndHealthz pins the observability surface's shape.
func TestMetricsAndHealthz(t *testing.T) {
	_, ts := startNode(t, NodeConfig{})

	if resp, body := postBatch(t, ts.URL, `{"ops":[{"op":"put","key":1,"val":9}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("put: status %d: %s", resp.StatusCode, body)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.System == "" || h.Shards != 2 || h.Role != RoleLeader || h.FeedShards != 2 {
		t.Errorf("healthz = %+v, want system name, 2 shards, role leader and 2 feed shards", h)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m metricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	counters := map[string]uint64{}
	for _, c := range m.Counters {
		counters[c.Name] = c.Value
	}
	if counters["svc_executed"] != 1 {
		t.Errorf("svc_executed = %d, want 1 (counters %v)", counters["svc_executed"], counters)
	}
	if _, ok := counters["tx_commits"]; !ok {
		t.Error("backend counters not merged into /metrics (no tx_commits)")
	}
}
