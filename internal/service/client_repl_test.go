package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"medley/internal/kv"
)

// These tests pin the driver's replica awareness with scripted
// endpoints: read routing, fallback-to-leader, and leader failover.
// (End-to-end routing against real nodes is exercised by the replica
// chaos harness.)

// scriptedEndpoint is a minimal medleyd stand-in: /healthz reports a
// settable role, /v1/batch runs the supplied handler and counts calls.
type scriptedEndpoint struct {
	ts      *httptest.Server
	role    atomic.Value // string
	batches atomic.Int64
}

func newScriptedEndpoint(t *testing.T, role string, batch http.HandlerFunc) *scriptedEndpoint {
	t.Helper()
	e := &scriptedEndpoint{}
	e.role.Store(role)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, healthResponse{
			System: "scripted", Shards: 1, Role: e.role.Load().(string),
		})
	})
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		e.batches.Add(1)
		batch(w, r)
	})
	e.ts = httptest.NewServer(mux)
	t.Cleanup(e.ts.Close)
	return e
}

func okBatch(results string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"results":` + results + `}`))
	}
}

func TestHTTPDriverRoutesReadsToReplica(t *testing.T) {
	leader := newScriptedEndpoint(t, RoleLeader, okBatch(`[{"val":0,"ok":true}]`))
	rep := newScriptedEndpoint(t, RoleFollower, okBatch(`[{"val":42,"ok":true}]`))
	d := NewHTTPDriverConfig(leader.ts.URL, HTTPDriverConfig{Replicas: []string{rep.ts.URL}})
	sess := &httpSession{d: d}

	// A read-only batch lands on the replica.
	res := make([]kv.Result, 1)
	if err := sess.Do([]kv.Op{{Kind: kv.OpGet, Key: 1}}, res); err != nil {
		t.Fatalf("replica read: %v", err)
	}
	if res[0].Val != 42 {
		t.Fatalf("read answered by wrong endpoint: %+v", res[0])
	}
	if got := rep.batches.Load(); got != 1 {
		t.Fatalf("replica batches = %d, want 1", got)
	}
	if got := leader.batches.Load(); got != 0 {
		t.Fatalf("leader batches = %d, want 0 (read should route to replica)", got)
	}

	// A batch with any write goes to the leader.
	if err := sess.Do([]kv.Op{{Kind: kv.OpPut, Key: 1, Val: 2}}, res); err != nil {
		t.Fatalf("leader write: %v", err)
	}
	if got := leader.batches.Load(); got != 1 {
		t.Fatalf("leader batches = %d, want 1 after a write", got)
	}
	if got := rep.batches.Load(); got != 1 {
		t.Fatalf("replica batches = %d, want 1 (writes never route to replicas)", got)
	}
}

func TestHTTPDriverReplicaStaleFallsBackToLeader(t *testing.T) {
	leader := newScriptedEndpoint(t, RoleLeader, okBatch(`[{"val":7,"ok":true}]`))
	rep := newScriptedEndpoint(t, RoleFollower, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0.05")
		w.WriteHeader(http.StatusConflict)
		_, _ = w.Write([]byte(`{"error":"replica lag 9 exceeds max_lag 1"}`))
	})
	d := NewHTTPDriverConfig(leader.ts.URL, HTTPDriverConfig{Replicas: []string{rep.ts.URL}})
	sess := &httpSession{d: d}

	res := make([]kv.Result, 1)
	if err := sess.Do([]kv.Op{{Kind: kv.OpGet, Key: 1}}, res); err != nil {
		t.Fatalf("stale fallback: %v", err)
	}
	if res[0].Val != 7 {
		t.Fatalf("fallback answered %+v, want the leader's 7", res[0])
	}
	if got := d.Stats().StaleReads; got != 1 {
		t.Fatalf("StaleReads = %d, want 1", got)
	}
	// The fallback is free: no retry was burned.
	if got := d.Stats().Retries; got != 0 {
		t.Fatalf("Retries = %d, want 0 (fallback must not burn the budget)", got)
	}
}

func TestHTTPDriverReplicaDeadFallsBackToLeader(t *testing.T) {
	leader := newScriptedEndpoint(t, RoleLeader, okBatch(`[{"val":7,"ok":true}]`))
	rep := newScriptedEndpoint(t, RoleFollower, okBatch(`[]`))
	rep.ts.Close() // transport-dead replica
	d := NewHTTPDriverConfig(leader.ts.URL, HTTPDriverConfig{Replicas: []string{rep.ts.URL}})
	sess := &httpSession{d: d}

	res := make([]kv.Result, 1)
	if err := sess.Do([]kv.Op{{Kind: kv.OpGet, Key: 1}}, res); err != nil {
		t.Fatalf("dead-replica fallback: %v", err)
	}
	if res[0].Val != 7 {
		t.Fatalf("fallback answered %+v, want the leader's 7", res[0])
	}
	// A dead replica read raises no doubt and must not trip the
	// (leader-scoped) breaker.
	if st := d.Stats(); st.InDoubt != 0 || st.BreakerOpens != 0 {
		t.Fatalf("dead replica polluted leader fault state: %+v", st)
	}
}

func TestHTTPDriverFailsOverToPromotedReplica(t *testing.T) {
	leader := newScriptedEndpoint(t, RoleLeader, okBatch(`[{"val":0,"ok":true}]`))
	rep := newScriptedEndpoint(t, RoleFollower, okBatch(`[{"val":0,"ok":true}]`))
	d := NewHTTPDriverConfig(leader.ts.URL, HTTPDriverConfig{Replicas: []string{rep.ts.URL}})
	sess := &httpSession{d: d}

	ops := []kv.Op{{Kind: kv.OpPut, Key: 1, Val: 1}}
	if err := sess.Do(ops, nil); err != nil {
		t.Fatalf("pre-failover write: %v", err)
	}

	// Kill the leader; promote the replica (as /v1/promote would).
	leader.ts.Close()
	rep.role.Store(RoleLeader)

	// The same session's next write exhausts its retries against the dead
	// leader, sweeps /healthz, adopts the promoted replica, and lands.
	if err := sess.Do(ops, nil); err != nil {
		t.Fatalf("failover write: %v", err)
	}
	if got := rep.batches.Load(); got != 1 {
		t.Fatalf("promoted endpoint batches = %d, want 1", got)
	}
	if got := d.Stats().Failovers; got != 1 {
		t.Fatalf("Failovers = %d, want 1", got)
	}
	if d.baseURL() != rep.ts.URL {
		t.Fatalf("base = %s, want swapped to %s", d.baseURL(), rep.ts.URL)
	}

	// Later requests go straight to the new leader, no probing.
	if err := sess.Do(ops, nil); err != nil {
		t.Fatalf("post-failover write: %v", err)
	}
	if got := d.Stats().Failovers; got != 1 {
		t.Fatalf("Failovers grew to %d on a healthy leader", got)
	}
}

func TestHTTPDriverFailoverSkipsUnpromotedFollower(t *testing.T) {
	leader := newScriptedEndpoint(t, RoleLeader, okBatch(`[]`))
	rep := newScriptedEndpoint(t, RoleFollower, okBatch(`[]`))
	d := NewHTTPDriverConfig(leader.ts.URL, HTTPDriverConfig{Replicas: []string{rep.ts.URL}})
	sess := &httpSession{d: d}
	leader.ts.Close()

	// Nobody claims leadership: the write must fail rather than bounce
	// writes off a follower's not-leader gate.
	err := sess.Do([]kv.Op{{Kind: kv.OpPut, Key: 1, Val: 1}}, nil)
	if err == nil {
		t.Fatal("write succeeded with no leader anywhere")
	}
	if !errors.Is(err, kv.ErrInDoubt) {
		t.Fatalf("dead-leader write err = %v, want in-doubt transport error", err)
	}
	if got := d.Stats().Failovers; got != 0 {
		t.Fatalf("Failovers = %d, want 0 (no leader to adopt)", got)
	}
	if got := rep.batches.Load(); got != 0 {
		t.Fatalf("follower got %d writes, want 0", got)
	}
}

// encode check: the routing decision must consult decoded op kinds, not
// the wire form — a transfer expands to two OpAdds (writes).
func TestHTTPDriverTransferRoutesToLeader(t *testing.T) {
	leader := newScriptedEndpoint(t, RoleLeader, okBatch(`[{"ok":true},{"ok":true}]`))
	rep := newScriptedEndpoint(t, RoleFollower, okBatch(`[]`))
	d := NewHTTPDriverConfig(leader.ts.URL, HTTPDriverConfig{Replicas: []string{rep.ts.URL}})
	sess := &httpSession{d: d}
	ops := []kv.Op{
		{Kind: kv.OpAdd, Key: 1, Val: ^uint64(0)},
		{Kind: kv.OpAdd, Key: 2, Val: 1},
	}
	if err := sess.Do(ops, make([]kv.Result, 2)); err != nil {
		t.Fatalf("transfer: %v", err)
	}
	if got := rep.batches.Load(); got != 0 {
		t.Fatalf("replica got %d transfer batches, want 0", got)
	}
}

// sanity: healthz decodes the role field the failover sweep depends on.
func TestHealthResponseCarriesRole(t *testing.T) {
	e := newScriptedEndpoint(t, RoleFollower, okBatch(`[]`))
	resp, err := http.Get(e.ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer resp.Body.Close()
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if h.Role != RoleFollower {
		t.Fatalf("role = %q, want follower", h.Role)
	}
}
