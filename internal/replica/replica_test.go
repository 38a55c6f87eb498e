package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"medley/internal/cdc"
	"medley/internal/kv"
)

// These tests run the follower against a scripted leader: an httptest
// server speaking wire.go, and an in-memory map behind Apply and Scan.

const testShards = 4

func shardOf(key uint64) int { return int(key % testShards) }

// memStore is the local store behind the follower's Apply/Scan seams.
type memStore struct {
	mu      sync.Mutex
	m       map[uint64]uint64
	applies int
	// failAt, when positive, makes that Apply call (1-based) fail, once.
	failAt  int
	deleted []uint64
}

func newMemStore(kvs ...uint64) *memStore {
	s := &memStore{m: map[uint64]uint64{}}
	for i := 0; i < len(kvs); i += 2 {
		s.m[kvs[i]] = kvs[i+1]
	}
	return s
}

var errApply = errors.New("memStore: injected apply failure")

func (s *memStore) apply(ops []kv.Op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.applies++; s.applies == s.failAt {
		return errApply
	}
	for _, op := range ops {
		switch op.Kind {
		case kv.OpPut:
			s.m[op.Key] = op.Val
		case kv.OpDelete:
			delete(s.m, op.Key)
			s.deleted = append(s.deleted, op.Key)
		default:
			return fmt.Errorf("memStore: replay op of kind %v", op.Kind)
		}
	}
	return nil
}

func (s *memStore) scan(shard int, fn func(key, val uint64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range s.m {
		if shard == AllShards || shardOf(k) == shard {
			fn(k, v)
		}
	}
}

func (s *memStore) snapshot() map[uint64]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[uint64]uint64, len(s.m))
	for k, v := range s.m {
		out[k] = v
	}
	return out
}

// fakeLeader serves /v1/snapshot from a script and /v1/watch from
// per-shard entry lists.
type fakeLeader struct {
	t  *testing.T
	ts *httptest.Server

	// snapshot answers the attempt-th (1-based) snapshot request.
	snapshot func(w http.ResponseWriter, r *http.Request, attempt int)
	attempts atomic.Int64

	mu      sync.Mutex
	entries [testShards][]cdc.Entry // seq i+1 at index i
	gone    [testShards]bool        // answer the next watch of the shard 410, once
	// gate, when non-nil, holds every watch stream until it is closed.
	gate chan struct{}
}

func newFakeLeader(t *testing.T) *fakeLeader {
	l := &fakeLeader{t: t}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		l.snapshot(w, r, int(l.attempts.Add(1)))
	})
	mux.HandleFunc("GET /v1/watch", l.watch)
	l.ts = httptest.NewServer(mux)
	t.Cleanup(l.ts.Close)
	return l
}

func (l *fakeLeader) watch(w http.ResponseWriter, r *http.Request) {
	shard, _ := strconv.Atoi(r.URL.Query().Get("shard"))
	from, _ := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	l.mu.Lock()
	gone, gate := l.gone[shard], l.gate
	l.gone[shard] = false
	l.mu.Unlock()
	if gone {
		w.WriteHeader(http.StatusGone)
		return
	}
	if gate != nil {
		select {
		case <-gate:
		case <-r.Context().Done():
			return
		}
	}
	enc := json.NewEncoder(w)
	for {
		l.mu.Lock()
		all := l.entries[shard]
		l.mu.Unlock()
		head := uint64(len(all))
		for from <= head {
			end := min(from-1+200, head)
			if enc.Encode(WatchChunk{Entries: all[from-1 : end], Head: head}) != nil {
				return
			}
			from = end + 1
		}
		if enc.Encode(WatchChunk{Hb: true, Head: head}) != nil {
			return
		}
		w.(http.Flusher).Flush()
		select {
		case <-r.Context().Done():
			return
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// writeSnapshot writes a well-formed stream of the pairs in kvs, chunk
// keys per line. cut > 0 ends the response cut bytes into the last chunk
// line instead; short makes the trailer count one key fewer.
func writeSnapshot(w http.ResponseWriter, from []uint64, kvs []uint64, chunk, cut int, short bool) {
	enc := json.NewEncoder(w)
	_ = enc.Encode(SnapshotHeader{Shards: len(from), FromSeq: from})
	for i := 0; i < len(kvs); i += 2 * chunk {
		end := min(i+2*chunk, len(kvs))
		line, _ := json.Marshal(SnapshotChunk{KV: kvs[i:end]})
		if cut > 0 && end == len(kvs) {
			_, _ = w.Write(line[:cut])
			return
		}
		_, _ = w.Write(append(line, '\n'))
	}
	count := uint64(len(kvs) / 2)
	if short {
		count--
	}
	_ = enc.Encode(SnapshotChunk{Done: true, Count: count})
}

// pairs returns key, val, ... for keys [0, n) with val = key*10.
func pairs(n int) []uint64 {
	out := make([]uint64, 0, 2*n)
	for k := 0; k < n; k++ {
		out = append(out, uint64(k), uint64(k)*10)
	}
	return out
}

func startFollower(t *testing.T, l *fakeLeader, st *memStore) *Follower {
	t.Helper()
	f, err := Start(Config{
		Leader: l.ts.URL, Shards: testShards, Apply: st.apply, Scan: st.scan, ProbeFails: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)
	return f
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func wantState(t *testing.T, st *memStore, want map[uint64]uint64) {
	t.Helper()
	got := st.snapshot()
	if len(got) != len(want) {
		t.Errorf("store holds %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			t.Fatalf("key %d = %d (present %v), want %d", k, g, ok, v)
		}
	}
}

func TestBootstrapAllShardsSetsCursors(t *testing.T) {
	l := newFakeLeader(t)
	from := []uint64{8, 1, 30, 5}
	for s, f := range from { // the feed already holds from-1 entries per shard
		l.entries[s] = make([]cdc.Entry, f-1)
	}
	l.snapshot = func(w http.ResponseWriter, r *http.Request, _ int) {
		if r.URL.Query().Has("shard") {
			t.Errorf("initial bootstrap asked for %q, want all shards in one request", r.URL.RawQuery)
		}
		writeSnapshot(w, from, pairs(3000), SnapshotChunkKeys, 0, false)
	}
	st := newMemStore()
	f := startFollower(t, l, st)
	waitFor(t, "ready", f.Ready)
	for s, fr := range from {
		if got := f.Applied(s); got != fr-1 {
			t.Errorf("shard %d cursor = %d, want from_seq-1 = %d", s, got, fr-1)
		}
	}
	want := map[uint64]uint64{}
	for k := uint64(0); k < 3000; k++ {
		want[k] = k * 10
	}
	wantState(t, st, want)
	stats := f.Stats()
	if stats.BootstrapKeys != 3000 || stats.BootstrapNanos == 0 || stats.Failures != 0 {
		t.Errorf("stats = %+v, want 3000 bootstrap keys, a duration, no failures", stats)
	}
	if n := l.attempts.Load(); n != 1 {
		t.Errorf("%d snapshot requests, want 1 for all shards", n)
	}
}

// A stream that ends inside a chunk, or whose trailer counts fewer keys
// than arrived, is a failed bootstrap: counted, nothing published,
// retried whole.
func TestBootstrapCutOrShortStreamRetries(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cut   int
		short bool
	}{{"cut mid-chunk", 40, false}, {"trailer short", 0, true}, {"no trailer", -1, false}} {
		t.Run(tc.name, func(t *testing.T) {
			l := newFakeLeader(t)
			var fol atomic.Pointer[Follower]
			from := []uint64{3, 3, 3, 3}
			l.snapshot = func(w http.ResponseWriter, r *http.Request, attempt int) {
				switch attempt {
				case 1:
					if tc.cut < 0 { // header and every chunk, then EOF where the trailer belongs
						_ = json.NewEncoder(w).Encode(SnapshotHeader{Shards: testShards, FromSeq: from})
						line, _ := json.Marshal(SnapshotChunk{KV: pairs(100)})
						_, _ = w.Write(append(line, '\n'))
						return
					}
					writeSnapshot(w, from, pairs(1200), SnapshotChunkKeys, tc.cut, tc.short)
				default:
					if f := fol.Load(); f != nil {
						if st := f.Stats(); st.Ready || st.Failures == 0 {
							t.Errorf("at the retry: stats %+v, want not ready and the failure counted", st)
						}
						for s := 0; s < testShards; s++ {
							if f.Applied(s) != 0 {
								t.Errorf("failed bootstrap published cursor %d on shard %d", f.Applied(s), s)
							}
						}
					}
					writeSnapshot(w, from, pairs(1200), SnapshotChunkKeys, 0, false)
				}
			}
			st := newMemStore()
			f := startFollower(t, l, st)
			fol.Store(f)
			waitFor(t, "ready after retry", f.Ready)
			if n := l.attempts.Load(); n != 2 {
				t.Errorf("%d snapshot requests, want 2", n)
			}
			if got := f.Stats().Failures; got != 1 {
				t.Errorf("failures = %d, want 1", got)
			}
			if len(st.snapshot()) != 1200 || f.Applied(2) != 2 {
				t.Errorf("after retry: %d keys, cursor %d; want 1200 and 2", len(st.snapshot()), f.Applied(2))
			}
		})
	}
}

func TestBootstrapShardsMismatchRefusedBeforeApply(t *testing.T) {
	l := newFakeLeader(t)
	l.snapshot = func(w http.ResponseWriter, r *http.Request, _ int) {
		writeSnapshot(w, []uint64{1, 1}, pairs(600), SnapshotChunkKeys, 0, false) // a 2-shard leader
	}
	st := newMemStore()
	f := startFollower(t, l, st)
	waitFor(t, "three refused attempts", func() bool { return f.Stats().Failures >= 3 })
	if f.Ready() {
		t.Error("ready against a leader with another shard count")
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.applies != 0 || len(st.m) != 0 {
		t.Errorf("%d applies, %d keys: a mismatched header must be refused before any Apply", st.applies, len(st.m))
	}
}

// LeaderDown closes once ProbeFails consecutive round trips are refused,
// and never when ProbeFails is negative, not even past the default of 5.
// The leader checks the signal still open as the threshold-th attempt
// arrives: the failures before it must not trip it early.
func TestLeaderDownAfterProbeFails(t *testing.T) {
	const probeFails = 3
	for _, tc := range []struct {
		name       string
		probeFails int
		wait       uint64 // refused round trips to wait past
		wantDown   bool
	}{{"trips at the threshold", probeFails, probeFails, true}, {"disabled", -1, 5, false}} {
		t.Run(tc.name, func(t *testing.T) {
			l := newFakeLeader(t)
			var fol atomic.Pointer[Follower]
			l.snapshot = func(w http.ResponseWriter, r *http.Request, attempt int) {
				if f := fol.Load(); f != nil && attempt <= probeFails && f.Stats().LeaderDown {
					t.Errorf("LeaderDown before attempt %d, want open until %d failures", attempt, probeFails)
				}
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			f, err := Start(Config{
				Leader: l.ts.URL, Shards: testShards, Apply: newMemStore().apply, ProbeFails: tc.probeFails,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(f.Stop)
			fol.Store(f)
			waitFor(t, "more refused round trips than the threshold", func() bool {
				return f.Stats().Failures > tc.wait
			})
			down := false
			select {
			case <-f.LeaderDown():
				down = true
			default:
			}
			if st := f.Stats(); down != tc.wantDown || st.LeaderDown != tc.wantDown {
				t.Errorf("LeaderDown closed = %v, stats %+v; want %v", down, st, tc.wantDown)
			}
		})
	}
}

// An Apply failing while others are in flight aborts the bootstrap; the
// shards stay not ready until a whole retry succeeds.
func TestBootstrapApplyErrorAborts(t *testing.T) {
	l := newFakeLeader(t)
	var fol atomic.Pointer[Follower]
	l.snapshot = func(w http.ResponseWriter, r *http.Request, attempt int) {
		if f := fol.Load(); attempt == 2 && f != nil {
			if st := f.Stats(); st.Ready || st.Failures != 1 {
				t.Errorf("at the retry: stats %+v, want not ready and one failure", st)
			}
		}
		writeSnapshot(w, []uint64{2, 2, 2, 2}, pairs(20*SnapshotChunkKeys), SnapshotChunkKeys, 0, false)
	}
	st := newMemStore()
	st.failAt = 5
	f := startFollower(t, l, st)
	fol.Store(f)
	waitFor(t, "ready after retry", f.Ready)
	if n := l.attempts.Load(); n != 2 {
		t.Errorf("%d snapshot requests, want 2", n)
	}
	if got := len(st.snapshot()); got != 20*SnapshotChunkKeys {
		t.Errorf("%d keys after the retry, want %d", got, 20*SnapshotChunkKeys)
	}
}

// Bootstrapping over existing state deletes exactly the local keys the
// snapshot lacks: all shards' at the initial bootstrap, one shard's at a
// compaction resync.
func TestResyncDeletesExactlyAbsentKeys(t *testing.T) {
	l := newFakeLeader(t)
	l.snapshot = func(w http.ResponseWriter, r *http.Request, attempt int) {
		if attempt == 1 {
			writeSnapshot(w, []uint64{1, 1, 1, 1}, pairs(40), SnapshotChunkKeys, 0, false)
			return
		}
		// The resync of shard 1: keys 5 and 13 are gone on the leader, 41 is new.
		if r.URL.Query().Get("shard") != "1" {
			t.Errorf("resync asked for %q, want shard=1", r.URL.RawQuery)
		}
		var kvs []uint64
		for k := uint64(1); k < 40; k += testShards {
			if k != 5 && k != 13 {
				kvs = append(kvs, k, k*10)
			}
		}
		writeSnapshot(w, []uint64{9, 9, 9, 9}, append(kvs, 41, 410), 3, 0, false)
	}
	// Keys 1000 and 1001 exist only locally: stale at the initial bootstrap.
	st := newMemStore(1000, 1, 1001, 1, 7, 0)
	f := startFollower(t, l, st)
	waitFor(t, "ready", f.Ready)
	want := map[uint64]uint64{}
	for k := uint64(0); k < 40; k++ {
		want[k] = k * 10
	}
	wantState(t, st, want)

	l.mu.Lock()
	l.gone[1] = true
	l.mu.Unlock()
	// The stream of shard 1 in progress ends when its connection does.
	l.ts.CloseClientConnections()
	waitFor(t, "resync of shard 1", func() bool { return f.Stats().Resyncs == 1 && f.Ready() })

	delete(want, 5)
	delete(want, 13)
	want[41] = 410
	wantState(t, st, want)
	st.mu.Lock()
	deleted := append([]uint64(nil), st.deleted...)
	st.mu.Unlock()
	slices.Sort(deleted)
	if !slices.Equal(deleted, []uint64{5, 13, 1000, 1001}) {
		t.Errorf("deleted keys %v, want exactly 5, 13, 1000, 1001", deleted)
	}
	if got, other := f.Applied(1), f.Applied(0); got != 8 || other != 0 {
		t.Errorf("cursors after resync: shard 1 = %d, shard 0 = %d; want 8 and 0 (only shard 1 moved)", got, other)
	}
}

// Stop during a bootstrap whose leader stalls mid-stream returns at once.
func TestStopDuringStalledBootstrap(t *testing.T) {
	l := newFakeLeader(t)
	streaming := make(chan struct{})
	l.snapshot = func(w http.ResponseWriter, r *http.Request, _ int) {
		_ = json.NewEncoder(w).Encode(SnapshotHeader{Shards: testShards, FromSeq: []uint64{1, 1, 1, 1}})
		line, _ := json.Marshal(SnapshotChunk{KV: pairs(SnapshotChunkKeys)})
		_, _ = w.Write(append(line, '\n'))
		w.(http.Flusher).Flush()
		close(streaming)
		<-r.Context().Done() // stall: no further chunk, no trailer
	}
	st := newMemStore()
	f := startFollower(t, l, st)
	<-streaming
	waitFor(t, "the first chunk applied", func() bool { return len(st.snapshot()) == SnapshotChunkKeys })
	start := time.Now()
	f.Stop()
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("Stop took %v during a stalled bootstrap, want < 100ms", d)
	}
	if f.Ready() || f.Applied(0) != 0 {
		t.Errorf("ready = %v, cursor = %d after an interrupted bootstrap; want not ready, 0", f.Ready(), f.Applied(0))
	}
}

// All shards' watch loops start together right after the bootstrap and
// apply concurrently; the leader holds every stream at a gate until all
// have connected, so the race detector sees them overlap.
func TestShardStreamsReplayConcurrently(t *testing.T) {
	perShard := 20000
	if testing.Short() {
		perShard = 2000
	}
	l := newFakeLeader(t)
	l.gate = make(chan struct{})
	want := map[uint64]uint64{}
	for k := uint64(0); k < 2000; k++ {
		want[k] = k * 10
	}
	for s := 0; s < testShards; s++ {
		for i := 0; i < perShard; i++ {
			key := uint64(s + testShards*(i%700)) // overwrites: per-key order matters
			e := cdc.Entry{Seq: uint64(i + 1), Key: key, Val: uint64(i), Del: i%11 == 0}
			l.entries[s] = append(l.entries[s], e)
			if delete(want, key); !e.Del {
				want[key] = e.Val
			}
		}
	}
	l.snapshot = func(w http.ResponseWriter, r *http.Request, _ int) {
		writeSnapshot(w, []uint64{1, 1, 1, 1}, pairs(2000), SnapshotChunkKeys, 0, false)
	}
	st := newMemStore()
	f := startFollower(t, l, st)
	waitFor(t, "ready", f.Ready)
	close(l.gate)
	waitFor(t, "every shard replayed", func() bool {
		for s := 0; s < testShards; s++ {
			if f.Applied(s) != uint64(perShard) {
				return false
			}
		}
		return true
	})
	wantState(t, st, want)
	if stats := f.Stats(); stats.Gaps != 0 || stats.Reordered != 0 || stats.Lag != 0 {
		t.Errorf("stats = %+v, want no gaps, no reorders, no lag", stats)
	}
}
