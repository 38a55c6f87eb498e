package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"medley/internal/cdc"
	"medley/internal/kv"
	"medley/internal/replica"
)

// startNode builds a node over cfg.Backend (default: a fresh in-memory
// medley system) and serves it; cleanup closes both.
func startNode(t *testing.T, cfg NodeConfig) (*Node, *httptest.Server) {
	t.Helper()
	if cfg.Backend == nil {
		cfg.Backend = kvBackend(t, "medley-hash@2")
	}
	if cfg.Service.Tick == 0 {
		cfg.Service.Tick = 200 * time.Microsecond
	}
	if cfg.Service.Workers == 0 {
		cfg.Service.Workers = 2
	}
	if cfg.FeedShards == 0 {
		cfg.FeedShards = 2
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	ts := httptest.NewServer(n.Handler())
	// Node before server: closing the service closes the feed, ending any
	// watch streams the graceful server Close would otherwise wait on.
	t.Cleanup(func() { n.Close(); ts.Close() })
	return n, ts
}

func postNodeBatch(t *testing.T, url string, req BatchRequest) (*http.Response, BatchResponse, ErrorResponse) {
	t.Helper()
	b, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/batch", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	var ok BatchResponse
	var bad ErrorResponse
	if resp.StatusCode == http.StatusOK {
		_ = json.NewDecoder(resp.Body).Decode(&ok)
	} else {
		_ = json.NewDecoder(resp.Body).Decode(&bad)
	}
	return resp, ok, bad
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// caughtUp reports whether follower f has applied everything leader l has
// published: cursors against the leader's TRUE feed heads. The follower's
// own Lag() reads zero whenever its known head is stale (between the last
// admission and the next heartbeat), so waiting on it can hand a test a
// replica still missing the final writes.
func caughtUp(l, f *Node) bool {
	fol := f.Follower()
	if !fol.Ready() {
		return false
	}
	for s := 0; s < l.Feed().ShardCount(); s++ {
		if fol.Applied(s) < l.Feed().Head(s) {
			return false
		}
	}
	return true
}

func TestNodeFollowerReplaysAndServesReads(t *testing.T) {
	leader, lts := startNode(t, NodeConfig{})
	_ = leader

	// Preload some writes before the follower exists: bootstrap coverage.
	for i := 0; i < 50; i++ {
		resp, _, _ := postNodeBatch(t, lts.URL, BatchRequest{Ops: []WireOp{
			{Op: "put", Key: uint64(i), Val: uint64(i * 10)},
		}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("preload write %d: status %d", i, resp.StatusCode)
		}
	}

	follower, fts := startNode(t, NodeConfig{Follow: lts.URL, FeedShards: 2})
	waitFor(t, 5*time.Second, "follower ready", func() bool {
		return follower.Follower().Ready()
	})

	// Live writes after bootstrap: stream coverage.
	for i := 50; i < 80; i++ {
		postNodeBatch(t, lts.URL, BatchRequest{Ops: []WireOp{
			{Op: "put", Key: uint64(i), Val: uint64(i * 10)},
		}})
	}
	postNodeBatch(t, lts.URL, BatchRequest{Ops: []WireOp{{Op: "delete", Key: 7}}})

	waitFor(t, 5*time.Second, "follower caught up", func() bool {
		return follower.Follower().Lag() == 0 && follower.Follower().Stats().Applied >= 30
	})
	// One more settle beat: lag counts feed entries, the last apply may
	// still be completing its ExecBatch.
	time.Sleep(20 * time.Millisecond)

	// Reads on the follower observe the replayed state.
	resp, ok, _ := postNodeBatch(t, fts.URL, BatchRequest{Ops: []WireOp{
		{Op: "get", Key: 60},
		{Op: "get", Key: 7},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower read status %d", resp.StatusCode)
	}
	if len(ok.Results) != 2 || !ok.Results[0].Ok || ok.Results[0].Val != 600 {
		t.Fatalf("follower read key 60 = %+v, want 600", ok.Results)
	}
	if ok.Results[1].Ok {
		t.Fatalf("follower still has deleted key 7: %+v", ok.Results[1])
	}

	// Writes on the follower are refused with a retryable not-leader error.
	resp, _, bad := postNodeBatch(t, fts.URL, BatchRequest{Ops: []WireOp{
		{Op: "put", Key: 1, Val: 1},
	}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower write status = %d, want 503", resp.StatusCode)
	}
	if bad.Error == "" {
		t.Fatal("follower write rejection carried no error body")
	}

	// Roles over healthz.
	var h healthResponse
	hr, err := http.Get(fts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	_ = json.NewDecoder(hr.Body).Decode(&h)
	hr.Body.Close()
	if h.Role != RoleFollower || h.FeedShards != 2 {
		t.Fatalf("follower healthz = %+v", h)
	}
}

func TestNodePromoteServesWrites(t *testing.T) {
	leader, lts := startNode(t, NodeConfig{})
	for i := 0; i < 20; i++ {
		postNodeBatch(t, lts.URL, BatchRequest{Ops: []WireOp{
			{Op: "put", Key: uint64(i), Val: uint64(i + 1)},
		}})
	}
	follower, fts := startNode(t, NodeConfig{Follow: lts.URL})
	waitFor(t, 5*time.Second, "follower caught up", func() bool {
		return follower.Follower().Ready() && follower.Follower().Lag() == 0
	})
	time.Sleep(20 * time.Millisecond)

	// Kill the leader, promote over HTTP. Node first: closing the
	// service closes the feed, which terminates the follower's watch
	// stream — httptest's graceful Close waits on active connections.
	leader.Close()
	lts.Close()
	resp, err := http.Post(fts.URL+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	var pr struct {
		Role     string `json:"role"`
		Promoted bool   `json:"promoted"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&pr)
	resp.Body.Close()
	if pr.Role != RoleLeader || !pr.Promoted {
		t.Fatalf("promote response = %+v", pr)
	}
	if !follower.Promoted() {
		t.Fatal("node does not report promoted")
	}

	// The promoted node serves writes and retains the replayed state.
	wresp, ok, _ := postNodeBatch(t, fts.URL, BatchRequest{Ops: []WireOp{
		{Op: "put", Key: 100, Val: 1000},
		{Op: "get", Key: 5},
	}})
	if wresp.StatusCode != http.StatusOK {
		t.Fatalf("promoted write status %d", wresp.StatusCode)
	}
	if !ok.Results[1].Ok || ok.Results[1].Val != 6 {
		t.Fatalf("promoted node lost replayed key 5: %+v", ok.Results[1])
	}

	// Its own feed carries both the replayed and the new writes — a
	// promoted leader is followable.
	heads := follower.Feed().Heads()
	var total uint64
	for _, h := range heads {
		total += h
	}
	if total < 21 {
		t.Fatalf("promoted feed heads %v, want replayed+new entries", heads)
	}

	// Second promote is a no-op.
	resp2, err := http.Post(fts.URL+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatalf("promote 2: %v", err)
	}
	_ = json.NewDecoder(resp2.Body).Decode(&pr)
	resp2.Body.Close()
	if pr.Promoted {
		t.Fatal("second promote reported a flip")
	}
}

func TestNodeStaleReadsRejected(t *testing.T) {
	// MaxLag 1 and a mangle hook that swallows every entry: lag grows,
	// reads must 409 with Retry-After.
	leader, lts := startNode(t, NodeConfig{})
	_ = leader
	follower, fts := startNode(t, NodeConfig{
		Follow: lts.URL,
		MaxLag: 1,
		Mangle: func(shard int, entries []cdc.Entry) []cdc.Entry { return nil },
	})
	waitFor(t, 5*time.Second, "follower ready", func() bool {
		return follower.Follower().Ready()
	})
	for i := 0; i < 30; i++ {
		postNodeBatch(t, lts.URL, BatchRequest{Ops: []WireOp{
			{Op: "put", Key: uint64(i), Val: 1},
		}})
	}
	waitFor(t, 5*time.Second, "lag to build", func() bool {
		return follower.Follower().Lag() > 1
	})
	resp, _, bad := postNodeBatch(t, fts.URL, BatchRequest{Ops: []WireOp{{Op: "get", Key: 1}}})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale read status = %d, want 409", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("stale rejection carried no Retry-After")
	}
	if bad.Error == "" {
		t.Fatal("stale rejection carried no error body")
	}
}

func TestNodeWatchCompactedGone(t *testing.T) {
	// A cursor below the ring floor answers 410 at connect time.
	n, ts := startNode(t, NodeConfig{feedRing: 4, FeedShards: 1})
	for i := 0; i < 40; i++ {
		postNodeBatch(t, ts.URL, BatchRequest{Ops: []WireOp{
			{Op: "put", Key: uint64(i), Val: 1},
		}})
	}
	waitFor(t, 2*time.Second, "feed entries", func() bool { return n.Feed().Head(0) > 8 })
	resp, err := http.Get(ts.URL + "/v1/watch?shard=0&from=1")
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("compacted watch status = %d, want 410", resp.StatusCode)
	}
}

func TestNodeFollowerResyncsAfterCompaction(t *testing.T) {
	// Tiny ring + follower that cannot keep up bootstraps again and still
	// converges (overflow-to-snapshot end to end).
	leader, lts := startNode(t, NodeConfig{feedRing: 8, FeedShards: 1})
	follower, _ := startNode(t, NodeConfig{Follow: lts.URL, FeedShards: 1, feedRing: 8})
	waitFor(t, 5*time.Second, "follower ready", func() bool {
		return follower.Follower().Ready()
	})
	// Outrun the ring: submit one big burst as separate one-op batches.
	for i := 0; i < 400; i++ {
		postNodeBatch(t, lts.URL, BatchRequest{Ops: []WireOp{
			{Op: "put", Key: uint64(i % 32), Val: uint64(i)},
		}})
	}
	waitFor(t, 10*time.Second, "follower converged", func() bool { return caughtUp(leader, follower) })
	// Spot-check convergence through the service pipelines.
	lres := make([]kv.Result, 1)
	fres := make([]kv.Result, 1)
	for k := uint64(0); k < 32; k++ {
		ops := []kv.Op{{Kind: kv.OpGet, Key: k}}
		if err := leader.Service().Submit(ops, lres); err != nil {
			t.Fatalf("leader get: %v", err)
		}
		if err := follower.Service().Submit(ops, fres); err != nil {
			t.Fatalf("follower get: %v", err)
		}
		if lres[0] != fres[0] {
			t.Fatalf("key %d diverged: leader %+v follower %+v", k, lres[0], fres[0])
		}
	}
}

// A follower's replay waits on nothing of its own pipeline. Its service
// ticks once a second and its admission pool is kept full of parked
// reads, so a replay routed through Submit would wait out a tick per
// batch, or be shed and sleep RetryAfter (a whole tick here) per try;
// on the node's replay executors the bootstrap is done, and a leader
// write is in the follower's store, well inside one tick.
func TestReplayBypassesPipeline(t *testing.T) {
	const keys = 1 << 12
	store := hashStore(t, keys/8, 2*keys)
	store.Preload(evenKeys(keys))
	leader, err := NewNode(NodeConfig{Backend: store, Service: Config{Tick: 200 * time.Microsecond, Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()
	defer leader.Close() // node before server, as in startNode

	folStore := hashStore(t, keys/8, 2*keys)
	start := time.Now()
	fol, err := NewNode(NodeConfig{
		Backend: folStore, Follow: ts.URL,
		Service: Config{Tick: time.Second, PoolSize: 4, Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// As many readers as pool slots: each resubmits as soon as a tick
	// answers it, so the pool is full but for an instant per second.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < fol.Service().Config().PoolSize; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			res := make([]kv.Result, 1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := fol.Service().Submit([]kv.Op{{Kind: kv.OpGet, Key: 0}}, res); errors.Is(err, ErrClosed) {
					return
				}
			}
		}()
	}
	defer readers.Wait()
	defer fol.Close() // answers the parked reads
	defer close(stop)

	waitFor(t, 10*time.Second, "follower bootstrap", fol.Follower().Ready)
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("bootstrap of %d keys took %v beside a 1s tick, want < 500ms", keys, d)
	}
	pool := fol.Service().pool
	waitFor(t, time.Second, "follower pool full of parked reads", func() bool { return len(pool) == cap(pool) })

	const key, val = 1, 77 // odd: not preloaded
	wrote := time.Now()
	if err := leader.Service().Submit([]kv.Op{{Kind: kv.OpPut, Key: key, Val: val}}, nil); err != nil {
		t.Fatal(err)
	}
	inStore := func() bool {
		found := false
		folStore.(snapshotter).StateSnapshot(func(k, v uint64) bool {
			found = k == key && v == val
			return !found
		})
		return found
	}
	waitFor(t, 5*time.Second, "leader write in the follower's store", inStore)
	if d := time.Since(wrote); d > 250*time.Millisecond {
		t.Errorf("leader write reached the follower's store after %v beside a 1s tick, want < 250ms", d)
	}
}

// Replay executors change goroutines: eight bootstrap-sized batches, each
// on its own goroutine released by one start signal, share the node's two
// replay executors, round after round. The channel hand-off must be all
// the ordering they need (run under -race); the store ends exact and the
// feed holds one ticket per batch.
func TestReplayExecutorsChangeGoroutines(t *testing.T) {
	const batches, per = 8, replica.SnapshotChunkKeys
	rounds := 20
	if testing.Short() {
		rounds = 4
	}
	n, err := NewNode(NodeConfig{Backend: hashStore(t, 1<<10, 1<<14), Service: Config{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if got := cap(n.replay); got != 2 {
		t.Fatalf("%d replay executors for 2 workers", got)
	}
	for round := 0; round < rounds; round++ {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for b := 0; b < batches; b++ {
			ops := make([]kv.Op, per)
			for i := range ops {
				k := uint64(b*per + i)
				ops[i] = kv.Op{Kind: kv.OpPut, Key: k, Val: 3*k + uint64(round)}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := n.applyReplay(ops); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()

		got := 0
		n.Service().Backend().(snapshotter).StateSnapshot(func(k, v uint64) bool {
			if got++; v != 3*k+uint64(round) {
				t.Fatalf("round %d: key %d = %d, want %d", round, k, v, 3*k+uint64(round))
			}
			return true
		})
		if got != batches*per {
			t.Fatalf("round %d: store holds %d keys, want %d", round, got, batches*per)
		}
		want := uint64((round + 1) * batches)
		if st := n.Feed().Stats(); st.Drawn != want || st.Published != want || st.Entries != want*per {
			t.Fatalf("round %d: feed drew %d, published %d tickets of %d entries; want %d, %d, %d",
				round, st.Drawn, st.Published, st.Entries, want, want, want*per)
		}
	}
}

// A resync loads one feed shard over a live store: its snapshot's puts
// land on keys the store already holds and its stale-key deletes remove
// others, as bare operations, while the other shards' streams replay
// transactions on the same executors. Every goroutine waits on one start
// signal (run under -race). The store must end exact; the node's feed must
// assign a seq to every write, under one ticket per load chunk and per
// replayed transaction; and every node the load replaced or deleted must be retired
// into its executor's pool for reuse — a load on a nil Tx unlinks them
// with no grace period to wait out, so they are never retired, and the
// count falls short.
func TestResyncLoadOverLiveStore(t *testing.T) {
	keys, rounds := 1<<14, 3
	if testing.Short() {
		keys, rounds = 1<<12, 2
	}
	const resynced, perTx = 1, 16
	n, err := NewNode(NodeConfig{Backend: hashStore(t, 1<<10, 1<<16), Service: Config{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	be := n.Service().Backend()
	feed := n.Feed()

	// The first bootstrap: every key, loaded into the empty store.
	model := map[uint64]uint64{}
	var loads [][]kv.Op
	for k := uint64(0); k < uint64(keys); k++ {
		if len(loads) == 0 || len(loads[len(loads)-1]) == replica.SnapshotChunkKeys {
			loads = append(loads, nil)
		}
		loads[len(loads)-1] = append(loads[len(loads)-1], kv.Op{Kind: kv.OpPut, Key: k, Val: k})
		model[k] = k
	}
	for _, ops := range loads {
		if err := n.loadReplay(ops); err != nil {
			t.Fatal(err)
		}
	}

	// The resync of one shard: every fifth of its keys is stale, the rest
	// take new values, and a few keys are new. The other shards' streams
	// each overwrite and delete their own keys, perTx distinct keys a
	// transaction, round after round.
	var resync []kv.Op
	var deletes []kv.Op
	unlinked := 0 // nodes replaced or deleted, by the load and the streams
	streams := map[int][]uint64{}
	for k := uint64(0); k < uint64(keys)+64; k++ {
		s := feed.ShardOf(k)
		_, exists := model[k]
		switch {
		case s == resynced && k%5 == 0 && exists:
			deletes = append(deletes, kv.Op{Kind: kv.OpDelete, Key: k})
		case s == resynced:
			resync = append(resync, kv.Op{Kind: kv.OpPut, Key: k, Val: 3*k + 1})
		case exists:
			streams[s] = append(streams[s], k)
		}
	}
	resync = append(resync, deletes...) // as a bootstrap sends them: after the snapshot
	loads = loads[:0]
	for i := 0; i < len(resync); i += replica.SnapshotChunkKeys {
		loads = append(loads, resync[i:min(i+replica.SnapshotChunkKeys, len(resync))])
	}
	for _, op := range resync {
		if _, ok := model[op.Key]; ok {
			unlinked++
		}
		if op.Kind == kv.OpDelete {
			delete(model, op.Key)
		} else {
			model[op.Key] = op.Val
		}
	}
	txs := map[int][][]kv.Op{}
	for s, ks := range streams {
		for r := 0; r < rounds; r++ {
			for i := 0; i+perTx <= len(ks); i += perTx {
				ops := make([]kv.Op, perTx)
				for j := range ops {
					k := ks[i+j]
					if _, ok := model[k]; ok {
						unlinked++
					}
					if (r+j)%7 == 0 {
						ops[j] = kv.Op{Kind: kv.OpDelete, Key: k}
						delete(model, k)
					} else {
						ops[j] = kv.Op{Kind: kv.OpPut, Key: k, Val: uint64(r)<<32 | k}
						model[k] = ops[j].Val
					}
				}
				txs[s] = append(txs[s], ops)
			}
		}
	}

	before := feed.Stats()
	retiresBefore := counter(be, "pool_retires")
	start := make(chan struct{})
	var wg sync.WaitGroup
	run := func(f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := f(); err != nil {
				t.Error(err)
			}
		}()
	}
	for _, ops := range loads {
		run(func() error { return n.loadReplay(ops) })
	}
	for _, batch := range txs {
		run(func() error {
			for _, ops := range batch {
				if err := n.applyReplay(ops); err != nil {
					return err
				}
			}
			return nil
		})
	}
	close(start)
	wg.Wait()

	chunks, writes := uint64(len(loads)), uint64(len(resync))
	for _, batch := range txs {
		chunks += uint64(len(batch))
		writes += uint64(len(batch) * perTx)
	}
	st := feed.Stats()
	if pub, ent := st.Published-before.Published, st.Entries-before.Entries; pub != chunks || ent != writes || st.Drawn != st.Published+st.Cancelled {
		t.Errorf("feed published %d tickets of %d entries (drew %d, cancelled %d); want %d tickets, one per load chunk and transaction, of %d entries",
			pub, ent, st.Drawn-before.Drawn, st.Cancelled-before.Cancelled, chunks, writes)
	}

	// A node whose unlink lost a race stays marked until a traversal
	// passes it; reading every key once retires the stragglers.
	sweep := make([]kv.Op, 0, keys+64)
	for k := uint64(0); k < uint64(keys)+64; k++ {
		sweep = append(sweep, kv.Op{Kind: kv.OpGet, Key: k})
	}
	if err := n.applyReplay(sweep); err != nil {
		t.Fatal(err)
	}
	retired := counter(be, "pool_retires") - retiresBefore
	t.Logf("%d load chunks and %d transactions; %d nodes replaced or deleted, %d retired", len(loads), chunks-uint64(len(loads)), unlinked, retired)
	if retired < uint64(unlinked) {
		t.Errorf("%d nodes retired into the pools, want at least the %d the resync and the streams replaced or deleted", retired, unlinked)
	}

	got := map[uint64]uint64{}
	be.(snapshotter).StateSnapshot(func(k, v uint64) bool {
		got[k] = v
		return true
	})
	if len(got) != len(model) {
		t.Errorf("store holds %d keys, want %d", len(got), len(model))
	}
	for k, v := range model {
		if g, ok := got[k]; !ok || g != v {
			t.Fatalf("key %d = %d (present %v), want %d", k, g, ok, v)
		}
	}
}
