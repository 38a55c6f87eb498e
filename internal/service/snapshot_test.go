package service

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"medley/internal/cdc"
	"medley/internal/harness"
	"medley/internal/kv"
	"medley/internal/replica"
)

// evenKeys returns the n even keys below 2n: the benchmark's preload.
func evenKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(2 * i)
	}
	return keys
}

// discard is a ResponseWriter that keeps nothing.
type discard struct{ h http.Header }

func (d discard) Header() http.Header       { return d.h }
func (discard) Write(p []byte) (int, error) { return len(p), nil }
func (discard) WriteHeader(int)             {}

// readSnapshot reads a whole snapshot stream as a follower does, failing
// the test on any departure from header, frames, zero count, trailer.
func readSnapshot(t *testing.T, url string) (replica.SnapshotHeader, map[uint64]uint64) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	var hdr replica.SnapshotHeader
	if line, err := br.ReadBytes('\n'); err != nil || json.Unmarshal(line, &hdr) != nil {
		t.Fatalf("header %q: %v", line, err)
	}
	got := map[uint64]uint64{}
	buf := make([]byte, replica.SnapshotFrameMax)
	for {
		pairs, err := replica.ReadSnapshotFrame(br, buf)
		if err != nil {
			t.Fatalf("frame after %d keys: %v", len(got), err)
		}
		if len(pairs) == 0 {
			break
		}
		for i := range pairs.Len() {
			k, v := pairs.At(i)
			got[k] = v
		}
	}
	var c replica.SnapshotTrailer
	if line, err := br.ReadBytes('\n'); err != nil || json.Unmarshal(line, &c) != nil || !c.Done {
		t.Fatalf("trailer %q: %v", line, err)
	}
	if c.Count != uint64(len(got)) {
		t.Fatalf("trailer counts %d keys, %d distinct keys arrived", c.Count, len(got))
	}
	if rest, _ := io.ReadAll(br); len(rest) > 0 {
		t.Fatalf("%d bytes after the trailer", len(rest))
	}
	return hdr, got
}

func TestSnapshotStreamAllShardsAndOne(t *testing.T) {
	n, ts := startNode(t, NodeConfig{FeedShards: 4})
	const keys = 3000 // several chunks, the last one partial
	for base := 0; base < keys; base += 500 {
		var ops []WireOp
		for k := base; k < base+500; k++ {
			ops = append(ops, WireOp{Op: "put", Key: uint64(k), Val: uint64(k) * 3})
		}
		if resp, _, bad := postNodeBatch(t, ts.URL, BatchRequest{Ops: ops}); resp.StatusCode != http.StatusOK {
			t.Fatalf("preload: %d %s", resp.StatusCode, bad.Error)
		}
	}
	feed := n.Feed()

	hdr, all := readSnapshot(t, ts.URL+"/v1/snapshot")
	if hdr.Shards != 4 || len(hdr.FromSeq) != 4 {
		t.Fatalf("header = %+v, want 4 shards and 4 cursors", hdr)
	}
	for s, from := range hdr.FromSeq {
		if from != feed.Head(s)+1 {
			t.Errorf("from_seq[%d] = %d, want head+1 = %d", s, from, feed.Head(s)+1)
		}
	}
	if len(all) != keys {
		t.Fatalf("all-shards snapshot holds %d keys, want %d", len(all), keys)
	}
	for k, v := range all {
		if v != k*3 {
			t.Fatalf("key %d = %d, want %d", k, v, k*3)
		}
	}

	total := 0
	for s := 0; s < 4; s++ {
		_, one := readSnapshot(t, ts.URL+"/v1/snapshot?shard="+strconv.Itoa(s))
		for k := range one {
			if feed.ShardOf(k) != s {
				t.Fatalf("shard %d snapshot holds key %d of shard %d", s, k, feed.ShardOf(k))
			}
		}
		total += len(one)
	}
	if total != keys {
		t.Fatalf("single-shard snapshots hold %d keys together, want %d", total, keys)
	}

	// A malformed cursor is refused like a malformed shard: read as 0 it
	// would stream from sequence 1, or answer 410 and cost a follower a
	// whole re-bootstrap.
	for _, bad := range []string{"/v1/snapshot?shard=4", "/v1/watch?shard=4&from=1", "/v1/watch?shard=0&from=abc", "/v1/watch?shard=0"} {
		resp, err := http.Get(ts.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// scanCounter counts the state scans a backend serves and the keys they
// visited.
type scanCounter struct {
	Backend
	scans, visited atomic.Int64
}

func (c *scanCounter) StateSnapshot(fn func(key, val uint64) bool) {
	c.scans.Add(1)
	c.Backend.(harness.Snapshotter).StateSnapshot(func(k, v uint64) bool {
		c.visited.Add(1)
		return fn(k, v)
	})
}

// One request is one scan, its allocation does not grow with the store,
// and a client that went away ends it.
func TestSnapshotOneScanFlatAllocation(t *testing.T) {
	serve := func(n int, ctx context.Context) (bytes uint64, be *scanCounter) {
		sys, err := harness.NewSystem("medley-hash@8", harness.SystemOpts{Buckets: 1 << 12, KeyRange: 1 << 18})
		if err != nil {
			t.Fatal(err)
		}
		sys.Preload(evenKeys(n))
		be = &scanCounter{Backend: sys.(Backend)}
		node, err := NewNode(NodeConfig{Backend: be})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		h := node.Handler()
		req := httptest.NewRequest(http.MethodGet, "/v1/snapshot", nil).WithContext(ctx)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		h.ServeHTTP(discard{h: http.Header{}}, req)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, be
	}

	small, _ := serve(1<<14, context.Background())
	large, be := serve(1<<17, context.Background())
	t.Logf("allocated serving 2^14 keys: %d B, 2^17 keys: %d B", small, large)
	if large >= 2*small {
		t.Errorf("serving 2^17 keys allocated %d B, 2^14 keys %d B: want < 2x", large, small)
	}
	if s, v := be.scans.Load(), be.visited.Load(); s != 1 || v != 1<<17 {
		t.Errorf("one all-shards request made %d scans visiting %d keys, want 1 and %d", s, v, 1<<17)
	}

	gone, cancel := context.WithCancel(context.Background())
	cancel()
	_, be = serve(1<<14, gone)
	if v := be.visited.Load(); v > replica.SnapshotChunkKeys {
		t.Errorf("scan visited %d keys for a departed client, want at most one chunk (%d)", v, replica.SnapshotChunkKeys)
	}
}

// Notify is feed-wide; a watcher of an idle shard must not turn every
// admission elsewhere into a heartbeat line.
func TestWatchIdleShardHeartbeats(t *testing.T) {
	n, ts := startNode(t, NodeConfig{FeedShards: 2})
	feed := n.Feed()
	var key0 uint64
	for feed.ShardOf(key0) != 0 {
		key0++
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/watch?shard=1&from=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var c replica.WatchChunk
			if err := json.Unmarshal(sc.Bytes(), &c); err != nil || !c.Hb || len(c.Entries) != 0 {
				t.Errorf("idle shard 1 got line %q (err %v), want a heartbeat", sc.Bytes(), err)
			}
			lines.Add(1)
		}
	}()
	waitFor(t, 2*time.Second, "first heartbeat", func() bool { return lines.Load() > 0 })

	start := time.Now()
	const admissions = 1000
	for i := 0; i < admissions; i++ {
		tk := feed.DrawTicket()
		feed.Publish(tk, []cdc.Write{{Key: key0, Val: uint64(i)}})
		if i%100 == 99 {
			time.Sleep(time.Millisecond) // let the watcher wake between bursts
		}
	}
	if got := feed.Head(0); got != admissions {
		t.Fatalf("shard 0 head = %d, want %d", got, admissions)
	}
	time.Sleep(20 * time.Millisecond)
	elapsed := time.Since(start)
	cancel()
	<-done
	if max := int64(elapsed/watchHeartbeat) + 2; lines.Load() > max {
		t.Fatalf("%d lines on idle shard 1 over %v and %d admissions to shard 0, want at most %d",
			lines.Load(), elapsed, admissions, max)
	}
}

// hashStore builds the 8-shard hash store medleyd serves by default.
func hashStore(tb testing.TB, buckets int, keyRange uint64) Backend {
	tb.Helper()
	sys, err := harness.NewSystem("medley-hash@8", harness.SystemOpts{Buckets: buckets, KeyRange: keyRange})
	if err != nil {
		tb.Fatal(err)
	}
	return sys.(Backend)
}

// counter reads one of a harness backend's cumulative counters.
func counter(be Backend, name string) uint64 {
	for _, m := range be.(harness.MetricsSnapshotter).MetricsSnapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// poolMisses reads a harness backend's cumulative pool traffic: all
// requests to its arenas, and those served by carving new memory.
func poolMisses(be Backend) (misses, gets uint64) {
	gets = counter(be, "pool_gets")
	return gets - counter(be, "pool_hits"), gets
}

// TestFollowerBootstrapFootprint pins what a bootstrap leaves behind. A
// snapshot chunk is a load, not a transaction: each put is the structure's
// bare insert on a replay executor's Tx, which takes one node slot from the
// Tx's own cache and no descriptor entry, and the store keeps the slot. So
// a bootstrap makes exactly one pool get per key — two would mean chunks
// ran as transactions again, none that the load ran without a registered
// Tx, whose replaced nodes could never be recycled — and if the store kept
// more than a slot and its bucket head per key, it would show here.
func TestFollowerBootstrapFootprint(t *testing.T) {
	const keys = 1 << 16
	// mhash's TestBytesPerKey ceiling plus half a MB for what a node holds
	// beside its store: two workers' slot caches, the pipeline's buffers
	// and the feed's default rings. Those hold what they retain, which is
	// none of a bootstrap, whose load tickets compact the feed, so they
	// are only their chunk directories here (rings allocated whole, 1.5
	// MB, read about 56 bytes a key).
	const ceiling = 40 + 8
	newStore := func() Backend { return hashStore(t, keys/8, 2*keys) }
	store := newStore()
	store.Preload(evenKeys(keys))
	leader, err := NewNode(NodeConfig{Backend: store})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()

	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	replicaStore := newStore()
	before := heap()
	fol, err := NewNode(NodeConfig{Backend: replicaStore, Follow: ts.URL, Service: Config{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	waitFor(t, 30*time.Second, "follower bootstrap", fol.Follower().Ready)
	perKey := float64(heap()-before) / keys
	misses, gets := poolMisses(replicaStore)
	t.Logf("%.1f bytes of live heap per key; %d pool gets for %d keys, %.2f misses/key", perKey, gets, keys, float64(misses)/keys)
	if perKey > ceiling {
		t.Errorf("bootstrap of %d keys left %.1f bytes of live heap per key, ceiling %d", keys, perKey, ceiling)
	}
	if gets != keys {
		t.Errorf("bootstrap of %d keys made %d pool gets, want exactly one node slot per key", keys, gets)
	}
	if n := counter(replicaStore, "tx_begins"); n != 0 {
		t.Errorf("bootstrap began %d transactions, want none: a snapshot chunk is a load", n)
	}
	runtime.KeepAlive(replicaStore)
}

// A txMontage follower loads its bootstrap with nbMontage's own
// non-transactional operations, each in an epoch section the advancer
// waits out, and the load is as durable as a commit: bootstrap a follower
// whose store already holds stale keys and old values (so the load both
// births and kills payloads, beside the running advancer), persist, crash,
// and the recovered store is exactly the leader's.
func TestTxMontageFollowerLoadIsDurable(t *testing.T) {
	const keys = 1 << 12
	store := hashStore(t, keys/8, 2*keys)
	store.Preload(evenKeys(keys))
	leader, err := NewNode(NodeConfig{Backend: store, Service: Config{Tick: 200 * time.Microsecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()
	var ops []kv.Op
	for k := uint64(0); k < 2*keys; k += 6 {
		ops = append(ops, kv.Op{Kind: kv.OpPut, Key: k, Val: 7 * k}, kv.Op{Kind: kv.OpDelete, Key: k + 2})
	}
	if err := leader.Service().Submit(ops, nil); err != nil {
		t.Fatal(err)
	}

	sys, err := harness.NewSystem("txmontage-hash", harness.SystemOpts{Buckets: keys, KeyRange: 2 * keys})
	if err != nil {
		t.Fatal(err)
	}
	folStore := sys.(Backend)
	local := make([]uint64, 2*keys) // every key, odd ones stale, with the preload's old values
	for i := range local {
		local[i] = uint64(i)
	}
	folStore.Preload(local)
	fol, err := NewNode(NodeConfig{Backend: folStore, Follow: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "follower bootstrap", fol.Follower().Ready)
	fol.Close()

	state := func(be Backend) map[uint64]uint64 {
		m := map[uint64]uint64{}
		be.(snapshotter).StateSnapshot(func(k, v uint64) bool {
			m[k] = v
			return true
		})
		return m
	}
	want := state(store)
	if got := state(folStore); !maps.Equal(got, want) {
		t.Fatalf("follower holds %d keys before the crash, leader %d: the bootstrap is wrong, not its durability", len(got), len(want))
	}
	rec := folStore.(harness.Recoverable)
	rec.Persist()
	if n := rec.CrashAndRecover(); n != len(want) {
		t.Errorf("recovered %d payloads, want %d", n, len(want))
	}
	got := state(folStore)
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			t.Errorf("after the crash key %d = %d (present %v), want %d", k, g, ok, v)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("after the crash key %d is back: the bootstrap deleted it", k)
		}
	}
}

// BenchmarkSnapshotStream prices the leader's half of a bootstrap: the
// /v1/snapshot handler alone, scanning the benchmark's preloaded store
// (2^19 even keys in medley-hash@8, 2^16 buckets a shard) and writing
// every frame to a ResponseWriter that discards it. ns/key is the scan
// and the framing; B/op is what a request allocates.
func BenchmarkSnapshotStream(b *testing.B) {
	const keys = 1 << 19
	store := hashStore(b, 1<<16, 1<<20)
	store.Preload(evenKeys(keys))
	node, err := NewNode(NodeConfig{Backend: store})
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	h := node.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/snapshot", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		h.ServeHTTP(discard{h: http.Header{}}, req)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*keys), "ns/key")
}

// BenchmarkFollowerBootstrap prices the rung stack-repl's setup_s is made
// of: a fresh follower node reaching Ready() against a leader holding 2^17
// even keys, over a real loopback listener. B/op and allocs/op cover the
// leader's scan and encode and the follower's decode and apply together.
func BenchmarkFollowerBootstrap(b *testing.B) {
	const keys = 1 << 17
	newStore := func() Backend { return hashStore(b, 1<<16, 1<<20) } // sized as cmd/medleyd sizes it
	store := newStore()
	store.Preload(evenKeys(keys))
	leader, err := NewNode(NodeConfig{Backend: store})
	if err != nil {
		b.Fatal(err)
	}
	defer leader.Close()
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()
	var misses uint64 // pool gets the followers' arenas carved fresh
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		store, client := newStore(), &http.Client{Transport: &http.Transport{}}
		runtime.GC()
		b.StartTimer()
		fol, err := NewNode(NodeConfig{Backend: store, Follow: ts.URL, Client: client})
		if err != nil {
			b.Fatal(err)
		}
		for !fol.Follower().Ready() {
			time.Sleep(200 * time.Microsecond)
		}
		b.StopTimer()
		if st := fol.Follower().Stats(); st.BootstrapKeys != keys {
			b.Fatalf("bootstrap applied %d keys, want %d", st.BootstrapKeys, keys)
		}
		m, _ := poolMisses(store)
		misses += m
		fol.Close()
		client.CloseIdleConnections()
		b.StartTimer()
	}
	b.ReportMetric(float64(keys)*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
	b.ReportMetric(float64(misses)/float64(keys)/float64(b.N), "misses/key")
}
