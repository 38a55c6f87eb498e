// Package replica is the follower half of the replication subsystem: it
// bootstraps every shard from one streamed fuzzy snapshot of the leader
// (GET /v1/snapshot), loaded through a pipeline of concurrent chunks,
// then replays the commit-ordered change feed (GET /v1/watch) per shard
// with gap and reorder detection, and tracks per-shard replay lag so the
// serving layer can enforce a bounded-staleness read contract.
//
// The follower does not own a store: it writes through two seams. Load
// takes a bootstrap's chunks, whose keys are distinct and unread until
// Ready, so nothing in one needs to be atomic: service.Node runs each as
// the structure's bare linearizable operations, outside any transaction.
// Apply takes a watch chunk, which is a run of commits: service.Node runs
// it as one transaction. Both run on executors of the node's own store
// with its change feed attached — not through the node's client pipeline,
// so replay waits for no tick and no admission slot — and a follower's own
// feed is populated as it replays: a promoted follower is immediately
// followable. Replay is idempotent: feed values are absolute post-states,
// so re-applying a chunk after a reconnect, or double-applying writes a
// fuzzy snapshot already contained, converges (last writer wins).
package replica

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"medley/internal/cdc"
	"medley/internal/kv"
)

// Config wires a Follower to its leader and its local store.
type Config struct {
	// Leader is the leader's base URL (e.g. http://127.0.0.1:7070).
	Leader string
	// Shards is the leader's feed shard count; bootstrap validates it
	// against the leader's reported count and refuses to apply on
	// mismatch (the shard routing would scatter keys).
	Shards int
	// Apply runs one watch chunk (puts and deletes only) atomically
	// against the local store, and must be safe for concurrent use, with
	// itself and with Load. Stream replay issues one Apply per shard at a
	// time, in feed order — per-key order is per-shard order. Apply should
	// return as soon as its chunk has committed: one queued behind other
	// work (a batching tick, a full admission pool) delays every later
	// chunk of its shard by its wait.
	Apply func(ops []kv.Op) error
	// Load writes one bootstrap chunk (puts and deletes only) into the
	// local store. It need not be atomic: each op may take effect on its
	// own, as a linearizable operation. A bootstrap keeps up to
	// loadInFlight calls running at once, in no order, beside other
	// shards' Apply calls. Its chunks touch keys nothing else writes: a
	// snapshot's keys are distinct, the stale-key deletes are exactly the
	// local keys it lacks, no stream of a shard being bootstrapped runs
	// until every Load returned, and other shards' streams hold other
	// keys. Nothing reads them either, until the shards are Ready: a
	// follower serves no reads before. Those calls are all the bootstrap
	// waits on, so Load should return as soon as its chunk is written.
	Load func(ops []kv.Op) error
	// Scan, when non-nil, enumerates the local store's live keys in one
	// feed shard, or in all of them for AllShards. Bootstraps over existing
	// state use it to delete keys the fresh snapshot no longer contains (a
	// snapshot is pure puts; without Scan a re-bootstrap could leak deleted
	// keys).
	Scan func(shard int, fn func(key, val uint64))
	// Client issues the HTTP requests (default: a dedicated client with
	// no overall timeout — watch streams are long-lived).
	Client *http.Client
	// ProbeFails is how many consecutive leader round-trip failures
	// (across all shards) trip LeaderDown (default 5; negative disables).
	ProbeFails int
	// Mangle, when non-nil, transforms each received entry chunk before
	// gap detection and apply — the fault-injection seam divergence tests
	// use to drop, reorder, or corrupt entries in flight.
	Mangle func(shard int, entries []cdc.Entry) []cdc.Entry
}

// Stats is a snapshot of the follower's replication counters.
type Stats struct {
	Shards     int
	Applied    uint64 // entries applied to the local store
	Gaps       uint64 // sequence gaps observed (entries skipped upstream)
	Reordered  uint64 // entries arriving at or below the applied cursor
	Resyncs    uint64 // snapshot re-bootstraps after compaction
	Reconnects uint64 // watch stream reconnects
	Failures   uint64 // leader round trips that failed
	Lag        uint64 // max over shards of head - applied
	Ready      bool   // all shards bootstrapped
	LeaderDown bool   // ProbeFails consecutive failures observed
	// BootstrapKeys and BootstrapNanos describe the last completed
	// bootstrap: snapshot keys applied, and request to ready.
	BootstrapKeys  uint64
	BootstrapNanos uint64
}

// AllShards, where a shard number is expected (the snapshot request,
// Config.Scan), means every feed shard.
const AllShards = -1

// Follower replicates one leader. Create with Start, stop with Stop.
type Follower struct {
	cfg     Config
	applied []atomic.Uint64 // per-shard replay cursor
	head    []atomic.Uint64 // per-shard last known leader head
	ready   []atomic.Bool   // per-shard bootstrapped

	lastContact atomic.Int64 // unix nanos of the last decoded chunk or bootstrap

	appliedN   atomic.Uint64
	gaps       atomic.Uint64
	reordered  atomic.Uint64
	resyncs    atomic.Uint64
	reconnects atomic.Uint64
	failures   atomic.Uint64
	bootKeys   atomic.Uint64
	bootNanos  atomic.Uint64

	consecFails atomic.Int64
	downOnce    sync.Once
	downCh      chan struct{}

	// ctx ends at Stop; every leader request carries it, so a round trip
	// blocked on a stalled leader returns when the follower stops.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// errCompacted marks a stream or cursor that fell off the leader's ring.
var errCompacted = fmt.Errorf("replica: cursor compacted")

// Start launches replication: one bootstrap of all shards, then one replay
// goroutine per feed shard. It returns immediately; an unreachable leader
// is retried until Stop (the follower may legitimately start first).
func Start(cfg Config) (*Follower, error) {
	if cfg.Leader == "" || cfg.Shards <= 0 || cfg.Apply == nil || cfg.Load == nil {
		return nil, fmt.Errorf("replica: Leader, Shards, Apply and Load are required")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.ProbeFails == 0 {
		cfg.ProbeFails = 5
	}
	f := &Follower{
		cfg:     cfg,
		applied: make([]atomic.Uint64, cfg.Shards),
		head:    make([]atomic.Uint64, cfg.Shards),
		ready:   make([]atomic.Bool, cfg.Shards),
		downCh:  make(chan struct{}),
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	f.lastContact.Store(time.Now().UnixNano())
	f.wg.Add(1)
	go f.run()
	return f, nil
}

// Stop halts replication and waits for the replay goroutines. The applied
// state stays as is — promotion builds on it.
func (f *Follower) Stop() {
	f.cancel()
	f.wg.Wait()
}

// LeaderDown is closed once ProbeFails consecutive leader round trips
// have failed — the promotion trigger service.Node watches.
func (f *Follower) LeaderDown() <-chan struct{} { return f.downCh }

// Ready reports whether every shard has bootstrapped (reads before that
// would observe an arbitrary prefix of the leader's state).
func (f *Follower) Ready() bool {
	for s := range f.ready {
		if !f.ready[s].Load() {
			return false
		}
	}
	return true
}

// Lag is the staleness bound input: the maximum over shards of the last
// known leader head minus the replay cursor. It undercounts while the
// leader is unreachable (heads stop advancing), which is why LeaderDown
// is a separate signal.
func (f *Follower) Lag() uint64 {
	var lag uint64
	for s := range f.applied {
		h, a := f.head[s].Load(), f.applied[s].Load()
		if h > a && h-a > lag {
			lag = h - a
		}
	}
	return lag
}

// Applied returns the replay cursor of one shard.
func (f *Follower) Applied(shard int) uint64 { return f.applied[shard].Load() }

// SinceContact is how long ago the follower last heard anything from the
// leader — a decoded watch chunk (heartbeats count) or a completed
// bootstrap. Lag undercounts under a partition because heads stop
// advancing; silence is the staleness signal that survives a cut feed,
// so the serving layer bounds both.
func (f *Follower) SinceContact() time.Duration {
	return time.Duration(time.Now().UnixNano() - f.lastContact.Load())
}

// Stats snapshots the counters.
func (f *Follower) Stats() Stats {
	down := false
	select {
	case <-f.downCh:
		down = true
	default:
	}
	return Stats{
		Shards:     f.cfg.Shards,
		Applied:    f.appliedN.Load(),
		Gaps:       f.gaps.Load(),
		Reordered:  f.reordered.Load(),
		Resyncs:    f.resyncs.Load(),
		Reconnects: f.reconnects.Load(),
		Failures:   f.failures.Load(),
		Lag:        f.Lag(),
		Ready:      f.Ready(),
		LeaderDown: down,

		BootstrapKeys:  f.bootKeys.Load(),
		BootstrapNanos: f.bootNanos.Load(),
	}
}

func (f *Follower) stopped() bool { return f.ctx.Err() != nil }

// fail records one failed leader round trip and trips LeaderDown at the
// configured threshold.
func (f *Follower) fail() {
	f.failures.Add(1)
	if n := f.consecFails.Add(1); f.cfg.ProbeFails > 0 && n >= int64(f.cfg.ProbeFails) {
		f.downOnce.Do(func() { close(f.downCh) })
	}
}

func (f *Follower) ok() {
	f.consecFails.Store(0)
	f.lastContact.Store(time.Now().UnixNano())
}

// run bootstraps every shard from one snapshot, retrying until it
// succeeds, then starts the per-shard replay loops together.
func (f *Follower) run() {
	defer f.wg.Done()
	for f.bootstrap(AllShards) != nil {
		if f.stopped() {
			return
		}
		f.fail()
		f.sleep()
	}
	f.ok()
	for s := 0; s < f.cfg.Shards; s++ {
		f.wg.Add(1)
		go f.replay(s)
	}
}

// replay is one shard's loop: stream; on any failure back off and
// reconnect from the cursor; on compaction re-bootstrap that shard.
func (f *Follower) replay(shard int) {
	defer f.wg.Done()
	for !f.stopped() {
		if !f.ready[shard].Load() {
			if err := f.bootstrap(shard); err != nil {
				f.fail()
				f.sleep()
				continue
			}
			f.ok()
		}
		err := f.stream(shard)
		if f.stopped() {
			return
		}
		if err == errCompacted {
			// Too far behind the ring: overflow-to-snapshot.
			f.resyncs.Add(1)
			f.ready[shard].Store(false)
			continue
		}
		f.fail()
		f.reconnects.Add(1)
		f.sleep()
	}
}

// retryInterval paces reconnects after a failed round trip.
const retryInterval = 50 * time.Millisecond

func (f *Follower) sleep() {
	select {
	case <-f.ctx.Done():
	case <-time.After(retryInterval):
	}
}

// get issues one leader request under the follower's context. gone is
// the error a 410 maps to.
func (f *Follower) get(path string, gone error) (*http.Response, error) {
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, f.cfg.Leader+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusGone && gone != nil {
			return nil, gone
		}
		return nil, fmt.Errorf("replica: GET %s: status %d", path, resp.StatusCode)
	}
	return resp, nil
}

// chunkMax bounds one Apply or Load call (stays under the service layer's
// per-request op limit).
const chunkMax = SnapshotChunkKeys

// loadInFlight is how many bootstrap Load calls run at once while the
// next chunk is read. A node's Load is a chunk of bare puts on one of its
// replay executors (one per service worker), so the calls overlap the
// stream and each other but wait for nothing else. Measured with two
// executors on two CPUs (EXPERIMENTS.md, "A bootstrap chunk is a load"):
// 1, 2, 4, 8 in flight bootstrap 2^17 keys in 38.5, 35.2, 32.6, 32.7 ms
// at the medians of ten rotated runs. One call at a time leaves an
// executor idle while the next chunk is parsed; from four up both
// executors stay busy and the times tie. Eight keeps a node with up to
// eight executors busy too, at 12 KB of ops per chunk in flight.
const loadInFlight = 8

// loadPipe keeps up to loadInFlight Load calls running while its
// owner fills the next chunk.
type loadPipe struct {
	load func([]kv.Op) error
	free chan []kv.Op // idle chunk buffers; its capacity bounds the calls in flight
	cur  []kv.Op
	wg   sync.WaitGroup
	err  atomic.Pointer[error] // first Load failure
}

func newLoadPipe(load func([]kv.Op) error) *loadPipe {
	p := &loadPipe{load: load, free: make(chan []kv.Op, loadInFlight)}
	for i := 0; i < loadInFlight; i++ {
		p.free <- make([]kv.Op, 0, chunkMax)
	}
	return p
}

// add appends op to the chunk being filled, sending it off when full; it
// blocks while loadInFlight chunks are already out.
func (p *loadPipe) add(op kv.Op) {
	if p.cur == nil {
		p.cur = <-p.free
	}
	if p.cur = append(p.cur, op); len(p.cur) == chunkMax {
		p.flush()
	}
}

func (p *loadPipe) flush() {
	ops := p.cur
	if p.cur = nil; len(ops) == 0 {
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		if err := p.load(ops); err != nil {
			p.err.CompareAndSwap(nil, &err)
		}
		p.free <- ops[:0]
	}()
}

// failed returns the first Load error so far.
func (p *loadPipe) failed() error {
	if e := p.err.Load(); e != nil {
		return *e
	}
	return nil
}

// bootstrap streams a fuzzy snapshot of shard (or AllShards) into the
// local store: puts for every snapshot key as its chunk arrives, then
// deletes for local keys the snapshot did not hold (via Scan). Only when
// the trailer confirmed the stream complete and every Load has returned
// does it set the replay cursors to the snapshot's anchors and mark the
// shards ready — a cut or failed bootstrap publishes nothing and is
// retried whole. Idempotent and safe over existing state.
func (f *Follower) bootstrap(shard int) error {
	start := time.Now()
	path := "/v1/snapshot"
	if shard != AllShards {
		path += "?shard=" + strconv.Itoa(shard)
	}
	resp, err := f.get(path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 32<<10)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("replica: snapshot header: %w", err)
	}
	var hdr SnapshotHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return fmt.Errorf("replica: snapshot header: %w", err)
	}
	if hdr.Shards != f.cfg.Shards || len(hdr.FromSeq) != hdr.Shards || slices.Contains(hdr.FromSeq, 0) {
		return fmt.Errorf("replica: snapshot header %+v does not fit a follower configured for %d feed shards",
			hdr, f.cfg.Shards)
	}

	// Local keys the snapshot does not hold are stale. The scan runs first:
	// on a first bootstrap it finds nothing, and the snapshot's key set is
	// never built.
	var local []uint64
	var seen map[uint64]struct{}
	if f.cfg.Scan != nil {
		f.cfg.Scan(shard, func(key, _ uint64) { local = append(local, key) })
	}
	if len(local) > 0 {
		seen = make(map[uint64]struct{}, len(local))
	}

	pipe := newLoadPipe(f.cfg.Load)
	keys, err := f.readSnapshot(br, pipe, seen)
	if err == nil {
		for _, k := range local {
			if _, ok := seen[k]; !ok {
				pipe.add(kv.Op{Kind: kv.OpDelete, Key: k})
			}
		}
		pipe.flush()
	}
	// In-flight batches finish even when the stream failed: nothing of
	// this bootstrap may still be applying once a retry, or Stop, returns.
	pipe.wg.Wait()
	if err = cmp.Or(err, pipe.failed()); err != nil {
		return err
	}

	for s, from := range hdr.FromSeq {
		if shard != AllShards && s != shard {
			continue
		}
		f.applied[s].Store(from - 1)
		if h := f.head[s].Load(); from-1 > h {
			f.head[s].Store(from - 1)
		}
		f.ready[s].Store(true)
	}
	f.bootKeys.Store(keys)
	f.bootNanos.Store(uint64(time.Since(start)))
	return nil
}

// readSnapshot reads frames up to the zero count and the trailer after
// it, handing each frame's keys to pipe while the next is read, and
// returns how many keys the stream carried. It stops at the first Load
// failure, at Stop, at a malformed frame, and at a stream that ends early
// or whose trailer disagrees with what arrived.
func (f *Follower) readSnapshot(br *bufio.Reader, pipe *loadPipe, seen map[uint64]struct{}) (uint64, error) {
	buf := make([]byte, SnapshotFrameMax)
	var keys uint64
	for {
		pairs, err := ReadSnapshotFrame(br, buf)
		if err != nil {
			return keys, fmt.Errorf("replica: snapshot cut after %d keys: %w", keys, err)
		}
		if len(pairs) == 0 {
			break
		}
		if err := cmp.Or(pipe.failed(), f.ctx.Err()); err != nil {
			return keys, err
		}
		for i := range pairs.Len() {
			k, v := pairs.At(i)
			if seen != nil {
				seen[k] = struct{}{}
			}
			pipe.add(kv.Op{Kind: kv.OpPut, Key: k, Val: v})
		}
		keys += uint64(pairs.Len())
	}
	line, err := br.ReadBytes('\n')
	if err != nil {
		return keys, fmt.Errorf("replica: snapshot trailer: %w", err)
	}
	var c SnapshotTrailer
	if err := json.Unmarshal(line, &c); err != nil {
		return keys, fmt.Errorf("replica: snapshot trailer: %w", err)
	}
	if !c.Done {
		return keys, fmt.Errorf("replica: snapshot line after %d keys is not the trailer: %.64q", keys, line)
	}
	if c.Count != keys {
		return keys, fmt.Errorf("replica: snapshot trailer counts %d keys, %d arrived", c.Count, keys)
	}
	return keys, nil
}

// stream opens one watch stream from the cursor and replays chunks until
// the stream ends (reconnect), compacts (re-bootstrap), or Stop.
func (f *Follower) stream(shard int) error {
	resp, err := f.get(fmt.Sprintf("/v1/watch?shard=%d&from=%d", shard, f.applied[shard].Load()+1), errCompacted)
	if err != nil {
		return err
	}
	defer resp.Body.Close()

	dec := json.NewDecoder(resp.Body)
	ops := make([]kv.Op, 0, chunkMax)
	for {
		var c WatchChunk
		if err := dec.Decode(&c); err != nil {
			return err
		}
		f.ok()
		if c.Head > f.head[shard].Load() {
			f.head[shard].Store(c.Head)
		}
		if c.Compacted {
			return errCompacted
		}
		if c.Hb || len(c.Entries) == 0 {
			continue
		}
		entries := c.Entries
		if f.cfg.Mangle != nil {
			entries = f.cfg.Mangle(shard, entries)
		}
		cursor := f.applied[shard].Load()
		ops = ops[:0]
		for _, e := range entries {
			if e.Seq <= cursor {
				// At or below the replay cursor: a reordered (or
				// duplicated) entry. Applying it would let an older value
				// overwrite a newer one — count and skip.
				f.reordered.Add(1)
				continue
			}
			if e.Seq > cursor+1 {
				// Entries vanished between cursor and e.Seq. The keys they
				// carried are now stale or missing locally; the divergence
				// verifier classifies them, this counter localizes when.
				f.gaps.Add(1)
			}
			if e.Del {
				ops = append(ops, kv.Op{Kind: kv.OpDelete, Key: e.Key})
			} else {
				ops = append(ops, kv.Op{Kind: kv.OpPut, Key: e.Key, Val: e.Val})
			}
			cursor = e.Seq
		}
		if len(ops) > 0 {
			if err := f.cfg.Apply(ops); err != nil {
				return err
			}
			f.appliedN.Add(uint64(len(ops)))
		}
		f.applied[shard].Store(cursor)
		if cursor > f.head[shard].Load() {
			f.head[shard].Store(cursor)
		}
	}
}
