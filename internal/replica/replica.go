// Package replica is the follower half of the replication subsystem: it
// bootstraps from a leader's fuzzy snapshot (GET /v1/snapshot), replays
// the commit-ordered change feed (GET /v1/watch) with gap and reorder
// detection, and tracks per-shard replay lag so the serving layer can
// enforce a bounded-staleness read contract.
//
// The follower does not own a store: it applies entries through the
// Apply seam (service.Node routes applies through the node's own
// transaction pipeline, so a follower's own change feed is populated as
// it replays — a promoted follower is immediately followable). Replay is
// idempotent: feed values are absolute post-states, so re-applying a
// chunk after a reconnect, or double-applying writes a fuzzy snapshot
// already contained, converges (last writer wins).
package replica

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
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
	// Apply runs one batch of replay writes (puts and deletes only)
	// atomically against the local store. It must preserve call order per
	// goroutine; the follower issues at most one Apply per shard at a time.
	Apply func(ops []kv.Op) error
	// Scan, when non-nil, enumerates the local store's live keys in one
	// feed shard. Resyncs use it to delete keys the fresh snapshot no
	// longer contains (a snapshot is pure puts; without Scan a
	// re-bootstrap over existing state could leak deleted keys).
	Scan func(shard int, fn func(key, val uint64))
	// Client issues the HTTP requests (default: a dedicated client with
	// no overall timeout — watch streams are long-lived).
	Client *http.Client
	// ProbeFails is how many consecutive leader round-trip failures
	// (across all shards) trip LeaderDown (default 5; negative disables).
	ProbeFails int
	// RetryInterval paces reconnects after a failed round trip
	// (default 50ms).
	RetryInterval time.Duration
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
}

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

	consecFails atomic.Int64
	downOnce    sync.Once
	downCh      chan struct{}

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// errCompacted marks a stream or cursor that fell off the leader's ring.
var errCompacted = fmt.Errorf("replica: cursor compacted")

// Start launches one replay goroutine per feed shard. It returns
// immediately; an unreachable leader is retried until Stop (the follower
// may legitimately start first).
func Start(cfg Config) (*Follower, error) {
	if cfg.Leader == "" || cfg.Shards <= 0 || cfg.Apply == nil {
		return nil, fmt.Errorf("replica: Leader, Shards and Apply are required")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.ProbeFails == 0 {
		cfg.ProbeFails = 5
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 50 * time.Millisecond
	}
	f := &Follower{
		cfg:     cfg,
		applied: make([]atomic.Uint64, cfg.Shards),
		head:    make([]atomic.Uint64, cfg.Shards),
		ready:   make([]atomic.Bool, cfg.Shards),
		downCh:  make(chan struct{}),
		stopCh:  make(chan struct{}),
	}
	f.lastContact.Store(time.Now().UnixNano())
	for s := 0; s < cfg.Shards; s++ {
		f.wg.Add(1)
		go f.run(s)
	}
	return f, nil
}

// Stop halts replication and waits for the replay goroutines. The applied
// state stays as is — promotion builds on it.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() { close(f.stopCh) })
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
	}
}

func (f *Follower) stopped() bool {
	select {
	case <-f.stopCh:
		return true
	default:
		return false
	}
}

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

// run is one shard's replay loop: bootstrap, then stream; on any failure
// back off and reconnect from the cursor; on compaction re-bootstrap.
func (f *Follower) run(shard int) {
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

func (f *Follower) sleep() {
	select {
	case <-f.stopCh:
	case <-time.After(f.cfg.RetryInterval):
	}
}

// applyBatchMax bounds one Apply call (stays under the service layer's
// per-request op limit).
const applyBatchMax = 512

// bootstrap fetches the shard's fuzzy snapshot and folds it into the
// local store: puts for every snapshot key, deletes for local keys the
// snapshot no longer has (via Scan), then sets the replay cursor to the
// snapshot's anchor. Idempotent and safe over existing state.
func (f *Follower) bootstrap(shard int) error {
	resp, err := f.cfg.Client.Get(fmt.Sprintf("%s/v1/snapshot?shard=%d", f.cfg.Leader, shard))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("replica: snapshot status %d", resp.StatusCode)
	}
	var snap SnapshotResponse
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return err
	}
	if snap.Shards != f.cfg.Shards {
		return fmt.Errorf("replica: leader has %d feed shards, follower configured for %d",
			snap.Shards, f.cfg.Shards)
	}

	// Local keys the snapshot does not hold are stale. The scan runs first:
	// on a first bootstrap it finds an empty shard, and the snapshot's key
	// set is never built.
	var stale []uint64
	if f.cfg.Scan != nil {
		f.cfg.Scan(shard, func(key, _ uint64) { stale = append(stale, key) })
	}
	if len(stale) > 0 {
		in := make(map[uint64]struct{}, len(snap.Entries))
		for _, e := range snap.Entries {
			in[e.Key] = struct{}{}
		}
		local := stale
		stale = stale[:0]
		for _, k := range local {
			if _, ok := in[k]; !ok {
				stale = append(stale, k)
			}
		}
	}

	ops := make([]kv.Op, 0, applyBatchMax)
	flush := func() error {
		if len(ops) == 0 {
			return nil
		}
		err := f.cfg.Apply(ops)
		ops = ops[:0]
		return err
	}
	for _, e := range snap.Entries {
		ops = append(ops, kv.Op{Kind: kv.OpPut, Key: e.Key, Val: e.Val})
		if len(ops) == applyBatchMax {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	for _, k := range stale {
		ops = append(ops, kv.Op{Kind: kv.OpDelete, Key: k})
		if len(ops) == applyBatchMax {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}

	if snap.FromSeq > 0 {
		f.applied[shard].Store(snap.FromSeq - 1)
		if h := f.head[shard].Load(); snap.FromSeq-1 > h {
			f.head[shard].Store(snap.FromSeq - 1)
		}
	}
	f.ready[shard].Store(true)
	return nil
}

// stream opens one watch stream from the cursor and replays chunks until
// the stream ends (reconnect), compacts (re-bootstrap), or Stop.
func (f *Follower) stream(shard int) error {
	from := f.applied[shard].Load() + 1
	u := fmt.Sprintf("%s/v1/watch?%s", f.cfg.Leader, url.Values{
		"shard": {fmt.Sprint(shard)},
		"from":  {fmt.Sprint(from)},
	}.Encode())
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusGone {
		io.Copy(io.Discard, resp.Body)
		return errCompacted
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("replica: watch status %d", resp.StatusCode)
	}

	// Terminate the blocking read when Stop arrives mid-stream.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-f.stopCh:
			resp.Body.Close()
		case <-done:
		}
	}()

	dec := json.NewDecoder(resp.Body)
	ops := make([]kv.Op, 0, applyBatchMax)
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
