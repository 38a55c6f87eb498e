package service

import (
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"medley/internal/cdc"
	"medley/internal/kv"
	"medley/internal/obs"
	"medley/internal/replica"
)

// Node is one medleyd process: a Service, the change feed its backend
// publishes, and (in follower mode) a replica.Follower replaying a
// leader. It is the one way to serve a Backend, and the same transaction
// pipeline serves both roles' clients:
//
//   - A leader executes client batches; every committed write publishes
//     to the node's feed, which /v1/watch and /v1/snapshot serve.
//   - A follower rejects writes (503 "not leader" — retryable against
//     the real leader), serves bounded-staleness reads (replay lag above
//     MaxLag answers 409 with Retry-After), and replays the leader's
//     feed on executors of its own store, beside the pipeline rather than
//     through it, waiting for no tick and no pool slot: a watch chunk is
//     one ExecBatch, a transaction, and a bootstrap chunk is one Load,
//     the structure's bare puts outside any transaction. Those executors
//     publish to the node's feed too, one ticket a chunk, so a promoted
//     follower is immediately followable.
//
// A backend that cannot publish a change feed gets a node without one: a
// leader that serves batches but no /v1/watch or /v1/snapshot, which
// nothing can follow and which cannot follow.
//
// Promotion (POST /v1/promote, Node.Promote, or automatically once
// PromoteAfter consecutive leader round trips fail) stops the replay
// loops and flips the role; acked-but-unreplicated leader writes are
// lost, which the divergence harness measures rather than hides (see
// internal/chaos).
type Node struct {
	svc        *Service
	feed       *cdc.Feed         // nil when the backend cannot publish one
	fol        *replica.Follower // nil on a born-leader node
	maxLag     uint64
	maxSilence time.Duration
	// replay holds the executors applyReplay and loadReplay run on, one
	// slot per service worker; a nil slot is an executor not yet created.
	replay chan kv.Executor

	leader   atomic.Bool
	promoted atomic.Bool
	stopCh   chan struct{}
}

// NodeConfig assembles a Node: the store it serves, the pipeline's
// sizing, and replication.
type NodeConfig struct {
	Backend Backend
	Service Config

	// FeedShards is the change feed's stream count (default 4). Leader
	// and follower must agree; the follower validates at bootstrap.
	FeedShards int
	// Follow, when non-empty, starts the node as a follower of the
	// leader at this base URL.
	Follow string
	// MaxLag is the follower's staleness bound: reads are rejected with
	// 409 while replay lag exceeds it (default 4096 entries).
	MaxLag uint64
	// MaxSilence is the staleness bound a partition cannot fool: a
	// follower whose feed is cut stops seeing the leader's heads advance,
	// so its lag reads as zero exactly when it is most stale. Reads are
	// rejected with 409 once the follower has heard nothing (no chunk, no
	// heartbeat) from the leader for this long (default 1s; negative
	// disables).
	MaxSilence time.Duration
	// PromoteAfter is how many consecutive failed leader round trips
	// auto-promote the follower (0 disables; promotion is then manual
	// via POST /v1/promote).
	PromoteAfter int
	// Client issues the follower's HTTP requests (default fresh client).
	Client *http.Client
	// Mangle is the replication fault-injection seam, passed through to
	// the follower (tests only).
	Mangle func(shard int, entries []cdc.Entry) []cdc.Entry

	// feedRing bounds each stream's retained entries (0: cdc's default).
	// Tests shrink it to force compaction.
	feedRing int
}

// Role strings reported by /healthz and PromoteResponse.
const (
	RoleLeader   = "leader"
	RoleFollower = "follower"
)

// ErrNotLeader answers writes sent to a follower: nothing executed;
// retry against the leader (or whoever /healthz now says leads).
var ErrNotLeader = fmt.Errorf("service: not leader")

// ErrNoFeed refuses a follower over a backend whose executors cannot
// publish a change feed: a leader of that system serves no feed to
// replay, and one that did would read as a follower never behind.
var ErrNoFeed = errors.New("service: backend cannot publish a change feed")

// NewNode builds and starts a node. A follower starts replaying
// immediately (retrying until its leader is reachable).
func NewNode(cfg NodeConfig) (*Node, error) {
	var feed *cdc.Feed
	switch {
	case cfg.Backend.SupportsChangeFeed():
		if cfg.FeedShards <= 0 {
			cfg.FeedShards = 4
		}
		feed = cdc.New(cfg.FeedShards, cfg.feedRing, nil)
	case cfg.Follow != "":
		return nil, fmt.Errorf("%w: %s", ErrNoFeed, cfg.Backend.Name())
	}
	if cfg.MaxLag == 0 {
		cfg.MaxLag = 4096
	}
	if cfg.MaxSilence == 0 {
		cfg.MaxSilence = time.Second
	}
	cfg.Service.feed = feed
	n := &Node{
		svc:        newService(cfg.Backend, cfg.Service),
		feed:       feed,
		maxLag:     cfg.MaxLag,
		maxSilence: cfg.MaxSilence,
		stopCh:     make(chan struct{}),
	}
	n.replay = make(chan kv.Executor, n.svc.Config().Workers)
	for range cap(n.replay) {
		n.replay <- nil
	}
	if cfg.Follow == "" {
		n.leader.Store(true)
		return n, nil
	}

	var scan func(shard int, fn func(key, val uint64))
	if snap, ok := cfg.Backend.(snapshotter); ok {
		scan = func(shard int, fn func(key, val uint64)) {
			snap.StateSnapshot(func(key, val uint64) bool {
				if shard == replica.AllShards || feed.ShardOf(key) == shard {
					fn(key, val)
				}
				return true
			})
		}
	}
	fol, err := replica.Start(replica.Config{
		Leader: cfg.Follow,
		Shards: cfg.FeedShards,
		Apply:  n.applyReplay,
		Load:   n.loadReplay,
		Scan:   scan,
		Client: cfg.Client,
		// Auto-promotion reuses the follower's failure threshold; with
		// auto-promotion off, keep the default detection threshold so
		// repl_leader_down still reports.
		ProbeFails: cfg.PromoteAfter,
		Mangle:     cfg.Mangle,
	})
	if err != nil {
		n.svc.Close()
		return nil, err
	}
	n.fol = fol
	if cfg.PromoteAfter > 0 {
		go func() {
			select {
			case <-n.stopCh:
			case <-fol.LeaderDown():
				n.Promote()
			}
		}()
	}
	return n, nil
}

// applyReplay runs one watch chunk as one transaction on a replay
// executor — the execution and feed publication client writes get,
// without their admission and tick. At most Workers chunks, of watch
// streams and bootstraps together, run at once; the rest wait for an
// executor. The follower stops before the service closes (Close,
// Promote), so no chunk runs on a closed store.
func (n *Node) applyReplay(ops []kv.Op) error {
	ex := n.takeReplay()
	defer func() { n.replay <- ex }()
	return ex.ExecBatch(ops, nil)
}

// loadReplay applies one bootstrap chunk on a replay executor through the
// store's bulk load: the chunk's puts and deletes run as bare linearizable
// operations, not as a transaction, and publish to the node's feed as one
// ticket (see the Load contract in replica.Config).
func (n *Node) loadReplay(ops []kv.Op) error {
	ex := n.takeReplay()
	defer func() { n.replay <- ex }()
	l, ok := ex.(loader)
	if !ok {
		return fmt.Errorf("service: %s executors cannot load a snapshot chunk", n.svc.be.Name())
	}
	l.Load(ops)
	return nil
}

// takeReplay takes a replay executor, creating it on first use.
func (n *Node) takeReplay() kv.Executor {
	if ex := <-n.replay; ex != nil {
		return ex
	}
	return n.svc.newExecutor()
}

// Service returns the node's transaction pipeline.
func (n *Node) Service() *Service { return n.svc }

// Feed returns the node's change feed, nil when its backend cannot
// publish one.
func (n *Node) Feed() *cdc.Feed { return n.feed }

// Role reports "leader" or "follower".
func (n *Node) Role() string {
	if n.leader.Load() {
		return RoleLeader
	}
	return RoleFollower
}

// Promoted reports whether this node became leader by promotion.
func (n *Node) Promoted() bool { return n.promoted.Load() }

// Follower exposes the replica (nil on a born leader); its Stats keep
// reporting after promotion.
func (n *Node) Follower() *replica.Follower { return n.fol }

// Promote flips a follower into a leader: stop replaying, start
// accepting writes. It reports whether this call performed the flip.
// Replay entries already in flight finish first (Stop waits), so the
// promoted store is exactly the replayed prefix plus whatever clients
// write next.
func (n *Node) Promote() bool {
	if n.leader.Load() {
		return false
	}
	if n.fol != nil {
		n.fol.Stop()
	}
	if n.leader.CompareAndSwap(false, true) {
		n.promoted.Store(true)
		return true
	}
	return false
}

// Handler serves the node's HTTP surface (server.go).
func (n *Node) Handler() http.Handler { return handler(n) }

// Close stops replication and drains the pipeline.
func (n *Node) Close() {
	select {
	case <-n.stopCh:
	default:
		close(n.stopCh)
	}
	if n.fol != nil {
		n.fol.Stop()
	}
	n.svc.Close()
}

// gateBatch is the follower-mode admission gate, applied after
// validation and before Submit. Leaders pass everything through.
func (n *Node) gateBatch(ops []kv.Op) (code int, msg string, retry time.Duration) {
	if n.leader.Load() {
		return 0, "", 0
	}
	for i := range ops {
		switch ops[i].Kind {
		case kv.OpGet, kv.OpScan:
		default:
			return http.StatusServiceUnavailable, ErrNotLeader.Error(), 0
		}
	}
	if !n.fol.Ready() {
		return http.StatusConflict, "replica bootstrapping", 50 * time.Millisecond
	}
	if lag := n.fol.Lag(); lag > n.maxLag {
		return http.StatusConflict,
			fmt.Sprintf("replica lag %d exceeds max_lag %d", lag, n.maxLag),
			50 * time.Millisecond
	}
	if quiet := n.fol.SinceContact(); n.maxSilence > 0 && quiet > n.maxSilence {
		return http.StatusConflict,
			fmt.Sprintf("replica silent for %v exceeds max_silence %v", quiet.Round(time.Millisecond), n.maxSilence),
			50 * time.Millisecond
	}
	return 0, "", 0
}

// replMetrics exports the replication counters merged into GET /metrics.
func (n *Node) replMetrics() []obs.Metric {
	role := uint64(0)
	if n.leader.Load() {
		role = 1
	}
	out := []obs.Metric{
		{Name: "repl_is_leader", Value: role},
	}
	if n.promoted.Load() {
		out = append(out, obs.Metric{Name: "repl_promoted", Value: 1})
	}
	if n.fol != nil {
		st := n.fol.Stats()
		down := uint64(0)
		if st.LeaderDown {
			down = 1
		}
		ready := uint64(0)
		if st.Ready {
			ready = 1
		}
		out = append(out,
			obs.Metric{Name: "repl_applied", Value: st.Applied},
			obs.Metric{Name: "repl_gaps", Value: st.Gaps},
			obs.Metric{Name: "repl_reordered", Value: st.Reordered},
			obs.Metric{Name: "repl_resyncs", Value: st.Resyncs},
			obs.Metric{Name: "repl_reconnects", Value: st.Reconnects},
			obs.Metric{Name: "repl_failures", Value: st.Failures},
			obs.Metric{Name: "repl_lag", Value: st.Lag},
			obs.Metric{Name: "repl_ready", Value: ready},
			obs.Metric{Name: "repl_leader_down", Value: down},
			obs.Metric{Name: "repl_bootstrap_keys", Value: st.BootstrapKeys},
			obs.Metric{Name: "repl_bootstrap_ms", Value: st.BootstrapNanos / 1e6},
		)
	}
	return out
}
