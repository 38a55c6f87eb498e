package core

import (
	"sync"
	"sync/atomic"
)

// TxManager holds metadata shared among all Composable structures intended
// for use in the same transactions (the paper's TxManager). Structures
// constructed against the same manager may participate in the same
// transaction; the manager also aggregates statistics.
//
// Statistics are kept in per-worker shards: Register hands each Tx its own
// cache-line-padded StatShard, so the hot transaction path (begin, commit,
// abort, help) never contends on a shared counter word. Stats folds the
// shards into one snapshot on demand.
type TxManager struct {
	nextTID atomic.Int64
	nofast  atomic.Bool

	mu     sync.Mutex
	shards []*StatShard
}

// NewTxManager creates a transaction manager.
func NewTxManager() *TxManager {
	return &TxManager{}
}

// EnablePooling does nothing. A Tx recycles its read sets, as it does
// the slab indexes it unlinks, exactly when it has an EBR handle
// (Tx.SetSMR); there is no second switch. The method is kept only because
// the benchmark's layer ladder (benchmark/ladder.go) still calls it.
func (m *TxManager) EnablePooling() {}

// DisableFastPaths turns the commit fast paths off for Txs registered
// afterwards: every transaction then runs the full publish/InProg commit
// handshake regardless of its write-set size. The fast paths are on by
// default; the switch exists for ablation (the -nofast system suffix).
// Call it before registering workers.
//
// The fast paths are pure eliding optimizations (see Tx.End): disabling
// them changes the atomic-operation count of a commit, never its outcome.
func (m *TxManager) DisableFastPaths() { m.nofast.Store(true) }

// FastPathsEnabled reports whether Txs registered now take the commit fast
// paths.
func (m *TxManager) FastPathsEnabled() bool { return !m.nofast.Load() }

// StatShard is one worker's slice of the manager's statistics: every
// counter is written by exactly one goroutine on the transaction fast path
// (cross-thread writes happen only on the rare contention events they
// count), and padded so that neighbouring shards never share a cache line.
type StatShard struct {
	Begins          atomic.Uint64 // transactions started
	Commits         atomic.Uint64 // transactions committed
	Aborts          atomic.Uint64 // transactions aborted (any cause)
	AbortsByOthers  atomic.Uint64 // aborts inflicted on this worker by eager contention management
	HelpEvents      atomic.Uint64 // foreign descriptors this worker finalized
	PoolGets        atomic.Uint64 // slot/entry requests served by this worker's pools
	PoolHits        atomic.Uint64 // requests satisfied from a freelist (rest hit the heap)
	PoolRetires     atomic.Uint64 // blocks this worker retired into its pools
	ReadOnlyCommits atomic.Uint64 // commits that took the read-only fast path (no publication, no status CAS)
	FastPathCommits atomic.Uint64 // commits that took any fast path (read-only + single-write)
	_               [48]byte      // pad 10x8-byte counters out to two cache lines
}

// bump increments a single-writer StatShard counter without an atomic RMW:
// every counter except AbortsByOthers (written by the finalizing thread on
// the victim's shard) is written by exactly one goroutine, so a load+store
// pair can never lose an update, and concurrent Stats snapshots still see a
// plain atomic store. On the commit fast paths this is the difference
// between zero RMWs per transaction and three.
func bump(c *atomic.Uint64) { c.Store(c.Load() + 1) }

// bumpN is bump for batched counter flushes (slotCache.settle).
func bumpN(c *atomic.Uint64, n uint64) { c.Store(c.Load() + n) }

// snapshot reads the shard into a Stats value.
func (s *StatShard) snapshot() Stats {
	return Stats{
		Begins:          s.Begins.Load(),
		Commits:         s.Commits.Load(),
		Aborts:          s.Aborts.Load(),
		AbortsByOthers:  s.AbortsByOthers.Load(),
		HelpEvents:      s.HelpEvents.Load(),
		PoolGets:        s.PoolGets.Load(),
		PoolHits:        s.PoolHits.Load(),
		PoolRetires:     s.PoolRetires.Load(),
		ReadOnlyCommits: s.ReadOnlyCommits.Load(),
		FastPathCommits: s.FastPathCommits.Load(),
	}
}

// Register creates a fresh per-goroutine transaction context. Each worker
// goroutine must use its own Tx; the Tx (and its descriptor) is reused
// across that goroutine's transactions.
func (m *TxManager) Register() *Tx {
	tid := int(m.nextTID.Add(1) - 1)
	shard := &StatShard{}
	m.mu.Lock()
	m.shards = append(m.shards, shard)
	m.mu.Unlock()
	d := &Desc{tid: tid, mgr: m, shard: shard}
	// Serial 0 with a terminal status so stale references can never
	// mistake the pristine descriptor for an in-flight transaction.
	d.status.Store(packStatus(0, StatusAborted))
	return &Tx{mgr: m, desc: d, fast: m.FastPathsEnabled()}
}

// Stats is a snapshot of manager counters.
type Stats struct {
	Begins          uint64 // transactions started
	Commits         uint64 // transactions committed
	Aborts          uint64 // transactions aborted (any cause)
	AbortsByOthers  uint64 // aborts inflicted by eager contention management
	HelpEvents      uint64 // foreign descriptors finalized while operating
	PoolGets        uint64 // pool requests (slots + entries) by Txs with an EBR handle
	PoolHits        uint64 // pool requests served from a freelist
	PoolRetires     uint64 // blocks retired into pools
	ReadOnlyCommits uint64 // commits via the read-only fast path
	FastPathCommits uint64 // commits via any fast path (read-only + single-write)
}

// add folds o into s.
func (s *Stats) add(o Stats) {
	s.Begins += o.Begins
	s.Commits += o.Commits
	s.Aborts += o.Aborts
	s.AbortsByOthers += o.AbortsByOthers
	s.HelpEvents += o.HelpEvents
	s.PoolGets += o.PoolGets
	s.PoolHits += o.PoolHits
	s.PoolRetires += o.PoolRetires
	s.ReadOnlyCommits += o.ReadOnlyCommits
	s.FastPathCommits += o.FastPathCommits
}

// Stats returns a snapshot of the manager's counters, aggregated over all
// per-worker shards. Shards are read without synchronizing against their
// writers, so the snapshot is per-counter (not cross-counter) consistent —
// the same guarantee the previous shared-counter implementation gave.
func (m *TxManager) Stats() Stats {
	var out Stats
	m.mu.Lock()
	shards := m.shards
	m.mu.Unlock()
	for _, s := range shards {
		out.add(s.snapshot())
	}
	return out
}

// ShardStats returns one Stats snapshot per registered worker, in
// registration order, for tests and tooling that want to attribute work
// to individual workers rather than read the aggregate.
func (m *TxManager) ShardStats() []Stats {
	m.mu.Lock()
	shards := m.shards
	m.mu.Unlock()
	out := make([]Stats, len(shards))
	for i, s := range shards {
		out[i] = s.snapshot()
	}
	return out
}

// ShardStats returns a snapshot of this transaction context's own statistics
// shard. Callers that drive one Tx per logical task can difference
// consecutive snapshots to attribute commits and aborts to that task without
// touching the manager-wide aggregate.
func (tx *Tx) ShardStats() Stats { return tx.desc.shard.snapshot() }
