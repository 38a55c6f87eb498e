// Package cdc is the commit-ordered change feed of the replication
// subsystem: a per-shard, sequence-numbered stream of committed writes,
// tapped at the store's commit path through the core's ticket hook
// (core.CommitTicketer) and consumed by followers (internal/replica) and
// the service layer's watch endpoint (GET /v1/watch).
//
// Ordering. Writing transactions draw dense tickets strictly before
// their commit point (see internal/core ticket.go for the argument that
// ticket order is a legal serialization order). Owners publish each
// committed ticket's writes; aborted draws are cancelled. The feed admits
// tickets in strictly contiguous order — a reorder buffer holds
// early-arriving publications until every lower ticket has been
// published or cancelled — so entries reach the per-shard rings in a
// global order that respects every write-write and write-read
// dependency. Within a shard, entries get dense per-shard sequence
// numbers starting at 1; per-key order is preserved exactly (a key
// always maps to the same shard), which is what replay correctness needs.
//
// Values are absolute. An entry carries the post-state of its key (the
// value written, or a tombstone), never a delta: replay is idempotent
// and last-writer-wins, so a follower can bootstrap from a fuzzy
// snapshot taken at shard head S and replay from S+1 — entries replayed
// twice, or already folded into the snapshot, converge to the same state.
//
// Bounded memory. Each shard keeps at most the last ringCap entries, in
// chunks allocated as entries arrive, so a ring holds what it retains. A
// reader whose cursor has fallen off the ring gets ErrCompacted and must
// re-bootstrap from a snapshot — the overflow-to-snapshot contract the
// service layer maps to HTTP 410. A bootstrap load (PublishLoad) is a
// compaction point: its writes take seqs but are not retained, and the
// shards it touches drop their windows, since a snapshot already holds
// what it wrote.
package cdc

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Entry is one committed write in a shard's feed: dense per-shard
// sequence number, the key's absolute post-state (Val, or Del for a
// tombstone), and the commit ticket of the transaction that wrote it
// (TxID — shared by all writes of one transaction, globally ordered).
type Entry struct {
	Seq  uint64 `json:"seq"`
	Key  uint64 `json:"key"`
	Val  uint64 `json:"val"`
	Del  bool   `json:"del,omitempty"`
	TxID uint64 `json:"txid"`
}

// Write is one key's post-state in a transaction's publication, before
// shard routing and sequence assignment.
type Write struct {
	Key uint64
	Val uint64
	Del bool
}

// ErrCompacted is returned by ReadFrom when the requested sequence has
// been overwritten in the bounded ring: the reader is too far behind and
// must re-bootstrap from a snapshot, then resume from the snapshot's
// head (overflow-to-snapshot semantics).
var ErrCompacted = errors.New("cdc: sequence compacted, re-bootstrap from snapshot")

// Stats is a snapshot of the feed's counters.
type Stats struct {
	Drawn     uint64 // tickets drawn
	Published uint64 // tickets published with writes
	Cancelled uint64 // tickets cancelled (aborted draws)
	Entries   uint64 // entries admitted across all shards
	Compacted uint64 // entries dropped off ring tails
	Pending   int    // publications parked in the reorder buffer
}

// pendingTx is one settled-but-not-yet-admitted ticket in the reorder
// buffer: a copy of its writes (flagged when they are a load), or a
// cancellation marker.
type pendingTx struct {
	writes    []Write
	load      bool
	cancelled bool
}

// record is one ring slot, 24 bytes: a write without its seq, which the
// slot's position implies. tx is the commit ticket, with the tombstone
// flag in its top bit.
type record struct {
	key, val, tx uint64
}

// delBit is record.tx's tombstone flag; tickets stay below it.
const delBit = 1 << 63

// ringChunk is how many records a ring allocates at once: 24 KB.
const ringChunk = 1024

// ring is one shard's bounded record buffer: size slots in chunks of
// ringChunk records behind a directory, each chunk allocated at the first
// push into it (the last one holds size's remainder), so a ring holds what
// it has retained, and a full one exactly size records. Seq s lives in slot
// (s-1-base) % size while head-s < count: head is the last assigned seq,
// the oldest retained seq is head-count+1, and base is the head at the
// last load ticket, which emptied the ring (0 before one), so that the
// records after it start at slot 0 again.
type ring struct {
	chunks     [][]record
	size       uint64
	head, base uint64
	count      int // live records, <= size
}

func newRing(n int) ring {
	return ring{chunks: make([][]record, (n+ringChunk-1)/ringChunk), size: uint64(n)}
}

// slot returns seq s's record, allocating its chunk on first use.
func (r *ring) slot(s uint64) *record {
	i := (s - 1 - r.base) % r.size
	c := &r.chunks[i/ringChunk]
	if *c == nil {
		*c = make([]record, min(ringChunk, r.size-i/ringChunk*ringChunk))
	}
	return &(*c)[i%ringChunk]
}

func (r *ring) push(w Write, ticket uint64) (compacted bool) {
	if ticket >= delBit {
		panic("cdc: commit ticket reached 2^63, past what a ring record holds")
	}
	if w.Del {
		ticket |= delBit
	}
	r.head++
	*r.slot(r.head) = record{key: w.Key, val: w.Val, tx: ticket}
	if uint64(r.count) < r.size {
		r.count++
		return false
	}
	return true // overwrote the oldest retained record
}

// skip assigns the next seq to a load ticket's write without storing it
// and drops the retained window, returning how many seqs that leaves
// unretained: the write's own and the window's.
func (r *ring) skip() (compacted uint64) {
	r.head++
	compacted = uint64(r.count) + 1
	r.count = 0
	r.base = r.head
	return compacted
}

// entry rebuilds seq s's public Entry from its slot.
func (r *ring) entry(s uint64) Entry {
	rec := *r.slot(s)
	return Entry{Seq: s, Key: rec.key, Val: rec.val, Del: rec.tx&delBit != 0, TxID: rec.tx &^ delBit}
}

// oldest returns the lowest retained seq (head+1 when empty: nothing
// retained, but nothing missed either).
func (r *ring) oldest() uint64 { return r.head - uint64(r.count) + 1 }

// Feed is the commit-ordered change feed over one store: it implements
// core.CommitTicketer (attach with Tx.SetCommitTicketer, typically via
// the executor's AttachFeed seam), collects each committed transaction's
// writes through Publish, and serves them per shard through ReadFrom.
// All methods are safe for concurrent use.
type Feed struct {
	shardOf func(key uint64) int
	next    atomic.Uint64 // last ticket drawn

	mu        sync.Mutex
	watermark atomic.Uint64 // all tickets <= watermark admitted or skipped; written under mu
	pending   map[uint64]pendingTx
	shards    []ring
	notify    chan struct{} // closed and replaced by the first admission after Notify
	armed     bool          // Notify handed out notify since it was last replaced
	closed    bool

	// Stats counters, under mu.
	published, cancelled, entries, compacted uint64
}

// routeMul is the default routing's multiplier: the multiplicative-hash
// family kv.ShardOf uses, with a different odd constant so a key's stream
// is independent of its store shard.
const routeMul = 0xD6E8FEB86659FD93

// New creates a feed over nshards per-shard streams of ringCap retained
// entries each. shardOf routes keys to streams; it must be deterministic
// (per-key order is only preserved within a stream). nil shardOf routes
// by the top bits of key × routeMul, scaled to nshards — key % nshards
// would put a strided key space (the paper's even keys over four streams)
// on half the streams.
func New(nshards, ringCap int, shardOf func(key uint64) int) *Feed {
	if nshards <= 0 {
		nshards = 1
	}
	if ringCap <= 0 {
		ringCap = 1 << 14
	}
	if shardOf == nil {
		n := uint64(nshards)
		shardOf = func(key uint64) int { return int((key * routeMul >> 32) * n >> 32) }
	}
	f := &Feed{
		shardOf: shardOf,
		pending: make(map[uint64]pendingTx),
		shards:  make([]ring, nshards),
		notify:  make(chan struct{}),
	}
	for i := range f.shards {
		f.shards[i] = newRing(ringCap)
	}
	return f
}

// ShardCount is the number of per-shard streams.
func (f *Feed) ShardCount() int { return len(f.shards) }

// ShardOf is the feed's key→stream routing, exported so snapshot
// producers can filter state by the same partition the feed uses.
func (f *Feed) ShardOf(key uint64) int { return f.shardOf(key) }

// DrawTicket implements core.CommitTicketer: one atomic increment, the
// whole pre-visibility commit-path cost of the feed.
func (f *Feed) DrawTicket() uint64 { return f.next.Add(1) }

// CancelTicket implements core.CommitTicketer: the ticket's transaction
// aborted after drawing; mark the hole so the contiguity drain can pass.
func (f *Feed) CancelTicket(t uint64) {
	f.mu.Lock()
	f.cancelled++
	f.pending[t] = pendingTx{cancelled: true}
	f.drainLocked()
	f.mu.Unlock()
}

// Publish hands a committed ticket's writes to the feed, in transaction
// (op) order; the caller's slice is reusable on return. The ticket right
// after the watermark is admitted in place, straight from writes. Any
// other parks a copy, made before the lock, in the reorder buffer until
// every lower ticket has settled. The watermark only grows and cannot
// pass an unsettled ticket, so a ticket that was next stays next.
func (f *Feed) Publish(ticket uint64, writes []Write) { f.publish(ticket, writes, false) }

// PublishLoad hands the feed a bootstrap load's writes, admitted in
// ticket order as Publish admits them, but as a compaction point: each
// write takes its shard's next seq and stores no record, and every shard
// it touches drops its retained window. A reader at or below such a
// shard's new head gets ErrCompacted and resyncs from a snapshot, which
// already holds what the load wrote: a load is a snapshot's state, not a
// run of commits a reader could replay.
func (f *Feed) PublishLoad(ticket uint64, writes []Write) { f.publish(ticket, writes, true) }

func (f *Feed) publish(ticket uint64, writes []Write, load bool) {
	p := pendingTx{load: load}
	if ticket != f.watermark.Load()+1 {
		p.writes = append([]Write(nil), writes...)
	}
	f.mu.Lock()
	f.published++
	if ticket == f.watermark.Load()+1 {
		f.admitLocked(writes, load)
		f.drainLocked()
	} else {
		f.pending[ticket] = p
	}
	f.mu.Unlock()
}

// drainLocked advances the watermark over every contiguously settled
// parked ticket, admitting published writes and skipping cancelled holes.
func (f *Feed) drainLocked() {
	for {
		next := f.watermark.Load() + 1
		p, ok := f.pending[next]
		if !ok {
			return
		}
		delete(f.pending, next)
		if p.cancelled {
			f.watermark.Store(next)
		} else {
			f.admitLocked(p.writes, p.load)
		}
	}
}

// admitLocked admits ticket watermark+1: its writes go to their shards'
// rings (a load's only take their seqs, see PublishLoad), and a reader
// armed by Notify is woken.
func (f *Feed) admitLocked(writes []Write, load bool) {
	t := f.watermark.Add(1)
	for _, w := range writes {
		r := &f.shards[f.shardOf(w.Key)]
		if load {
			f.compacted += r.skip()
		} else if r.push(w, t) {
			f.compacted++
		}
	}
	f.entries += uint64(len(writes))
	if f.armed {
		close(f.notify)
		f.notify = make(chan struct{})
		f.armed = false
	}
}

// Head returns the last assigned sequence of shard (0 when none).
func (f *Feed) Head(shard int) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.shards[shard].head
}

// Heads returns every shard's head sequence, index-aligned with shard
// numbers — the fuzzy-snapshot anchor: read Heads, then scan state, and
// a follower replaying each shard from heads[i]+1 converges.
func (f *Feed) Heads() []uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]uint64, len(f.shards))
	for i := range f.shards {
		out[i] = f.shards[i].head
	}
	return out
}

// readChunkDefault sizes the batch when ReadFrom is handed a zero-capacity
// buffer.
const readChunkDefault = 256

// ReadFrom copies into buf up to cap(buf) entries of shard with
// Seq >= from, in sequence order, returning the filled prefix (a
// zero-capacity buf gets a fresh readChunkDefault-sized one — a caller
// passing nil must still see entries, not a permanently empty result).
// An empty result means the reader is caught up (wait on Notify).
// ErrCompacted means from has fallen off the ring: re-bootstrap from a
// snapshot.
func (f *Feed) ReadFrom(shard int, from uint64, buf []Entry) ([]Entry, error) {
	if from == 0 {
		from = 1
	}
	if cap(buf) == 0 {
		buf = make([]Entry, 0, readChunkDefault)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	r := &f.shards[shard]
	if from > r.head {
		return buf[:0], nil
	}
	if from < r.oldest() {
		return nil, ErrCompacted
	}
	buf = buf[:0]
	for s := from; s <= r.head && len(buf) < cap(buf); s++ {
		buf = append(buf, r.entry(s))
	}
	return buf, nil
}

// Notify returns a channel closed at the next admission (any shard); a
// caught-up reader selects on it alongside its own cancellation. Calling
// it arms the channel: only an armed channel is closed and replaced, so
// an admission nobody waits for allocates none. Re-arm by calling again
// after every wake, before reading.
func (f *Feed) Notify() <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armed = true
	return f.notify
}

// Close wakes all waiting readers; the feed remains readable (drained
// rings still serve) but Closed reports true so streamers can finish.
func (f *Feed) Close() {
	f.mu.Lock()
	if !f.closed {
		f.closed = true
		close(f.notify)
		f.notify = make(chan struct{})
	}
	f.mu.Unlock()
}

// Closed reports whether Close was called.
func (f *Feed) Closed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// Stats snapshots the feed's counters.
func (f *Feed) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return Stats{
		Drawn:     f.next.Load(),
		Published: f.published,
		Cancelled: f.cancelled,
		Entries:   f.entries,
		Compacted: f.compacted,
		Pending:   len(f.pending),
	}
}
