package replica

import "medley/internal/cdc"

// This file is the replication wire protocol shared by the leader's HTTP
// surface (internal/service server.go) and the follower (this package).
//
//	GET /v1/watch?shard=S&from=F — chunked application/x-ndjson stream of
//	    WatchChunk lines: entry chunks while the follower is behind,
//	    heartbeats (hb, head) while it is caught up, a compacted marker
//	    when the cursor fell off the leader's ring mid-stream. A cursor
//	    already compacted at connect time is answered 410 Gone.
//	GET /v1/snapshot[?shard=S] — chunked application/x-ndjson stream of
//	    the store's live keys: one SnapshotHeader line, SnapshotChunk
//	    lines written as the leader's scan proceeds (it holds one chunk,
//	    whatever the store's size), and a trailer chunk (done, count).
//	    Without shard the one scan covers every feed shard — a follower's
//	    initial bootstrap; ?shard=S keeps only that shard's keys, for the
//	    resync of one compacted stream. The leader reads the feed heads
//	    BEFORE scanning state, so every committed write the scan might
//	    miss has seq >= from_seq and is replayed; entries the scan caught
//	    twice converge because feed values are absolute. A stream that
//	    ends before its trailer, or whose trailer counts other than what
//	    arrived, is a failed snapshot: the follower publishes no cursor
//	    from it.
//	POST /v1/promote — flip a follower into a leader (see service.Node).

// WatchChunk is one line of a watch stream.
type WatchChunk struct {
	// Entries is a contiguous run of feed entries (empty on heartbeats).
	Entries []cdc.Entry `json:"entries,omitempty"`
	// Head is the shard's feed head at send time — the follower's
	// staleness reference.
	Head uint64 `json:"head"`
	// Hb marks a heartbeat line: no entries, the stream is caught up.
	Hb bool `json:"hb,omitempty"`
	// Compacted marks the terminal line of a stream whose cursor fell off
	// the leader's bounded ring: re-bootstrap from a snapshot.
	Compacted bool `json:"compacted,omitempty"`
}

// SnapshotHeader is the first line of a snapshot stream, written before
// the scan starts.
type SnapshotHeader struct {
	// Shards is the feed shard count, for config validation.
	Shards int `json:"shards"`
	// FromSeq is, per feed shard, the sequence replay resumes from: the
	// shard's head when the request arrived, plus one.
	FromSeq []uint64 `json:"from_seq"`
}

// SnapshotChunk is every later line of a snapshot stream: up to
// SnapshotChunkKeys live keys, or the trailer.
type SnapshotChunk struct {
	// KV is key, value, key, value, ... — flat, so a line is one array of
	// numbers for both ends' codecs rather than an object per key.
	KV []uint64 `json:"kv,omitempty"`
	// Done marks the trailer, the stream's last line; Count is how many
	// keys the chunks before it carried.
	Done  bool   `json:"done,omitempty"`
	Count uint64 `json:"count,omitempty"`
}

// SnapshotChunkKeys bounds the keys of one SnapshotChunk: one chunk is
// one Apply on the follower, so it stays under the service layer's
// per-request op limit.
const SnapshotChunkKeys = 512

// PromoteResponse is the body of POST /v1/promote.
type PromoteResponse struct {
	Role     string `json:"role"`
	Promoted bool   `json:"promoted"` // false when the node already led
}
