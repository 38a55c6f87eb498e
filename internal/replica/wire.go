package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"medley/internal/cdc"
)

// This file is the replication wire protocol shared by the leader's HTTP
// surface (internal/service server.go) and the follower (this package).
//
//	GET /v1/watch?shard=S&from=F — chunked application/x-ndjson stream of
//	    WatchChunk lines: entry chunks while the follower is behind,
//	    heartbeats (hb, head) while it is caught up, a compacted marker
//	    when the cursor fell off the leader's ring mid-stream. A cursor
//	    already compacted at connect time is answered 410 Gone.
//	GET /v1/snapshot[?shard=S] — chunked application/octet-stream of the
//	    store's live keys: one SnapshotHeader JSON line, binary frames of
//	    key/value pairs (SnapshotFrame) written as the leader's scan
//	    proceeds (it holds one frame, whatever the store's size), a frame
//	    of zero count, and one SnapshotTrailer JSON line (done, count).
//	    Without shard the one scan covers every feed shard — a follower's
//	    initial bootstrap; ?shard=S keeps only that shard's keys, for the
//	    resync of one compacted stream. The leader reads the feed heads
//	    BEFORE scanning state, so every committed write the scan might
//	    miss has seq >= from_seq and is replayed; entries the scan caught
//	    twice converge because feed values are absolute. A stream that
//	    ends before its trailer, or whose trailer counts other than what
//	    arrived, or that holds a frame of more than SnapshotChunkKeys
//	    pairs, is a failed snapshot: the follower publishes no cursor
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

// SnapshotTrailer is the last line of a snapshot stream, after the frame
// of zero count that ends the chunks.
type SnapshotTrailer struct {
	// Done marks the trailer; Count is how many keys the frames before it
	// carried.
	Done  bool   `json:"done,omitempty"`
	Count uint64 `json:"count,omitempty"`
}

// SnapshotChunkKeys bounds the keys of one snapshot frame: one frame is
// one Load on the follower, so it stays under the service layer's
// per-request op limit.
const SnapshotChunkKeys = 512

// A snapshot frame is a little-endian uint32 pair count, 1 to
// SnapshotChunkKeys, then that many little-endian uint64 key/value pairs;
// a zero count ends the frames. Neither end formats or parses a number:
// a bootstrap carries 2^20 and more of them.
const (
	frameHeader = 4
	pairBytes   = 16
	// SnapshotFrameMax is the size of the largest frame.
	SnapshotFrameMax = frameHeader + pairBytes*SnapshotChunkKeys
)

// SnapshotFrame is a snapshot frame being filled, one pair at a time, in
// one buffer that Flush empties for the next.
type SnapshotFrame struct{ b []byte }

// NewSnapshotFrame returns an empty frame with room for SnapshotChunkKeys
// pairs.
func NewSnapshotFrame() *SnapshotFrame {
	return &SnapshotFrame{b: make([]byte, frameHeader, SnapshotFrameMax)}
}

// Add appends a pair and reports whether the frame is now full: it must
// be flushed before the next Add.
func (f *SnapshotFrame) Add(key, val uint64) (full bool) {
	f.b = binary.LittleEndian.AppendUint64(f.b, key)
	f.b = binary.LittleEndian.AppendUint64(f.b, val)
	return len(f.b) == SnapshotFrameMax
}

// Pairs returns how many pairs the frame holds.
func (f *SnapshotFrame) Pairs() int { return (len(f.b) - frameHeader) / pairBytes }

// Flush writes the frame to w and empties it. Flushing an empty frame
// writes the zero count that ends the frames.
func (f *SnapshotFrame) Flush(w io.Writer) error {
	binary.LittleEndian.PutUint32(f.b, uint32(f.Pairs()))
	_, err := w.Write(f.b)
	f.b = f.b[:frameHeader]
	return err
}

var errFrame = errors.New("replica: malformed snapshot frame")

// SnapshotPairs is the pairs of one frame as ReadSnapshotFrame read them.
type SnapshotPairs []byte

// Len returns how many pairs there are.
func (p SnapshotPairs) Len() int { return len(p) / pairBytes }

// At returns the i'th pair.
func (p SnapshotPairs) At(i int) (key, val uint64) {
	b := p[pairBytes*i:]
	return binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:])
}

// ReadSnapshotFrame reads the next frame from r into buf, which holds
// SnapshotFrameMax bytes, and returns its pairs; none is the zero count
// that ends the frames. A count over SnapshotChunkKeys is an error, and so
// is a stream that ends inside a frame (io.ErrUnexpectedEOF) or where one
// belongs (io.EOF).
func ReadSnapshotFrame(r io.Reader, buf []byte) (SnapshotPairs, error) {
	if _, err := io.ReadFull(r, buf[:frameHeader]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(buf)
	if n > SnapshotChunkKeys {
		return nil, fmt.Errorf("%w: %d pairs, at most %d", errFrame, n, SnapshotChunkKeys)
	}
	pairs := buf[frameHeader : frameHeader+pairBytes*int(n)]
	if _, err := io.ReadFull(r, pairs); err != nil {
		return nil, fmt.Errorf("%w: cut inside a frame of %d pairs: %w", errFrame, n, io.ErrUnexpectedEOF)
	}
	return pairs, nil
}

// PromoteResponse is the body of POST /v1/promote.
type PromoteResponse struct {
	Role     string `json:"role"`
	Promoted bool   `json:"promoted"` // false when the node already led
}
