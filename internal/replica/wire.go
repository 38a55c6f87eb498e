package replica

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"

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

// A chunk line is SnapshotChunk{KV: kv} as encoding/json writes it, but
// neither end runs encoding/json over it: a bootstrap carries 2^20 and
// more numbers, and decoding each by reflection would be the largest part
// of the follower's read. Header and trailer lines stay on encoding/json.
var (
	chunkOpen  = []byte(`{"kv":[`)
	chunkClose = []byte("]}\n")
)

// AppendSnapshotChunk appends the chunk line of kv (key, value, ...),
// newline included, to dst.
func AppendSnapshotChunk(dst []byte, kv []uint64) []byte {
	dst = append(dst, chunkOpen...)
	for i, n := range kv {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, n, 10)
	}
	return append(dst, chunkClose...)
}

var errChunk = errors.New("replica: malformed snapshot chunk")

// parseSnapshotChunk appends the numbers of a chunk line — chunkOpen,
// unsigned decimals without leading zeros separated by single commas,
// chunkClose, nothing else — to kv. It accepts only lines encoding/json
// decodes to the same numbers.
func parseSnapshotChunk(line []byte, kv []uint64) ([]uint64, error) {
	body, ok := bytes.CutPrefix(line, chunkOpen)
	if !ok {
		return kv, errChunk
	}
	if body, ok = bytes.CutSuffix(body, chunkClose); !ok {
		return kv, fmt.Errorf("%w: no closing %q", errChunk, chunkClose)
	}
	if len(body) == 0 {
		return kv, nil
	}
	for i := 0; ; i++ { // i is where a number starts
		start := i
		var n uint64
		for ; i < len(body) && '0' <= body[i] && body[i] <= '9'; i++ {
			d := uint64(body[i] - '0')
			if n > (math.MaxUint64-d)/10 {
				return kv, fmt.Errorf("%w: number at byte %d overflows uint64", errChunk, len(chunkOpen)+start)
			}
			n = 10*n + d
		}
		switch {
		case i == start:
			return kv, fmt.Errorf("%w: no digit at byte %d", errChunk, len(chunkOpen)+i)
		case i-start > 1 && body[start] == '0':
			return kv, fmt.Errorf("%w: leading zero at byte %d", errChunk, len(chunkOpen)+start)
		}
		kv = append(kv, n)
		if i == len(body) {
			return kv, nil
		}
		if body[i] != ',' {
			return kv, fmt.Errorf("%w: no comma at byte %d", errChunk, len(chunkOpen)+i)
		}
	}
}

// readLine returns r's next line, '\n' included: a slice of r's buffer
// when the line fits in it, else of *long, grown to fit. Either is valid
// until the next call. A stream that ends without a newline is an error.
func readLine(r *bufio.Reader, long *[]byte) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	*long = append((*long)[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = r.ReadSlice('\n')
		*long = append(*long, line...)
	}
	return *long, err
}

// PromoteResponse is the body of POST /v1/promote.
type PromoteResponse struct {
	Role     string `json:"role"`
	Promoted bool   `json:"promoted"` // false when the node already led
}
