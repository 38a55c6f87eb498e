package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"medley/internal/cdc"
	"medley/internal/kv"
	"medley/internal/obs"
	"medley/internal/replica"
)

// This file is medleyd's HTTP surface:
//
//	POST /v1/batch    — execute one atomic transaction (wire.go)
//	GET  /metrics     — counter/gauge snapshot of the whole stack
//	GET  /healthz     — liveness + system identity + replication role
//	GET  /v1/watch    — chunked change-feed stream (a node with a feed)
//	GET  /v1/snapshot — streamed fuzzy state snapshot (all feed shards, or one)
//	POST /v1/promote  — flip a follower node into a leader
//
// Handlers are thin: decode, gate, Submit, encode. Admission control lives
// in the Service (Submit sheds with kv.ErrOverload → 429), not in the
// handler, so in-process and HTTP callers are throttled identically.
// Replication gating (follower nodes rejecting writes and over-lag reads)
// lives in Node, threaded through here the same way.

// maxBodyBytes bounds a request body; a batch of MaxOpsPerBatch ops fits
// comfortably.
const maxBodyBytes = 1 << 20

// watchChunkCap bounds one watch stream chunk; it stays under the
// follower's apply-batch limit so a chunk replays as one transaction.
const watchChunkCap = 256

// watchHeartbeat paces heartbeat lines on an idle watch stream: often
// enough that followers track the leader head (and liveness) closely.
const watchHeartbeat = 100 * time.Millisecond

// healthResponse is the body of GET /healthz.
type healthResponse struct {
	System     string `json:"system"`
	Shards     int    `json:"shards"`
	Role       string `json:"role"`
	FeedShards int    `json:"feed_shards,omitempty"`
}

// metricsResponse is the body of GET /metrics: cumulative counters since
// process start plus derived gauges, the same shape reports embed.
type metricsResponse struct {
	Counters []obs.Metric `json:"counters"`
	Gauges   []obs.Gauge  `json:"gauges"`
}

// handler builds a node's mux. The watch and snapshot routes exist only
// when the node has a feed.
func handler(n *Node) http.Handler {
	s := n.svc
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		if req.DeadlineMs < 0 {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("negative deadline_ms %d", req.DeadlineMs))
			return
		}
		if len(req.ID) > MaxRequestID {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("request id of %d bytes exceeds limit %d", len(req.ID), MaxRequestID))
			return
		}
		d, err := decodeBatch(req)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if err := validateOps(d.ops); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if code, msg, retry := n.gateBatch(d.ops); code != 0 {
			if retry > 0 {
				w.Header().Set("Retry-After",
					strconv.FormatFloat(retry.Seconds(), 'f', 3, 64))
			}
			writeError(w, code, msg)
			return
		}
		ctx := r.Context()
		if req.DeadlineMs > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMs)*time.Millisecond)
			defer cancel()
		}
		rres := make([]kv.Result, len(d.ops))
		switch err := s.SubmitCtx(ctx, req.ID, d.ops, rres); {
		case err == nil:
			writeJSON(w, http.StatusOK, BatchResponse{Results: encodeResults(d, rres)})
		case errors.Is(err, kv.ErrOverload):
			// Tell the client when capacity should free up: the next
			// tick, which drains the whole pool, in (possibly fractional)
			// seconds. Clients that honor it retry once instead of
			// immediately reporting the shed.
			w.Header().Set("Retry-After",
				strconv.FormatFloat(s.RetryAfter().Seconds(), 'f', 3, 64))
			writeError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, kv.ErrExpired):
			// The deadline passed before execution began; nothing ran, so
			// the client may retry (a fresh deadline, the same ID).
			writeError(w, http.StatusGatewayTimeout, err.Error())
		case errors.Is(err, ErrClosed):
			writeError(w, http.StatusServiceUnavailable, err.Error())
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
		}
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		counters := append(s.MetricsSnapshot(), n.replMetrics()...)
		sort.Slice(counters, func(i, j int) bool { return counters[i].Name < counters[j].Name })
		writeJSON(w, http.StatusOK, metricsResponse{
			Counters: counters,
			Gauges:   s.Gauges(),
		})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		shards := 1
		if sc, ok := s.Backend().(shardCounter); ok {
			shards = sc.ShardCount()
		}
		h := healthResponse{System: s.Backend().Name(), Shards: shards, Role: n.Role()}
		if n.feed != nil {
			h.FeedShards = n.feed.ShardCount()
		}
		writeJSON(w, http.StatusOK, h)
	})
	if n.feed != nil {
		mux.HandleFunc("GET /v1/watch", func(w http.ResponseWriter, r *http.Request) {
			serveWatch(n.feed, w, r)
		})
		mux.HandleFunc("GET /v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
			serveSnapshot(s, w, r)
		})
	}
	mux.HandleFunc("POST /v1/promote", func(w http.ResponseWriter, r *http.Request) {
		promoted := n.Promote()
		writeJSON(w, http.StatusOK, replica.PromoteResponse{Role: n.Role(), Promoted: promoted})
	})
	return mux
}

// feedShard parses and bounds the shard query parameter.
func feedShard(feed *cdc.Feed, r *http.Request) (int, error) {
	shard, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil {
		return 0, fmt.Errorf("bad shard: %v", err)
	}
	if shard < 0 || shard >= feed.ShardCount() {
		return 0, fmt.Errorf("shard %d out of range [0,%d)", shard, feed.ShardCount())
	}
	return shard, nil
}

// serveWatch streams one feed shard from a cursor as chunked ndjson:
// entry chunks while behind, heartbeats while caught up, a compacted
// marker (or 410 upfront) when the cursor fell off the ring.
func serveWatch(feed *cdc.Feed, w http.ResponseWriter, r *http.Request) {
	shard, err := feedShard(feed, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad from: %v", err))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}

	buf := make([]cdc.Entry, watchChunkCap)
	enc := json.NewEncoder(w)
	started := false
	hb := time.NewTicker(watchHeartbeat)
	defer hb.Stop()
	beat := true // the first caught-up pass tells the follower the head
	for {
		// Armed before the read, so an admission between the read and the
		// wait below wakes this pass rather than the next heartbeat.
		wake := feed.Notify()
		got, rerr := feed.ReadFrom(shard, from, buf)
		if rerr != nil { // ErrCompacted
			if !started {
				writeError(w, http.StatusGone, rerr.Error())
				return
			}
			_ = enc.Encode(replica.WatchChunk{Compacted: true, Head: feed.Head(shard)})
			fl.Flush()
			return
		}
		if !started {
			started = true
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
		}
		if len(got) > 0 {
			if err := enc.Encode(replica.WatchChunk{Entries: got, Head: feed.Head(shard)}); err != nil {
				return
			}
			fl.Flush()
			from = got[len(got)-1].Seq + 1
			continue
		}
		// Caught up. Notify is feed-wide: a wake for another shard's
		// admission reads nothing here and goes back to waiting, so an idle
		// stream carries heartbeats at the ticker's pace, not one line per
		// write elsewhere.
		if beat {
			if err := enc.Encode(replica.WatchChunk{Hb: true, Head: feed.Head(shard)}); err != nil {
				return
			}
			fl.Flush()
			beat = false
		}
		if feed.Closed() {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-wake:
		case <-hb.C:
			beat = true
		}
	}
}

// serveSnapshot streams a fuzzy snapshot (replica/wire.go): header,
// frames written as the one state scan proceeds, each pair appended
// straight into one reused frame, the zero count, trailer. It holds one
// frame whatever the store's size, and a departed client ends the scan.
// The feed heads are read BEFORE the scan: every committed write the scan
// might miss has a feed seq at or above the header's from_seq, so snapshot
// + replay from from_seq converges (feed values are absolute). Without a
// shard parameter the scan serves every feed shard; with one, that shard.
func serveSnapshot(s *Service, w http.ResponseWriter, r *http.Request) {
	feed := s.cfg.feed
	snap, ok := s.be.(snapshotter)
	if !ok {
		writeError(w, http.StatusNotImplemented, "backend cannot snapshot state")
		return
	}
	shard := replica.AllShards
	if r.URL.Query().Has("shard") {
		var err error
		if shard, err = feedShard(feed, r); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	hdr := replica.SnapshotHeader{Shards: feed.ShardCount(), FromSeq: feed.Heads()}
	for i := range hdr.FromSeq {
		hdr.FromSeq[i]++
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	enc := json.NewEncoder(w)
	if enc.Encode(hdr) != nil {
		return
	}
	if fl, ok := w.(http.Flusher); ok {
		fl.Flush() // the follower validates the header while the scan runs
	}

	frame := replica.NewSnapshotFrame()
	var count uint64
	live := true // false once a write failed or the client went away
	emit := func() {
		live = frame.Flush(w) == nil && r.Context().Err() == nil
	}
	snap.StateSnapshot(func(key, val uint64) bool {
		if shard != replica.AllShards && feed.ShardOf(key) != shard {
			return true
		}
		count++
		if frame.Add(key, val) {
			emit()
		}
		return live
	})
	if live && frame.Pairs() > 0 {
		emit()
	}
	if live && frame.Flush(w) == nil { // an empty frame: the zero count that ends the frames
		_ = enc.Encode(replica.SnapshotTrailer{Done: true, Count: count})
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, ErrorResponse{Error: msg})
}
