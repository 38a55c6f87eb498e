package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
)

// TestFeedlessNodeServesWithoutAFeed pins where followability is decided:
// a backend whose executors cannot publish is served by a leader node with
// no feed. Batches execute, but nothing advertises or serves a feed a
// follower could attach to, and a node asked to follow over such a backend
// is refused — no follower that reads lag 0 forever.
func TestFeedlessNodeServesWithoutAFeed(t *testing.T) {
	for _, spec := range []string{"plain-skip", "txoff-skip", "onefile-hash"} {
		n, ts := startNode(t, NodeConfig{Backend: kvBackend(t, spec)})
		if n.Feed() != nil {
			t.Errorf("%s: node has a feed", spec)
		}
		resp, body := postBatch(t, ts.URL, `{"ops":[{"op":"put","key":1,"val":42},{"op":"get","key":1}]}`)
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"val":42`) {
			t.Errorf("%s: /v1/batch = %d %q", spec, resp.StatusCode, body)
		}
		for _, path := range []string{"/v1/watch?shard=0&from=1", "/v1/snapshot"} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s: %s = %d, want 404", spec, path, resp.StatusCode)
			}
		}
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h map[string]any
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if _, advertised := h["feed_shards"]; err != nil || h["role"] != RoleLeader || advertised {
			t.Errorf("%s: /healthz = %v (%v), want role leader and no feed_shards", spec, h, err)
		}

		fol, err := NewNode(NodeConfig{Backend: kvBackend(t, spec), Follow: ts.URL})
		if !errors.Is(err, ErrNoFeed) {
			t.Errorf("%s: NewNode with Follow = %v, want ErrNoFeed", spec, err)
		}
		if fol != nil {
			fol.Close()
		}
	}
}
