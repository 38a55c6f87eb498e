package service

import (
	"errors"
	"testing"
	"time"

	"medley/internal/kv"
)

// TestNewNodeRefusesFeedlessBackend pins where followability is decided:
// a backend whose executors cannot publish gets no node — so no /v1/watch
// over a feed nothing writes, and no follower that reads lag 0 forever.
func TestNewNodeRefusesFeedlessBackend(t *testing.T) {
	for _, spec := range []string{"onefile-hash", "ponefile-hash", "plain-skip", "txoff-skip"} {
		n, err := NewNode(NodeConfig{Backend: kvBackend(t, spec)})
		if !errors.Is(err, ErrNoFeed) {
			t.Errorf("NewNode over %s = %v, want ErrNoFeed", spec, err)
		}
		if n != nil {
			n.Close()
		}
	}
}

// TestGroupedCountsOnlyMergeableChunks pins svc_grouped_txns to what the
// store's own tx_grouped_txns says: the same eight-request chunk on one
// worker merges into a group commit on a feed-less Service, and runs
// request by request — counted as such — on a Node, whose executors carry
// the feed and never merge.
func TestGroupedCountsOnlyMergeableChunks(t *testing.T) {
	const reqs = 8
	cfg := Config{Workers: 1, Tick: time.Hour, PoolSize: 64} // drained by hand below
	node, err := NewNode(NodeConfig{Backend: kvBackend(t, "medley-hash"), Service: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	bare := New(kvBackend(t, "medley-hash"), cfg)
	defer bare.Close()

	for _, c := range []struct {
		name string
		s    *Service
		want uint64
	}{{"node", node.Service(), 0}, {"feedless service", bare, reqs}} {
		var pending []*request
		for k := uint64(0); k < reqs; k++ {
			r := &request{ops: oneOp(k), res: make([]kv.Result, 1), done: make(chan error, 1)}
			c.s.pool <- r
			pending = append(pending, r)
		}
		if got := c.s.drainTick(make([]*request, 0, 64)); got != reqs {
			t.Fatalf("%s: drainTick dispatched %d, want %d", c.name, got, reqs)
		}
		for _, r := range pending {
			if err := <-r.done; err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		counters := map[string]uint64{}
		for _, m := range c.s.MetricsSnapshot() {
			counters[m.Name] = m.Value
		}
		if counters["svc_executed"] != reqs {
			t.Errorf("%s: svc_executed = %d, want %d", c.name, counters["svc_executed"], reqs)
		}
		if got := counters["svc_grouped_txns"]; got != c.want {
			t.Errorf("%s: svc_grouped_txns = %d, want %d", c.name, got, c.want)
		}
		if got := counters["tx_grouped_txns"]; got != c.want {
			t.Errorf("%s: tx_grouped_txns = %d, want %d", c.name, got, c.want)
		}
	}
}
