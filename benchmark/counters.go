package main

import (
	"runtime"
	"sync"
	"time"

	"medley/internal/cdc"
	"medley/internal/harness"
	"medley/internal/replica"
	"medley/internal/service"
)

// snapshot is every public counter the stack exports, read at one
// instant. Per-layer counter metrics are ratios of two snapshots' deltas
// over a workload's measured interval; the program is not instrumented.
type snapshot struct {
	named map[string]uint64 // tx_*, pool_*, ebr_* and, behind a service, svc_*
	feed  cdc.Stats
	fol   replica.Stats
	drv   service.HTTPDriverStats
	mem   runtime.MemStats
}

func (st *stack) snapshot() snapshot {
	var s snapshot
	var ms []harness.Metric
	if st.leader != nil {
		ms = st.leader.Service().MetricsSnapshot() // merges the backend's
		s.feed = st.leader.Feed().Stats()
	} else {
		ms = st.sys.MetricsSnapshot()
	}
	s.named = make(map[string]uint64, len(ms))
	for _, m := range ms {
		s.named[m.Name] = m.Value
	}
	if st.follower != nil {
		s.fol = st.follower.Follower().Stats()
	}
	if st.driver != nil {
		s.drv = st.driver.Stats()
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

func share(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// counterMetrics derives the per-layer counter metrics from two
// snapshots. txns is the number of transactions the clients completed in
// between, seconds the interval's length.
func counterMetrics(a, b snapshot, txns uint64, seconds float64) map[string]float64 {
	d := func(name string) uint64 { return b.named[name] - a.named[name] }
	commits := d("tx_commits")
	logical := commits - d("tx_group_commits") + d("tx_grouped_txns")
	return map[string]float64{
		"core.abort_share":           share(d("tx_aborts"), d("tx_begins")),
		"core.readonly_commit_share": share(d("tx_commits_read_only"), commits),
		"core.fastpath_commit_share": share(d("tx_commits_fastpath"), commits),
		"core.group_commit_share":    share(d("tx_grouped_txns"), logical),
		"core.helps_per_commit":      share(d("tx_help_events"), commits),
		"core.pool_hit_share":        share(d("pool_hits"), d("pool_gets")),
		"ebr.reclaim_share":          share(d("ebr_reclaimed"), d("ebr_retired")),
		"ebr.advances_per_ktxn":      1000 * share(d("ebr_advances"), txns),

		"service.txn_per_tick":       share(d("svc_batched_txns"), d("svc_ticks")),
		"service.shed_share":         share(d("svc_shed"), d("svc_accepted")+d("svc_shed")),
		"service.grouped_share":      share(d("svc_grouped_txns"), d("svc_executed")),
		"service.client_retry_share": share(b.drv.Retries-a.drv.Retries, txns),

		"cdc.entries_per_write_txn": share(b.feed.Entries-a.feed.Entries, b.feed.Published-a.feed.Published),
		"cdc.cancel_share":          share(b.feed.Cancelled-a.feed.Cancelled, b.feed.Drawn-a.feed.Drawn),

		"replica.reconnects": float64(b.fol.Reconnects - a.fol.Reconnects),

		"runtime.gc_pause_ms_per_s": float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6 / seconds,
		"runtime.gc_cycles":         float64(b.mem.NumGC - a.mem.NumGC),
	}
}

// gaugeSampler polls the two gauges that have no cumulative counter —
// the feed's reorder-buffer depth and the follower's replay lag — every
// 10 ms. It runs only in traced runs: Feed.Stats takes the feed mutex.
type gaugeSampler struct {
	pendingMax int
	lag        []float64
	stop       chan struct{}
	wg         sync.WaitGroup
}

func (st *stack) startGaugeSampler() *gaugeSampler {
	g := &gaugeSampler{stop: make(chan struct{})}
	if st.leader == nil {
		return g
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
			}
			if p := st.leader.Feed().Stats().Pending; p > g.pendingMax {
				g.pendingMax = p
			}
			if st.follower != nil {
				g.lag = append(g.lag, float64(st.follower.Follower().Lag()))
			}
		}
	}()
	return g
}

// close stops the sampler and returns its metrics.
func (g *gaugeSampler) close() map[string]float64 {
	close(g.stop)
	g.wg.Wait()
	return map[string]float64{
		"cdc.pending_max":         float64(g.pendingMax),
		"replica.lag_entries_p50": quantileOf(g.lag, 0.5),
		"replica.lag_entries_max": quantileOf(g.lag, 1),
	}
}
