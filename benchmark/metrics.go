package main

// This file is the benchmark's vocabulary: the workload and metric names
// BENCHMARK.json declares. TestDeclarationsMatchBenchmarkJSON keeps the
// two in step; README.md explains each entry.

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDecls = []workloadDecl{
	{"lib-read", "embedded-library user: read-mostly ExecBatch on C executors; core fast paths, mhash and shard routing do all the work, service/cdc/replica none"},
	{"lib-contend", "same layers the other way: Zipf transfers plus write-only txns force full descriptor commits, aborts, helping and node churn; the 1-to-2 worker cliff lives here"},
	{"svc-saturate", "512 in-process submitters fill the txpool so each 1 ms tick coalesces hundreds of txns: the tick/worker hand-off and cdc ticket+mutex at their capacity knee"},
	{"stack-repl", "C keep-alive HTTP sessions to a leader with a live follower: the server is idle and the tick wait blocks, so tick, framing and wake-up changes show here"},
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what the driver holds later changes to, one value per
// workload run. Bounds are max(10%, 2 × relative IQR) over the runs in
// benchmark/CALIBRATION.md; setup_s has the largest the contract allows.
// Throughput and latency are not here: with 2^20 keys they do not repeat
// within any allowed bound on a shared box (README, "What is not
// end-to-end"), so they are the per-layer bench.* metrics.
var endToEnd = []metricDecl{
	{"setup_s", "s", lower, 0.25},
	{"heap_peak_mb", "MB", lower, 0.17},
}

// perLayer is what a --trace 1 run prints: the ladder's self times and
// allocation deltas, then counter ratios and the clients' own timing over
// the workload's measured interval.
var perLayer = []metricDecl{
	// Ladder (ladder.go), one seeded service-mix stream on ten rungs.
	{Name: "core.begin_end_ns", Unit: "ns", Better: lower},
	{Name: "structures.mhash_txn_us", Unit: "us", Better: lower},
	{Name: "structures.mhash_allocs_per_txn", Unit: "1", Better: lower},
	{Name: "kv.txmap_self_us", Unit: "us", Better: lower},
	{Name: "kv.sharded_self_us", Unit: "us", Better: lower},
	{Name: "harness.exec_self_us", Unit: "us", Better: lower},
	{Name: "harness.exec_allocs_per_txn", Unit: "1", Better: lower},
	{Name: "cdc.publish_self_us", Unit: "us", Better: lower},
	{Name: "cdc.publish_allocs_per_txn", Unit: "1", Better: lower},
	{Name: "service.submit_self_us", Unit: "us", Better: lower},
	{Name: "service.submit_allocs_per_txn", Unit: "1", Better: lower},
	{Name: "service.handler_self_us", Unit: "us", Better: lower},
	{Name: "service.handler_allocs_per_txn", Unit: "1", Better: lower},
	{Name: "service.http_self_us", Unit: "us", Better: lower},
	{Name: "service.http_allocs_per_txn", Unit: "1", Better: lower},
	{Name: "replica.leader_tax_us", Unit: "us", Better: lower},
	{Name: "ladder.top_rung_p50_us", Unit: "us", Better: lower},
	{Name: "ladder.self_sum_share", Unit: "ratio", Better: higher},
	// Counters (counters.go), deltas of the public snapshots.
	{Name: "core.abort_share", Unit: "ratio", Better: lower},
	{Name: "core.readonly_commit_share", Unit: "ratio", Better: higher},
	{Name: "core.fastpath_commit_share", Unit: "ratio", Better: higher},
	{Name: "core.group_commit_share", Unit: "ratio", Better: higher},
	{Name: "core.helps_per_commit", Unit: "1", Better: lower},
	{Name: "core.pool_hit_share", Unit: "ratio", Better: higher},
	{Name: "ebr.reclaim_share", Unit: "ratio", Better: higher},
	{Name: "ebr.advances_per_ktxn", Unit: "1", Better: higher},
	{Name: "service.txn_per_tick", Unit: "1", Better: higher},
	{Name: "service.shed_share", Unit: "ratio", Better: lower},
	{Name: "service.grouped_share", Unit: "ratio", Better: higher},
	{Name: "service.client_retry_share", Unit: "ratio", Better: lower},
	{Name: "cdc.entries_per_write_txn", Unit: "1", Better: lower},
	{Name: "cdc.cancel_share", Unit: "ratio", Better: lower},
	{Name: "cdc.pending_max", Unit: "count", Better: lower},
	{Name: "replica.lag_entries_p50", Unit: "count", Better: lower},
	{Name: "replica.lag_entries_max", Unit: "count", Better: lower},
	{Name: "replica.visible_p50_ms", Unit: "ms", Better: lower},
	{Name: "replica.visible_p90_ms", Unit: "ms", Better: lower},
	{Name: "replica.read_rtt_p50_ms", Unit: "ms", Better: lower},
	{Name: "replica.reconnects", Unit: "count", Better: lower},
	{Name: "bench.txn_per_s", Unit: "1/s", Better: higher},
	{Name: "bench.lat_p50_ms", Unit: "ms", Better: lower},
	{Name: "bench.lat_p99_ms", Unit: "ms", Better: lower},
	{Name: "runtime.allocs_per_txn", Unit: "1", Better: lower},
	{Name: "runtime.gc_pause_ms_per_s", Unit: "ms/s", Better: lower},
	{Name: "runtime.gc_cycles", Unit: "count", Better: lower},
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: lower},
}

// value is one measured metric as the result JSON carries it.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better,omitempty"`
	Samples uint64  `json:"samples,omitempty"`
}

// fill builds the named metric map for decls from raw values; a decl
// without a raw value is a bug the name-list test catches.
func fill(decls []metricDecl, raw map[string]float64, samples uint64) map[string]value {
	out := make(map[string]value, len(decls))
	for _, d := range decls {
		if v, ok := raw[d.Name]; ok {
			out[d.Name] = value{Value: v, Unit: d.Unit, Better: d.Better, Samples: samples}
		}
	}
	return out
}
