// Package obs is the stack's observability vocabulary: the counter and
// gauge types every layer exports its numbers in, and the one list naming
// a TxManager's counters. The store (internal/store) and the service
// (internal/service) produce these snapshots and medleyd serves them from
// /metrics; the harness differences them around phases into the report's
// telemetry block. It sits beside the stack, importing only the core.
package obs

import "medley/internal/core"

// Metric is one named cumulative counter. Values are monotonically
// non-decreasing; the engine reports per-phase deltas. The JSON shape
// matches the report's telemetry block (and medleyd's /metrics).
type Metric struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// Gauge is one named derived ratio, computed from counter deltas (abort
// rate, fast-path share, pool hit rate).
type Gauge struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// AppendRatio appends the gauge num/den under name, omitting it when the
// denominator is zero.
func AppendRatio(out []Gauge, name string, num, den uint64) []Gauge {
	if den > 0 {
		out = append(out, Gauge{Name: name, Value: float64(num) / float64(den)})
	}
	return out
}

// MetricsSnapshotter is implemented by systems that can export their
// engine-level counters (commits by path, aborts by cause, pool traffic,
// EBR reclamation) as a point-in-time snapshot. Snapshots are cumulative
// since system construction; the engine differences two snapshots to
// produce a phase's telemetry block — and, from the same deltas, the
// memory block's pool_* fields and the fastpath block, each present iff
// its counter is — and the network service layer (internal/service)
// serves the same snapshot from its /metrics endpoint.
type MetricsSnapshotter interface {
	MetricsSnapshot() []Metric
}

// TxCounters names a TxManager's cumulative counters; every system built
// on the core (store.System, store.MontageSystem, the harness's TPC-C
// system) exports this one list.
func TxCounters(st core.Stats) []Metric {
	return []Metric{
		{Name: "tx_begins", Value: st.Begins},
		{Name: "tx_commits", Value: st.Commits},
		{Name: "tx_commits_read_only", Value: st.ReadOnlyCommits},
		{Name: "tx_commits_fastpath", Value: st.FastPathCommits},
		{Name: "tx_aborts", Value: st.Aborts},
		{Name: "tx_aborts_by_others", Value: st.AbortsByOthers},
		{Name: "tx_help_events", Value: st.HelpEvents},
		{Name: "pool_gets", Value: st.PoolGets},
		{Name: "pool_hits", Value: st.PoolHits},
		{Name: "pool_retires", Value: st.PoolRetires},
	}
}
