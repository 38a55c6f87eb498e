package harness

import (
	"maps"
	"slices"
	"sort"

	"medley/internal/obs"
)

// This file defines the observability data types the capability
// interfaces in capabilities.go produce — counter/gauge snapshots,
// consistency digests, per-transaction-kind attribution — along with
// the helpers that difference them and derive their blocks. The engine
// differences cumulative snapshots around each phase into its tally
// (engine.go) and derives the schema-gated blocks from that; the
// network service layer (internal/service) serves the same snapshots from
// /metrics, modeled on statsd-style counter/gauge export.

// TelemetryResult is one record's telemetry block: per-phase counter
// deltas from the system's MetricsSnapshot plus the gauges derived from
// them, both sorted by name for stable reports. Counters are emitted as an
// array, not a JSON map, so new counter names extend the report without
// shifting the schema's canonical path set. Both slices are never nil: an
// empty one must encode as [], which contributes no schema path.
type TelemetryResult struct {
	Counters []Metric `json:"counters"`
	Gauges   []Gauge  `json:"gauges"`
}

// diffMetrics subtracts before from after by counter name, dropping
// counters absent from either snapshot.
func diffMetrics(before, after []Metric) map[string]uint64 {
	prev := make(map[string]uint64, len(before))
	for _, m := range before {
		prev[m.Name] = m.Value
	}
	out := make(map[string]uint64, len(after))
	for _, m := range after {
		if b, ok := prev[m.Name]; ok {
			out[m.Name] = m.Value - b
		}
	}
	return out
}

// sortedCounters lists counter values by name.
func sortedCounters(v map[string]uint64) []Metric {
	out := make([]Metric, 0, len(v))
	for _, name := range slices.Sorted(maps.Keys(v)) {
		out = append(out, Metric{Name: name, Value: v[name]})
	}
	return out
}

// deriveGauges computes the standard ratios from well-known counter names,
// omitting any whose denominator is zero.
func deriveGauges(v map[string]uint64) []Gauge {
	out := []Gauge{}
	out = obs.AppendRatio(out, "abort_rate", v["tx_aborts"], v["tx_commits"]+v["tx_aborts"])
	out = obs.AppendRatio(out, "fastpath_share", v["tx_commits_fastpath"], v["tx_commits"])
	out = obs.AppendRatio(out, "readonly_share", v["tx_commits_read_only"], v["tx_commits"])
	out = obs.AppendRatio(out, "pool_hit_rate", v["pool_hits"], v["pool_gets"])
	out = obs.AppendRatio(out, "ebr_reclaim_ratio", v["ebr_reclaimed"], v["ebr_retired"])
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ConsistencyViolation is one failed domain invariant, tagged with its
// violation class (e.g. the TPC-C "money" / "orders" / "delivery" classes).
type ConsistencyViolation struct {
	Class  string
	Detail string
}

// ClassCount is one violation class's tally.
type ClassCount struct {
	Class string `json:"class"`
	Count int    `json:"count"`
}

// ConsistencyResult is the domain-invariant digest of one record: whether
// the system's consistency check ran at this phase's barrier and what it
// found, tallied by violation class.
type ConsistencyResult struct {
	Checked    bool         `json:"checked"`
	Violations int          `json:"violations"`
	Classes    []ClassCount `json:"classes,omitempty"`
}

// consistencyResult tallies violations by class, sorted by class name.
func consistencyResult(vs []ConsistencyViolation) *ConsistencyResult {
	res := &ConsistencyResult{Checked: true, Violations: len(vs)}
	counts := map[string]int{}
	for _, v := range vs {
		counts[v.Class]++
	}
	for class, n := range counts {
		res.Classes = append(res.Classes, ClassCount{Class: class, Count: n})
	}
	sort.Slice(res.Classes, func(i, j int) bool { return res.Classes[i].Class < res.Classes[j].Class })
	return res
}

// KindStat is one transaction kind's cumulative tally: committed
// transactions, aborted attempts, and total committed-transaction latency.
type KindStat struct {
	Kind    string
	Txns    uint64
	Aborts  uint64
	TotalNs uint64
}

// KindResult attributes one transaction kind's share of a record: how many
// committed, how many attempts aborted, and the mean committed latency.
type KindResult struct {
	Kind   string  `json:"kind"`
	Txns   uint64  `json:"txns"`
	Aborts uint64  `json:"aborts"`
	AvgNs  float64 `json:"avg_latency_ns"`
}

// diffKinds subtracts two kind snapshots, preserving after's kind order and
// dropping kinds that ran no transaction and suffered no abort.
func diffKinds(before, after []KindStat) []KindStat {
	prev := make(map[string]KindStat, len(before))
	for _, k := range before {
		prev[k.Kind] = k
	}
	var out []KindStat
	for _, k := range after {
		p := prev[k.Kind]
		d := KindStat{Kind: k.Kind, Txns: k.Txns - p.Txns, Aborts: k.Aborts - p.Aborts, TotalNs: k.TotalNs - p.TotalNs}
		if d.Txns > 0 || d.Aborts > 0 {
			out = append(out, d)
		}
	}
	return out
}

// kindResults derives the kinds block: each kind's counts and mean
// committed latency.
func kindResults(ks []KindStat) []KindResult {
	var out []KindResult
	for _, k := range ks {
		r := KindResult{Kind: k.Kind, Txns: k.Txns, Aborts: k.Aborts}
		if k.Txns > 0 {
			r.AvgNs = float64(k.TotalNs) / float64(k.Txns)
		}
		out = append(out, r)
	}
	return out
}
