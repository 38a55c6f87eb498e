package harness

import (
	"sort"

	"medley/internal/obs"
)

// This file defines the observability data types the capability
// interfaces in capabilities.go produce — counter/gauge snapshots,
// consistency digests, per-transaction-kind attribution — along with
// their diff/merge helpers. The engine differences cumulative snapshots
// around phases and reports the results as schema-gated blocks; the
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

// counterMap indexes a counter list by name.
func counterMap(counters []Metric) map[string]uint64 {
	v := make(map[string]uint64, len(counters))
	for _, m := range counters {
		v[m.Name] = m.Value
	}
	return v
}

// diffMetrics subtracts before from after by counter name, dropping
// counters absent from either snapshot, and returns the deltas sorted.
func diffMetrics(before, after []Metric) []Metric {
	prev := counterMap(before)
	out := make([]Metric, 0, len(after))
	for _, m := range after {
		b, ok := prev[m.Name]
		if !ok {
			continue
		}
		out = append(out, Metric{Name: m.Name, Value: m.Value - b})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
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

// mergeTelemetry folds one measured phase's telemetry into an aggregate,
// summing counters by name; gauges are re-derived by the caller once all
// phases are folded.
func mergeTelemetry(agg *TelemetryResult, ph *TelemetryResult) {
	sum := counterMap(agg.Counters)
	for _, m := range ph.Counters {
		sum[m.Name] += m.Value
	}
	agg.Counters = make([]Metric, 0, len(sum))
	for name, val := range sum {
		agg.Counters = append(agg.Counters, Metric{Name: name, Value: val})
	}
	sort.Slice(agg.Counters, func(i, j int) bool { return agg.Counters[i].Name < agg.Counters[j].Name })
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

// mergeConsistency folds one phase's consistency digest into an aggregate.
func mergeConsistency(agg *ConsistencyResult, ph *ConsistencyResult) {
	agg.Checked = true
	agg.Violations += ph.Violations
	counts := map[string]int{}
	for _, c := range agg.Classes {
		counts[c.Class] = c.Count
	}
	for _, c := range ph.Classes {
		counts[c.Class] += c.Count
	}
	agg.Classes = agg.Classes[:0]
	for class, n := range counts {
		agg.Classes = append(agg.Classes, ClassCount{Class: class, Count: n})
	}
	sort.Slice(agg.Classes, func(i, j int) bool { return agg.Classes[i].Class < agg.Classes[j].Class })
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
func diffKinds(before, after []KindStat) []KindResult {
	prev := make(map[string]KindStat, len(before))
	for _, k := range before {
		prev[k.Kind] = k
	}
	var out []KindResult
	for _, k := range after {
		p := prev[k.Kind]
		d := KindResult{Kind: k.Kind, Txns: k.Txns - p.Txns, Aborts: k.Aborts - p.Aborts}
		if d.Txns > 0 {
			d.AvgNs = float64(k.TotalNs-p.TotalNs) / float64(d.Txns)
		}
		if d.Txns == 0 && d.Aborts == 0 {
			continue
		}
		out = append(out, d)
	}
	return out
}

// mergeKinds folds one phase's kind attribution into an aggregate by kind
// name, keeping first-seen order and recomputing the latency average as a
// transaction-weighted mean.
func mergeKinds(agg []KindResult, ph []KindResult) []KindResult {
	idx := make(map[string]int, len(agg))
	for i, k := range agg {
		idx[k.Kind] = i
	}
	for _, k := range ph {
		i, ok := idx[k.Kind]
		if !ok {
			agg = append(agg, k)
			idx[k.Kind] = len(agg) - 1
			continue
		}
		a := &agg[i]
		totalNs := a.AvgNs*float64(a.Txns) + k.AvgNs*float64(k.Txns)
		a.Txns += k.Txns
		a.Aborts += k.Aborts
		if a.Txns > 0 {
			a.AvgNs = totalNs / float64(a.Txns)
		}
	}
	return agg
}
