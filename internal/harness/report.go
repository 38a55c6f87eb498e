package harness

import (
	"encoding/json"
	"io"
	"runtime"
	"time"
)

// This file defines the machine-readable benchmark report emitted by
// cmd/medley-bench -json. The schema is the contract that makes the
// repository's performance trajectory trackable across PRs: drivers write
// one Report per run (conventionally to BENCH_<scenario>.json), and each
// record carries throughput, abort rate and latency percentiles.

// LatencySummary is the latency digest of one record, in nanoseconds.
type LatencySummary struct {
	AvgNs float64 `json:"avg_ns"`
	P50Ns float64 `json:"p50_ns"`
	P99Ns float64 `json:"p99_ns"`
}

// ServiceRecord is the open-loop service digest of one record: how the
// offered load was disposed of (completed, shed by admission control,
// failed, dropped at the client queue) and the tail the completions saw.
// Latencies in the parent record are measured from each transaction's
// scheduled arrival time, so queueing delay under overload is charged to
// the system (no coordinated omission). Present on the records RunOpenLoop
// and the chaos runner return.
type ServiceRecord struct {
	Driver        string  `json:"driver"` // "inproc" or "http"
	TargetRate    float64 `json:"target_rate_txn_per_sec"`
	OfferedRate   float64 `json:"offered_rate_txn_per_sec"`
	OfferedTxns   uint64  `json:"offered_txns"`
	CompletedTxns uint64  `json:"completed_txns"`
	ShedTxns      uint64  `json:"shed_txns"`
	ErrorTxns     uint64  `json:"error_txns"`
	DroppedTxns   uint64  `json:"dropped_txns"`
	Goodput       float64 `json:"goodput_txn_per_sec"`
	P999Ns        float64 `json:"p999_ns"`

	// Fault-tolerance fields, present on runs with deadlines, retries or
	// chaos (zero-valued and omitted otherwise). Availability is
	// completed / (completed + errors + expired + in-doubt): the share
	// of requests that wanted an answer and got one — sheds and client-
	// queue drops are excluded (backpressure is the system working), and
	// an in-doubt outcome counts against availability because the client
	// cannot act on it.
	ExpiredTxns  uint64  `json:"expired_txns,omitempty"`
	InDoubtTxns  uint64  `json:"in_doubt_txns,omitempty"`
	RetriedTxns  uint64  `json:"retried_txns,omitempty"`
	BreakerOpens uint64  `json:"breaker_opens,omitempty"`
	Restarts     int     `json:"restarts,omitempty"`
	DowntimeNs   int64   `json:"downtime_ns,omitempty"` // from each kill to serving (restart) or followed (failover) again
	Availability float64 `json:"availability,omitempty"`
	TaintedKeys  int     `json:"tainted_keys,omitempty"`
}

// ReplicaRecord is the replication digest of a replica-chaos record: the
// fault schedule that ran (kill+promote cycles or partition episodes),
// how the driver followed the leadership, what asynchronous replication
// lost at promotion (enumerated, not hidden), and the classified
// divergence diff of the final caught-up replica against the journaled
// model. Present only on the replica chaos runner's records.
type ReplicaRecord struct {
	Failovers  int `json:"failovers,omitempty"`
	Partitions int `json:"partitions,omitempty"`
	// DriverFailovers counts leader base swaps the driver performed;
	// DriverRecoveries counts failover sweeps resolved by the current base
	// answering as leader again — what a kill looks like to the driver
	// when the promoted node rebinds the dead leader's address before the
	// sweep runs. Together they measure how often leadership was
	// re-confirmed. StaleRejections counts follower reads refused for lag
	// that fell back to the leader.
	DriverFailovers  uint64 `json:"driver_failovers,omitempty"`
	DriverRecoveries uint64 `json:"driver_recoveries,omitempty"`
	StaleRejections  uint64 `json:"stale_rejections,omitempty"`
	// LostWrites counts feed entries acked by a killed leader that its
	// follower had not replayed at promotion — the asynchronous
	// replication loss, enumerated and tainted rather than hidden.
	LostWrites   int    `json:"lost_writes"`
	MaxReplayLag uint64 `json:"max_replay_lag"` // highest true replay lag sampled (leader head − follower cursor)

	ModelEntries   int    `json:"model_entries"`
	MissingKeys    uint64 `json:"missing_keys"`
	StaleKeys      uint64 `json:"stale_keys"`
	MismatchedKeys uint64 `json:"mismatched_keys"`
	LeakedKeys     uint64 `json:"leaked_keys"`
	Violations     uint64 `json:"divergence_violations"`
}

// Record is one (system, scenario, phase, thread count) measurement: the
// engine's PhaseResult beside what identifies the run, plus the blocks
// that belong to a run rather than a phase.
type Record struct {
	System   string `json:"system"`
	Scenario string `json:"scenario"`
	Threads  int    `json:"threads"`
	Shards   int    `json:"shards"`
	PhaseResult
	// Recovery is present on crash-phase records of crash scenarios and on
	// the crash-restart chaos runner's records.
	Recovery *RecoveryResult `json:"recovery,omitempty"`
	// FinalCheck is present only on the measured aggregate record of
	// VerifyFinal scenarios.
	FinalCheck *FinalCheckResult `json:"final_check,omitempty"`
	// Service is present on open-loop and chaos records.
	Service *ServiceRecord `json:"service,omitempty"`
	// Replica is present only on replica-chaos records.
	Replica *ReplicaRecord `json:"replica,omitempty"`
}

// ReportConfig echoes the run parameters into the report so a stored
// BENCH_*.json is self-describing.
type ReportConfig struct {
	Threads    []int  `json:"threads"`
	DurationNs int64  `json:"duration_ns"`
	KeyRange   uint64 `json:"key_range"`
	Preload    int    `json:"preload"`
	Seed       int64  `json:"seed"`
	GoMaxProcs int    `json:"gomaxprocs"`
}

// Report is the top-level JSON document.
type Report struct {
	Benchmark string       `json:"benchmark"` // always "medley-bench"
	Scenario  string       `json:"scenario"`
	Config    ReportConfig `json:"config"`
	Results   []Record     `json:"results"`
}

// NewReport seeds a report for one scenario run.
func NewReport(scenario string, threads []int, duration time.Duration, keyRange uint64, preload int, seed int64) *Report {
	return &Report{
		Benchmark: "medley-bench",
		Scenario:  scenario,
		Config: ReportConfig{
			Threads: threads, DurationNs: int64(duration),
			KeyRange: keyRange, Preload: preload, Seed: seed,
			GoMaxProcs: runtime.GOMAXPROCS(0),
		},
	}
}

// Add converts a ScenarioResult into records: one per phase plus the
// measured aggregate, so phase == "measured" is a stable cross-scenario
// selector for the headline number regardless of phase count. Crash-phase
// records carry the recovery digest.
func (rep *Report) Add(res ScenarioResult) {
	rec := Record{System: res.System, Scenario: res.Scenario, Threads: res.Threads, Shards: max(res.Shards, 1)}
	for _, ph := range res.Phases {
		rec.PhaseResult, rec.Recovery = ph, nil
		if ph.Crash {
			rec.Recovery = res.Recovery
		}
		rep.Results = append(rep.Results, rec)
	}
	rec.PhaseResult, rec.Recovery, rec.FinalCheck = res.Measured, nil, res.FinalCheck
	rep.Results = append(rep.Results, rec)
}

// WriteJSON emits the report, indented, to w.
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
