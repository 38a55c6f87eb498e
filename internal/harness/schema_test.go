package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// schemaReport builds a report exercising the full JSON surface: an
// ordinary phase record plus, when full, every optional block — a crash
// record with the recovery block, the fastpath, telemetry, kind,
// consistency and final-check blocks on the run records, a chaos
// record carrying the service fault-disposition fields, and a
// replica-chaos record carrying the replication block. The open-loop and
// chaos records are built by hand the way RunOpenLoop and chaos.Run build
// theirs.
func schemaReport(full bool) *Report {
	rep := NewReport("crash-recover-uniform", []int{2}, time.Second, 1<<10, 1<<8, 42)
	res := sampleResult()
	if full {
		fp := &FastpathResult{ReadOnlyCommits: 700, FastPathCommits: 900, Commits: 1000, FastpathShare: 0.9}
		res.Phases[0].Fastpath = fp
		res.Measured.Fastpath = fp
		tel := &TelemetryResult{
			Counters: []Metric{{Name: "tx_commits", Value: 1000}},
			Gauges:   []Gauge{{Name: "abort_rate", Value: 0.01}},
		}
		res.Phases[0].Telemetry = tel
		res.Measured.Telemetry = tel
		kinds := []KindResult{{Kind: "newOrder", Txns: 450, Aborts: 3, AvgNs: 1500}}
		res.Phases[0].Kinds = kinds
		res.Measured.Kinds = kinds
		cons := &ConsistencyResult{Checked: true, Violations: 1,
			Classes: []ClassCount{{Class: "money", Count: 1}}}
		res.Phases[0].Consistency = cons
		res.Measured.Consistency = cons
		res.Phases = append(res.Phases, PhaseResult{Phase: "crash", Crash: true, Elapsed: time.Millisecond})
		res.Recovery = &RecoveryResult{Recoverable: true, RecoveryNs: int64(time.Millisecond),
			Recovered: 10, ModelEntries: 10}
		res.FinalCheck = &FinalCheckResult{Checked: true, ModelEntries: 10}
	}
	rep.Add(res)
	if full {
		rep.Results = append(rep.Results, Record{
			System: "medley-hash", Scenario: "service-mixed", Threads: 64, Shards: 8,
			PhaseResult: PhaseResult{
				Phase: "rate-1000", Txns: 980, Ops: 4900, Elapsed: time.Second, Throughput: 980,
				Latency: LatencySummary{AvgNs: 1000, P50Ns: 900, P99Ns: 5000},
				Memory:  &MemoryResult{TotalAllocs: 100, TotalBytes: 1 << 16},
			},
			Service: &ServiceRecord{
				Driver: "inproc", TargetRate: 1000, OfferedRate: 990,
				OfferedTxns: 990, CompletedTxns: 980, ShedTxns: 5, ErrorTxns: 1, DroppedTxns: 4,
				Goodput: 980, P999Ns: 9000,
			},
		})
		rep.Results = append(rep.Results, Record{
			System: "medley-hash", Scenario: "chaos-net-flaky", Threads: 8, Shards: 1,
			PhaseResult: PhaseResult{
				Phase: "chaos", Txns: 900, Ops: 4500, Elapsed: time.Second, Throughput: 900,
				Latency: LatencySummary{AvgNs: 1000, P50Ns: 900, P99Ns: 5000},
			},
			Service: &ServiceRecord{
				Driver: "http", OfferedTxns: 1000, CompletedTxns: 900,
				ShedTxns: 50, ErrorTxns: 20, DroppedTxns: 5,
				ExpiredTxns: 20, InDoubtTxns: 5, RetriedTxns: 30,
				BreakerOpens: 1, Restarts: 3,
				DowntimeNs:   int64(100 * time.Millisecond),
				Availability: 0.97, TaintedKeys: 4,
				Goodput: 900, P999Ns: 9000,
			},
			Recovery: &RecoveryResult{Recoverable: true,
				RecoveryNs: int64(time.Millisecond), Recovered: 10, ModelEntries: 10},
		})
		rep.Results = append(rep.Results, Record{
			System: "medley-hash@2", Scenario: "chaos-replica-failover", Threads: 8, Shards: 1,
			PhaseResult: PhaseResult{Phase: "replica-chaos", Txns: 900, Elapsed: time.Second, Throughput: 900},
			Service: &ServiceRecord{
				Driver: "http", OfferedTxns: 1000, CompletedTxns: 900,
				ErrorTxns: 20, ExpiredTxns: 20, InDoubtTxns: 5, RetriedTxns: 30,
				DowntimeNs:   int64(100 * time.Millisecond),
				Availability: 0.97, TaintedKeys: 4, Goodput: 900,
			},
			Replica: &ReplicaRecord{
				Failovers: 3, Partitions: 2,
				DriverFailovers: 3, DriverRecoveries: 1, StaleRejections: 7,
				LostWrites: 4, MaxReplayLag: 20, ModelEntries: 100,
				MissingKeys: 1, StaleKeys: 1, MismatchedKeys: 1, LeakedKeys: 1,
				Violations: 4,
			},
		})
	}
	return rep
}

// TestBenchSchemaPinsReportShape is the in-repo half of the CI schema
// gate: the committed schema's required paths must be exactly the shape
// of a plain report, and required+optional exactly the shape with the
// recovery block present. Changing report.go without regenerating
// testdata/bench_schema.json fails here before it fails in CI.
func TestBenchSchemaPinsReportShape(t *testing.T) {
	schema, err := LoadSchema("../../testdata/bench_schema.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(schema.Required) == 0 || len(schema.Optional) == 0 {
		t.Fatalf("schema incomplete: %+v", schema)
	}

	pathsOf := func(rep *Report) []string {
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		paths, err := CanonicalPaths(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return paths
	}

	plain := pathsOf(schemaReport(false))
	if drift := schema.Diff(plain); drift != nil {
		t.Fatalf("plain report drifts from schema: %v", drift)
	}
	// A plain report's shape is exactly the required paths plus the
	// memory block. Memory is optional document-wide — chaos records
	// carry no memory stats, and the schema gate checks presence across
	// the whole document — but every plain run-phase record still emits
	// it, so anything else beyond required is drift.
	req := make(map[string]bool, len(schema.Required))
	for _, p := range schema.Required {
		req[p] = true
	}
	for _, p := range plain {
		if !req[p] && !strings.HasPrefix(p, ".results[].memory.") {
			t.Errorf("plain report emits %s, neither required nor a memory path", p)
		}
	}

	full := pathsOf(schemaReport(true))
	if got, want := len(full), len(schema.Required)+len(schema.Optional); got != want {
		t.Errorf("crash report emits %d paths, schema knows %d", got, want)
	}
	if drift := schema.Diff(full); drift != nil {
		t.Fatalf("crash report drifts from schema: %v", drift)
	}
}

func TestSchemaDiffDetectsDrift(t *testing.T) {
	s := Schema{Required: []string{".a", ".b"}, Optional: []string{".c"}}
	if drift := s.Diff([]string{".a", ".b", ".c"}); drift != nil {
		t.Fatalf("clean document flagged: %v", drift)
	}
	if drift := s.Diff([]string{".a", ".b", ".d"}); len(drift) != 1 {
		t.Fatalf("unknown path not flagged exactly once: %v", drift)
	}
	if drift := s.Diff([]string{".a"}); len(drift) != 1 {
		t.Fatalf("missing required path not flagged exactly once: %v", drift)
	}
}

func TestCanonicalPathsShapeInvariance(t *testing.T) {
	a, err := CanonicalPaths([]byte(`{"x": [{"y": 1}, {"y": 2}], "z": "s"}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := CanonicalPaths([]byte(`{"x": [{"y": 9}], "z": "t"}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 2 || len(b) != 2 || a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("same shape, different paths: %v vs %v", a, b)
	}
}
