package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// sampleRecords is a one-phase run as RunScenario returns it: the phase's
// record, then the measured aggregate.
func sampleRecords() []Record {
	mixed := Record{
		System: "Medley-hash", Scenario: "zipfian-mixed", Threads: 4, Shards: 1,
		PhaseResult: PhaseResult{
			Phase: "mixed", Txns: 1000, Ops: 5000, Aborts: 10,
			Elapsed: time.Second, Throughput: 1000, AbortRate: 10.0 / 1010,
			Latency: LatencySummary{AvgNs: 900, P50Ns: 800, P99Ns: 4000},
			Memory: &MemoryResult{
				TotalAllocs: 25000, TotalBytes: 800000,
				AllocsPerOp: 5, BytesPerOp: 160, GCPauseNs: 120000, NumGC: 2,
				PoolGets: 9000, PoolHits: 8500, PoolRetires: 8800, PoolHitRate: 8500.0 / 9000,
			},
		},
	}
	measured := mixed
	measured.Phase = "measured"
	return []Record{mixed, measured}
}

// TestReportJSONSchema pins the BENCH_*.json contract: field names and
// structure that downstream tooling (and future PRs' trend tracking)
// depend on.
func TestReportJSONSchema(t *testing.T) {
	rep := NewReport("zipfian-mixed", []int{1, 4}, 2*time.Second, 1<<20, 1<<19, 42)
	rep.Results = append(rep.Results, sampleRecords()...)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if doc["benchmark"] != "medley-bench" || doc["scenario"] != "zipfian-mixed" {
		t.Fatalf("bad report header: %v", doc)
	}
	cfg, ok := doc["config"].(map[string]any)
	if !ok {
		t.Fatal("missing config object")
	}
	for _, k := range []string{"threads", "duration_ns", "key_range", "preload", "seed", "gomaxprocs"} {
		if _, ok := cfg[k]; !ok {
			t.Fatalf("config missing %q", k)
		}
	}
	// Single-phase scenarios still emit the measured aggregate so that
	// phase == "measured" selects the headline record for every scenario.
	results, ok := doc["results"].([]any)
	if !ok || len(results) != 2 {
		t.Fatalf("want phase record + measured aggregate, got %v", doc["results"])
	}
	if ph := results[1].(map[string]any)["phase"]; ph != "measured" {
		t.Fatalf("second record phase = %v, want measured", ph)
	}
	rec := results[0].(map[string]any)
	for _, k := range []string{
		"system", "scenario", "phase", "threads", "txns", "ops", "aborts",
		"elapsed_ns", "throughput_txn_per_sec", "abort_rate", "latency",
	} {
		if _, ok := rec[k]; !ok {
			t.Fatalf("record missing %q: %v", k, rec)
		}
	}
	lat := rec["latency"].(map[string]any)
	for _, k := range []string{"avg_ns", "p50_ns", "p99_ns"} {
		if _, ok := lat[k]; !ok {
			t.Fatalf("latency missing %q", k)
		}
	}
	if rec["throughput_txn_per_sec"].(float64) != 1000 {
		t.Fatalf("throughput mangled: %v", rec["throughput_txn_per_sec"])
	}
}

// TestReportGolden pins values as well as shape: the document
// schemaReport(true) emits must decode to the one captured
// before the engine's result types became the records (same keys, same
// values; key order is free).
func TestReportGolden(t *testing.T) {
	rep := schemaReport(true)
	rep.Config.GoMaxProcs = 1 // the one machine-dependent field
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/report_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("report differs from testdata/report_golden.json:\n%s", buf.Bytes())
	}
}
