package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"medley/internal/harness"
)

const root = "../.." // repository root, from this package's directory

// TestMain lets a test run the command itself: with BENCH_SCHEMA_MAIN set,
// the test binary is bench-schema, flags and exit status included.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_SCHEMA_MAIN") != "" {
		main()
	}
	os.Exit(m.Run())
}

// TestEveryBudgetLoadsAndNamesItsScenario: each testdata/*_budget.json
// loads, and selects the scenario whose fresh CI run it gates, so that CI
// passing it a glob of reports judges something.
func TestEveryBudgetLoadsAndNamesItsScenario(t *testing.T) {
	want := map[string]string{
		"alloc_budget.json":           "alloc-pressure",
		"alloc_skip_budget.json":      "alloc-pressure",
		"alloc_txmontage_budget.json": "alloc-pressure",
		"fastpath_budget.json":        "read-mostly",
		"faults_budget.json":          "chaos-net-flaky",
		"replica_budget.json":         "chaos-replica-failover",
	}
	budgets, err := filepath.Glob(filepath.Join(root, "testdata/*_budget.json"))
	if err != nil || len(budgets) != len(want) {
		t.Fatalf("found budgets %v (%v), want exactly %d", budgets, err, len(want))
	}
	for _, path := range budgets {
		b, err := loadBudget(path)
		if err != nil {
			t.Error(err)
			continue
		}
		if name := filepath.Base(path); b.Scenario != want[name] {
			t.Errorf("%s selects scenario %q, want %q", name, b.Scenario, want[name])
		}
	}
}

// TestBudgetMatchingNoReportFails runs the command: a budget whose
// scenario no report carries has judged nothing, so the run fails and
// names the budget and the scenario; beside a report of its scenario the
// same budget passes.
func TestBudgetMatchingNoReportFails(t *testing.T) {
	dir := t.TempDir()
	writeReport := func(scenario string) string {
		rep := harness.NewReport(scenario, []int{2}, time.Second, 1<<10, 1<<8, 42)
		rep.Results = append(rep.Results, harness.Record{System: "sut", Scenario: scenario, Threads: 2,
			PhaseResult: harness.PhaseResult{Phase: "run", Txns: 10, Latency: harness.LatencySummary{AvgNs: 1, P50Ns: 1, P99Ns: 1}}})
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, scenario+".json")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	budgetPath := filepath.Join(dir, "seeded_budget.json")
	body := `{"scenario": "seeded", "phase": "run", "system": "sut", "rules": [{"path": "txns", "op": ">=", "bound": 1}]}`
	if err := os.WriteFile(budgetPath, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	other, own := writeReport("unrelated"), writeReport("seeded")

	for _, tc := range []struct {
		reports  []string
		wantExit int
	}{
		{[]string{other}, 1},
		{[]string{other, own}, 0},
	} {
		args := append([]string{"-schema", filepath.Join(root, "testdata/bench_schema.json"), "-budget", budgetPath}, tc.reports...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "BENCH_SCHEMA_MAIN=1")
		out, err := cmd.CombinedOutput()
		if cmd.ProcessState == nil {
			t.Fatal(err)
		}
		if got := cmd.ProcessState.ExitCode(); got != tc.wantExit {
			t.Errorf("reports %v: exit %d, want %d; output:\n%s", tc.reports, got, tc.wantExit, out)
			continue
		}
		if tc.wantExit != 0 && (!strings.Contains(string(out), budgetPath) || !strings.Contains(string(out), `"seeded"`)) {
			t.Errorf("failure does not name the budget and its scenario:\n%s", out)
		}
	}
}

// rec builds one synthetic report record; blocks are nested maps keyed by
// their JSON names.
func rec(system string, threads int, blocks map[string]any) map[string]any {
	r := map[string]any{"system": system, "phase": "run", "threads": threads}
	for k, v := range blocks {
		r[k] = v
	}
	return r
}

func report(t *testing.T, recs ...map[string]any) []byte {
	t.Helper()
	data, err := json.Marshal(map[string]any{"scenario": "seeded", "results": recs})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func num(v float64) *float64 { return &v }

// TestBudgetRules seeds one violation per rule kind beside a passing
// control. A failing case must say which system at which thread count.
func TestBudgetRules(t *testing.T) {
	allocs := func(v float64) map[string]any { return map[string]any{"memory": map[string]any{"allocs_per_op": v}} }
	tput := func(v float64) map[string]any { return map[string]any{"throughput_txn_per_sec": v} }
	sel := budget{Scenario: "seeded", Phase: "run", System: "sut", Baseline: "base"}
	ceiling := rule{Path: "memory.allocs_per_op", Op: "<=", Bound: num(1.1)}
	floor := rule{Path: "service.availability", Op: ">=", Bound: num(0.97)}
	speedup := rule{Path: "throughput_txn_per_sec", Op: ">=", Ratio: num(1.15)}

	for _, tc := range []struct {
		name string
		rule rule
		recs []map[string]any
		want []string // substrings of the one expected violation; nil = must pass
	}{
		{"ceiling holds", ceiling, []map[string]any{rec("sut", 2, allocs(1.1))}, nil},
		{"ceiling broken", ceiling, []map[string]any{rec("sut", 2, allocs(1.2))},
			[]string{"sut threads=2", "memory.allocs_per_op = 1.2", "<= 1.1"}},

		{"floor holds", floor,
			[]map[string]any{rec("sut", 4, map[string]any{"service": map[string]any{"availability": 0.97}})}, nil},
		{"floor broken", floor,
			[]map[string]any{rec("sut", 4, map[string]any{"service": map[string]any{"availability": 0.9}})},
			[]string{"sut threads=4", "service.availability = 0.9", ">= 0.97"}},
		{"omitted leaf reads as zero", floor,
			[]map[string]any{rec("sut", 4, map[string]any{"service": map[string]any{}})},
			[]string{"sut threads=4", "service.availability = 0"}},

		{"ratio holds", speedup, []map[string]any{rec("sut", 8, tput(1150)), rec("base", 8, tput(1000))}, nil},
		{"ratio broken", speedup, []map[string]any{rec("sut", 8, tput(1100)), rec("base", 8, tput(1000))},
			[]string{"sut threads=8", "throughput_txn_per_sec = 1100", "1.15 x base's 1000"}},
		{"ratio without a baseline record", speedup, []map[string]any{rec("sut", 8, tput(2000)), rec("base", 16, tput(1))},
			[]string{"sut threads=8", `no baseline "base" record`}},

		{"missing block", ceiling, []map[string]any{rec("sut", 2, tput(1))},
			[]string{"sut threads=2", "no memory block"}},

		{"vacuous: no record of the system", ceiling, []map[string]any{rec("other", 2, allocs(0))},
			[]string{`system "sut"`, "memory.allocs_per_op", "vacuously"}},
	} {
		b := sel
		b.Rules = []rule{tc.rule}
		got := b.violations(report(t, tc.recs...))
		if tc.want == nil {
			if len(got) != 0 {
				t.Errorf("%s: unexpected violations %q", tc.name, got)
			}
			continue
		}
		if len(got) != 1 {
			t.Errorf("%s: got %d violations %q, want exactly 1", tc.name, len(got), got)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(got[0], w) {
				t.Errorf("%s: violation %q does not mention %q", tc.name, got[0], w)
			}
		}
	}

	// Another scenario's report is not this budget's business, and does
	// not count as one it matched.
	other, _ := json.Marshal(map[string]any{"scenario": "unrelated", "results": []any{}})
	b := sel
	b.Rules = []rule{ceiling}
	if got := b.violations(other); len(got) != 0 || b.matched {
		t.Errorf("budget judged a report of another scenario: %q (matched=%v)", got, b.matched)
	}
}

// TestZeroLatencyGuard pins the always-on record check: transactions
// counted, latency never measured (the BENCH_replica.json of PR 10).
func TestZeroLatencyGuard(t *testing.T) {
	lat := func(avg float64) map[string]any {
		return map[string]any{"avg_ns": avg, "p50_ns": 0, "p99_ns": 0}
	}
	bad := report(t, rec("sut", 8, map[string]any{"txns": 8993, "latency": lat(0)}))
	got := recordViolations(bad, false)
	if len(got) != 1 || !strings.Contains(got[0], "sut threads=8") || !strings.Contains(got[0], "all-zero latency") {
		t.Errorf("zero-latency record not flagged by name: %q", got)
	}
	ok := report(t,
		rec("sut", 8, map[string]any{"txns": 8993, "latency": lat(1500)}),
		rec("sut", 8, map[string]any{"txns": 0, "latency": lat(0)})) // crash phases run no transactions
	if got := recordViolations(ok, false); len(got) != 0 {
		t.Errorf("measured or idle records flagged: %q", got)
	}
}

// TestLoadBudgetRejectsMalformed: a budget that cannot gate what its
// author meant must not load — including the pre-rule-list format and the
// retired thread floor.
func TestLoadBudgetRejectsMalformed(t *testing.T) {
	for name, body := range map[string]string{
		"old format":       `{"scenario": "read-mostly", "system": "a", "baseline": "b", "min_speedup": 0.15}`,
		"no rules":         `{"scenario": "x", "rules": []}`,
		"no path":          `{"rules": [{"op": ">=", "bound": 1}]}`,
		"bad op":           `{"rules": [{"path": "txns", "op": ">", "bound": 1}]}`,
		"bound and ratio":  `{"system": "a", "baseline": "b", "rules": [{"path": "txns", "op": ">=", "bound": 1, "ratio": 1}]}`,
		"neither":          `{"rules": [{"path": "txns", "op": ">="}]}`,
		"ratio, no system": `{"rules": [{"path": "txns", "op": ">=", "ratio": 1.1}]}`,
		"min_threads":      `{"rules": [{"path": "txns", "op": ">=", "bound": 1, "min_threads": 8}]}`,
	} {
		path := filepath.Join(t.TempDir(), "budget.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadBudget(path); err == nil {
			t.Errorf("%s: loaded without error", name)
		}
	}
}
