package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"medley/internal/harness"
)

const root = "../.." // repository root, from this package's directory

// TestCommittedBaselinesPassTheirBudgets runs the CI gates in-process:
// every committed BENCH_*.json is schema-clean with no verifier
// violations and no zero-latency record, each committed budget passes the
// report it was written for (non-vacuously: the scenario matches), and it
// passes vacuously on the other reports of a BENCH_*.json glob.
func TestCommittedBaselinesPassTheirBudgets(t *testing.T) {
	schema, err := harness.LoadSchema(filepath.Join(root, "testdata/bench_schema.json"))
	if err != nil {
		t.Fatal(err)
	}
	reports, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil || len(reports) < 7 {
		t.Fatalf("found %d committed reports (%v), want >= 7", len(reports), err)
	}
	own := map[string]string{
		"alloc_budget.json":    "BENCH_alloc-pressure.json",
		"fastpath_budget.json": "BENCH_readmostly.json",
		"faults_budget.json":   "BENCH_faults.json",
		"replica_budget.json":  "BENCH_replica.json",
	}
	budgets, err := filepath.Glob(filepath.Join(root, "testdata/*_budget.json"))
	if err != nil || len(budgets) != len(own) {
		t.Fatalf("found budgets %v (%v), want exactly %d", budgets, err, len(own))
	}
	for _, bpath := range budgets {
		b, err := loadBudget(bpath)
		if err != nil {
			t.Fatal(err)
		}
		matched := false
		for _, rpath := range reports {
			data, err := os.ReadFile(rpath)
			if err != nil {
				t.Fatal(err)
			}
			for _, msg := range check(schema, []budget{b}, true, data) {
				t.Errorf("%s: %s", filepath.Base(rpath), msg)
			}
			if filepath.Base(rpath) == own[filepath.Base(bpath)] {
				var doc struct{ Scenario string }
				if err := json.Unmarshal(data, &doc); err != nil {
					t.Fatal(err)
				}
				matched = doc.Scenario == b.Scenario
			}
		}
		if !matched {
			t.Errorf("%s does not select its own report %s", filepath.Base(bpath), own[filepath.Base(bpath)])
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
	speedup := rule{Path: "throughput_txn_per_sec", Op: ">=", Ratio: num(1.15), MinThreads: 8}

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

		{"below min_threads is not judged", speedup,
			[]map[string]any{rec("sut", 4, tput(1)), rec("base", 4, tput(1000)),
				rec("sut", 8, tput(2000)), rec("base", 8, tput(1000))}, nil},
		{"at min_threads is judged", speedup,
			[]map[string]any{rec("sut", 4, tput(2000)), rec("base", 4, tput(1000)),
				rec("sut", 8, tput(1)), rec("base", 8, tput(1000))},
			[]string{"sut threads=8"}},

		{"missing block", ceiling, []map[string]any{rec("sut", 2, tput(1))},
			[]string{"sut threads=2", "no memory block"}},

		{"vacuous: no record of the system", ceiling, []map[string]any{rec("other", 2, allocs(0))},
			[]string{`system "sut"`, "threads >= 0", "vacuously"}},
		{"vacuous: none at the thread floor", speedup,
			[]map[string]any{rec("sut", 4, tput(2000)), rec("base", 4, tput(1000))},
			[]string{`system "sut"`, "threads >= 8", "vacuously"}},
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

	// Another scenario's report is not this budget's business.
	other, _ := json.Marshal(map[string]any{"scenario": "unrelated", "results": []any{}})
	b := sel
	b.Rules = []rule{ceiling}
	if got := b.violations(other); len(got) != 0 {
		t.Errorf("budget judged a report of another scenario: %q", got)
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
// author meant must not load — including the pre-rule-list format.
func TestLoadBudgetRejectsMalformed(t *testing.T) {
	for name, body := range map[string]string{
		"old format":       `{"scenario": "read-mostly", "system": "a", "baseline": "b", "min_speedup": 0.15}`,
		"no rules":         `{"scenario": "x", "rules": []}`,
		"no path":          `{"rules": [{"op": ">=", "bound": 1}]}`,
		"bad op":           `{"rules": [{"path": "txns", "op": ">", "bound": 1}]}`,
		"bound and ratio":  `{"system": "a", "baseline": "b", "rules": [{"path": "txns", "op": ">=", "bound": 1, "ratio": 1}]}`,
		"neither":          `{"rules": [{"path": "txns", "op": ">="}]}`,
		"ratio, no system": `{"rules": [{"path": "txns", "op": ">=", "ratio": 1.1}]}`,
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
