package main

import (
	"encoding/json"
	"flag"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"medley/internal/harness"
)

// resetFlags puts every medley-bench flag back to its default before and
// after a test that parses a command line: the flags are package
// variables, and -short rewrites four of them.
func resetFlags(t *testing.T) {
	t.Helper()
	reset := func() {
		flag.CommandLine.VisitAll(func(f *flag.Flag) {
			if !strings.HasPrefix(f.Name, "test.") {
				_ = f.Value.Set(f.DefValue) // a default always parses
			}
		})
	}
	reset()
	t.Cleanup(reset)
}

// TestRunScenarioUnknownNameFails pins the CI-smoke contract: an unknown
// -scenario value must surface an error (main turns it into exit 2), not
// print-and-exit-zero.
func TestRunScenarioUnknownNameFails(t *testing.T) {
	err := runScenario("no-such-scenario", []int{1})
	if err == nil {
		t.Fatal("unknown scenario did not error")
	}
	if !strings.Contains(err.Error(), "no-such-scenario") {
		t.Fatalf("error does not name the scenario: %v", err)
	}
	if !strings.Contains(err.Error(), "chaos-net-flaky") || !strings.Contains(err.Error(), "uniform-mixed") {
		t.Fatalf("error does not list both tables' names: %v", err)
	}
}

func TestSelectSystemsRejectsUnknown(t *testing.T) {
	resetFlags(t)
	sc, err := harness.LookupScenario("uniform-mixed")
	if err != nil {
		t.Fatal(err)
	}
	*systemsFlag = "medley-hash,bogus-system"
	if _, err := selectSystems(sc, sc.Systems); err == nil {
		t.Fatal("unknown system did not error")
	}
	// One resolver: entries are trimmed wherever the list is used.
	*systemsFlag = " medley-hash , tdsl"
	if got, err := selectSystems(sc, sc.Systems); err != nil || !slices.Equal(got, []string{"medley-hash", "tdsl"}) {
		t.Fatalf("selectSystems = %v, %v", got, err)
	}
}

// TestDefaultSystemsAuto pins '-systems auto' for every scenario name to
// the list the name-keyed switch this table replaced returned (written out
// here, not read from the rows), each spec valid for its scenario.
func TestDefaultSystemsAuto(t *testing.T) {
	resetFlags(t)
	transient := "medley-hash medley-skip medley-bst medley-rotating onefile-hash tdsl lftt"
	crash := "txmontage-hash ponefile-hash medley-hash"
	want := map[string]string{
		"uniform-mixed": transient, "uniform-readmostly": transient, "uniform-writeheavy": transient,
		"zipfian-mixed": transient, "zipfian-readmostly": transient,
		"latest-mixed": transient, "hotspot-readmostly": transient,
		"transfer": transient, "tpcc-mini": transient, "composed-mixed": transient,
		"range-scan": transient, "load-mixed-drain": transient,
		"crash-recover-uniform": crash, "crash-recover-zipfian": crash, "crash-recover-writeheavy": crash,
		"chaos-crash-in-recovery": crash,
		"alloc-pressure":          "medley-hash",
		"read-mostly":             "medley-hash medley-hash-nofast",
		"scan-heavy":              "medley-hash medley-hash-nofast",
		"sharded-zipfian":         "medley-hash medley-hash@8 medley-skip@8 onefile-hash",
		"tpcc-full":               "medley-hash medley-hash@4",
		"chaos-hot-key":           "medley-hash medley-skip",
		"chaos-oversubscribe":     "medley-hash",
		"chaos-shard-skew":        "medley-hash medley-hash@8",
		"chaos-scan-race":         "medley-hash medley-skip",
		"service-mixed":           "medley-hash@8",
		"chaos-service-restart":   "ponefile-hash",
		"chaos-net-flaky":         "ponefile-hash",
		"chaos-slow-client":       "ponefile-hash",
		"chaos-replica-failover":  "medley-hash@2",
		"chaos-replica-lag":       "medley-hash@2",
	}
	for name, list := range want {
		sc, auto := harness.Scenario{}, []string(nil)
		if row, ok := chaosRows[name]; ok {
			auto = []string{row.system}
		} else {
			var err error
			if sc, err = harness.LookupScenario(name); err != nil {
				t.Error(err)
				continue
			}
			auto = sc.Systems
		}
		got, err := selectSystems(sc, auto)
		if err != nil || strings.Join(got, " ") != list {
			t.Errorf("%s: auto = %v, %v; want %s", name, got, err, list)
		}
	}
	// Nothing resolvable is left out of the table above except the names
	// this table added.
	added := []string{"tpcc-paper", "zipfian-writeheavy", "latest-readmostly", "latest-writeheavy", "hotspot-mixed", "hotspot-writeheavy"}
	for _, n := range slices.AppendSeq(harness.ScenarioNames(), maps.Keys(chaosRows)) {
		if _, ok := want[n]; !ok && !slices.Contains(added, n) {
			t.Errorf("scenario %q has no pinned auto list", n)
		}
	}
}

func TestParseThreads(t *testing.T) {
	if _, err := parseThreads("1,2,x"); err == nil {
		t.Fatal("bad thread list accepted")
	}
	if _, err := parseThreads("0"); err == nil {
		t.Fatal("zero thread count accepted")
	}
	got, err := parseThreads(" 1, 2,8")
	if err != nil || len(got) != 3 || got[2] != 8 {
		t.Fatalf("parseThreads = %v, %v", got, err)
	}
}

// runReport runs the command line through run() with -json -out into a
// temporary file, validates the file against the committed schema and
// returns the decoded report.
func runReport(t *testing.T, args ...string) harness.Report {
	t.Helper()
	resetFlags(t)
	out := filepath.Join(t.TempDir(), "report.json")
	if code := run(append(args, "-json", "-out", out)); code != 0 {
		t.Fatalf("run(%v) = %d", args, code)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := harness.LoadSchema("../../testdata/bench_schema.json")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := harness.CanonicalPaths(raw)
	if err != nil {
		t.Fatal(err)
	}
	if problems := schema.Diff(paths); len(problems) != 0 {
		t.Fatalf("report drifts from testdata/bench_schema.json: %v", problems)
	}
	var rep harness.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestFiguresAreReports runs figure mode end to end: a figure is scenario
// rows on a system list, so -fig writes the same schema-checked report
// -scenario does.
func TestFiguresAreReports(t *testing.T) {
	rep := runReport(t, "-fig", "7", "-short", "-threads", "1")
	points := map[[2]string]bool{}
	for _, r := range rep.Results {
		if r.Phase == "measured" {
			if r.Txns == 0 {
				t.Errorf("%s on %s: no transactions", r.Scenario, r.System)
			}
			points[[2]string{r.System, r.Scenario}] = true
		}
	}
	for _, sys := range []string{"Medley-hash", "txMontage-hash", "OneFile-hash", "POneFile-hash"} {
		for _, sc := range []string{"uniform-writeheavy", "uniform-mixed", "uniform-readmostly"} {
			if !points[[2]string{sys, sc}] {
				t.Errorf("fig 7 report lacks %s on %s", sc, sys)
			}
		}
	}
	if len(points) != 12 || rep.Scenario != "fig7" {
		t.Errorf("fig 7 report %q has %d points, want 12", rep.Scenario, len(points))
	}

	rep = runReport(t, "-fig", "9", "-short", "-threads", "1")
	checked := map[string]bool{}
	for _, r := range rep.Results {
		if r.Phase != "measured" {
			continue
		}
		if r.Scenario != "tpcc-paper" || len(r.Kinds) == 0 {
			t.Errorf("%s: scenario %q, %d kinds: not a TPCCSystem record", r.System, r.Scenario, len(r.Kinds))
		}
		if c := r.Consistency; c == nil || !c.Checked || c.Violations != 0 {
			t.Errorf("%s: consistency %+v, want checked with 0 violations", r.System, c)
		}
		checked[r.System] = true
	}
	for _, sys := range []string{"Medley-skip", "txMontage-skip", "OneFile-skip", "TDSL-skip"} {
		if !checked[sys] {
			t.Errorf("fig 9 report lacks backend %s", sys)
		}
	}
}

// TestLargestThreadCountIsTheMaximum pins "largest requested thread
// count" to the maximum, not the last element: -threads 2,1 runs a
// latency figure at 2, and the report records only the count that ran.
func TestLargestThreadCountIsTheMaximum(t *testing.T) {
	rep := runReport(t, "-fig", "10b", "-short", "-threads", "2,1")
	if !slices.Equal(rep.Config.Threads, []int{2}) {
		t.Errorf("config.threads = %v, want [2]", rep.Config.Threads)
	}
	for _, r := range rep.Results {
		if r.Threads != 2 {
			t.Errorf("%s/%s ran at %d threads", r.System, r.Scenario, r.Threads)
		}
	}
}
