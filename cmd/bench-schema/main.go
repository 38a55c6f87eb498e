// Command bench-schema validates BENCH_*.json benchmark reports against
// the committed schema (testdata/bench_schema.json), failing on drift:
// a report containing key paths the schema does not know, or missing
// required paths, exits non-zero. CI runs it over freshly generated
// reports so the JSON contract of internal/harness/report.go cannot
// change without updating the schema in the same commit. A record that
// counted transactions but reports an all-zero latency block fails too:
// that is a runner that forgot to measure, not a fast one.
//
// With -fail-on-violations it additionally fails when any recoverable
// crash record reports durability violations, when any consistency block
// reports failed domain invariants (the TPC-C clause 3.3.2 classes),
// when a final-check block reports live state diverging from the
// journaled model, or when a replica block reports the surviving
// replica diverging from the acknowledged-write model — which is what
// turns the crash, TPC-C and chaos soaks into correctness gates.
//
// With -budget (repeatable) it enforces a committed regression budget
// (testdata/*_budget.json; format in budget.go) against the reports: a
// record selector — scenario, phase, system — and a list of rules, each
// bounding one number of every selected record from above or below,
// absolutely or relative to a named baseline system at the same thread
// count. Reports of other scenarios are skipped, but a budget whose
// scenario no report carries fails the run, and within a matching report
// a rule that finds nothing to judge is itself a violation.
//
//	bench-schema -schema testdata/bench_schema.json BENCH_*.json
//	bench-schema -budget testdata/fastpath_budget.json BENCH_read-mostly.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"medley/internal/harness"
)

var (
	schemaFlag     = flag.String("schema", "testdata/bench_schema.json", "committed schema file")
	violationsFlag = flag.Bool("fail-on-violations", false,
		"also fail on durability, consistency, final-state or replica-divergence violations in any record")
	budgetFlags []string // the repeatable -budget flag
)

func main() {
	flag.Func("budget", "also enforce this budget file against the reports (repeatable)",
		func(path string) error { budgetFlags = append(budgetFlags, path); return nil })
	os.Exit(run())
}

func run() int {
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: bench-schema [-schema file] [-fail-on-violations] [-budget file]... report.json...")
		return 2
	}
	schema, err := harness.LoadSchema(*schemaFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	budgets := make([]budget, len(budgetFlags))
	for i, path := range budgetFlags {
		if budgets[i], err = loadBudget(path); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	failed := false
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed = true
			continue
		}
		for _, msg := range check(schema, budgets, *violationsFlag, data) {
			fmt.Fprintf(os.Stderr, "%s: %s\n", path, msg)
			failed = true
		}
	}
	for _, b := range budgets {
		if !b.matched {
			fmt.Fprintf(os.Stderr, "budget %s: no report of scenario %q among the arguments (it would judge nothing)\n", b.file, b.Scenario)
			failed = true
		}
	}
	if failed {
		return 1
	}
	fmt.Printf("bench-schema: %d report(s) OK\n", flag.NArg())
	return 0
}

// check runs every gate over one report and returns what failed.
func check(schema harness.Schema, budgets []budget, verifiers bool, data []byte) []string {
	paths, err := harness.CanonicalPaths(data)
	if err != nil {
		return []string{err.Error()}
	}
	var out []string
	for _, msg := range schema.Diff(paths) {
		out = append(out, "schema drift: "+msg)
	}
	out = append(out, recordViolations(data, verifiers)...)
	for i := range budgets {
		for _, msg := range budgets[i].violations(data) {
			out = append(out, fmt.Sprintf("budget %s: %s", budgets[i].file, msg))
		}
	}
	return out
}

// recordViolations scans a report's records: always for the zero-latency
// lie (txns counted, latency block all zero), and with verifiers set for
// records whose verifiers counted violations — recoverable crash records
// with durability violations, consistency blocks with failed domain
// invariants, final-check blocks whose live state diverged from the
// journaled model, and replica blocks whose surviving replica diverged
// from the acknowledged-write model.
func recordViolations(data []byte, verifiers bool) []string {
	var doc struct {
		Results []harness.Record `json:"results"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return []string{err.Error()}
	}
	var out []string
	for _, r := range doc.Results {
		who := fmt.Sprintf("%s threads=%d phase=%s", r.System, r.Threads, r.Phase)
		if r.Txns > 0 && r.Latency == (harness.LatencySummary{}) {
			out = append(out, fmt.Sprintf("%s: %d txns but an all-zero latency block", who, r.Txns))
		}
		if !verifiers {
			continue
		}
		if rec := r.Recovery; rec != nil && rec.Recoverable && rec.Violations > 0 {
			out = append(out, fmt.Sprintf(
				"%s: %d durability violations (missing=%d mismatched=%d leaked=%d)",
				who, rec.Violations, rec.Missing, rec.Mismatched, rec.Leaked))
		}
		if c := r.Consistency; c != nil && c.Checked && c.Violations > 0 {
			var classes []string
			for _, cc := range c.Classes {
				classes = append(classes, fmt.Sprintf("%s=%d", cc.Class, cc.Count))
			}
			out = append(out, fmt.Sprintf("%s: %d consistency violations (%s)",
				who, c.Violations, strings.Join(classes, " ")))
		}
		if fc := r.FinalCheck; fc != nil && fc.Checked && fc.Violations > 0 {
			out = append(out, fmt.Sprintf(
				"%s: %d final-state violations (missing=%d mismatched=%d leaked=%d)",
				who, fc.Violations, fc.Missing, fc.Mismatched, fc.Leaked))
		}
		if rp := r.Replica; rp != nil && rp.Violations > 0 {
			out = append(out, fmt.Sprintf(
				"%s: %d replica divergence violations (missing=%d stale=%d mismatched=%d leaked=%d)",
				who, rp.Violations, rp.MissingKeys, rp.StaleKeys, rp.MismatchedKeys, rp.LeakedKeys))
		}
	}
	return out
}
