package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// budget is one committed regression contract (testdata/*_budget.json): a
// record selector plus a list of rules every selected record must satisfy.
// All four gates — allocation, fast-path, fault-tolerance, replication —
// are instances of this one shape.
type budget struct {
	// Scenario, Phase and System select the judged records; "" matches
	// anything. A report of another scenario passes vacuously — a budget
	// file may ride along a BENCH_*.json glob — but within a matching
	// report every rule must find at least one record to judge.
	Scenario string `json:"scenario"`
	Phase    string `json:"phase"`
	System   string `json:"system"`
	// Baseline names the system ratio rules compare against, at the same
	// phase and thread count.
	Baseline string `json:"baseline"`
	Rules    []rule `json:"rules"`

	file string // where it was loaded from, for messages
}

// rule bounds one number of a record.
type rule struct {
	// Path is the dotted JSON path inside the record, e.g.
	// "memory.allocs_per_op". A missing block is a violation; a missing
	// leaf inside a present block reads as 0, which is what the report's
	// omitempty fields mean by absence.
	Path string `json:"path"`
	// Op is ">=" (floor) or "<=" (ceiling), against Bound — or against
	// Ratio x the baseline system's value at the same thread count (1.15
	// with ">=" = at least 15% above; 0.6 with "<=" = at least 40% below).
	Op    string   `json:"op"`
	Bound *float64 `json:"bound"`
	Ratio *float64 `json:"ratio"`
	// MinThreads restricts the rule to records at or above this thread
	// count.
	MinThreads int `json:"min_threads"`
}

func loadBudget(path string) (budget, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return budget{}, err
	}
	b := budget{file: path}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields() // a misspelt bound must not gate nothing
	if err := dec.Decode(&b); err != nil {
		return budget{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Rules) == 0 {
		return budget{}, fmt.Errorf("%s: budget has no rules", path)
	}
	for i, r := range b.Rules {
		switch {
		case r.Path == "":
			err = fmt.Errorf("no path")
		case r.Op != ">=" && r.Op != "<=":
			err = fmt.Errorf("op %q is not >= or <=", r.Op)
		case (r.Bound == nil) == (r.Ratio == nil):
			err = fmt.Errorf("want exactly one of bound and ratio")
		case r.Ratio != nil && (b.Baseline == "" || b.System == ""):
			err = fmt.Errorf("ratio needs the budget to name system and baseline")
		}
		if err != nil {
			return budget{}, fmt.Errorf("%s: rule %d: %w", path, i, err)
		}
	}
	return b, nil
}

// lookup walks a dotted path into a record.
func lookup(rec map[string]any, path string) (float64, error) {
	segs := strings.Split(path, ".")
	for _, seg := range segs[:len(segs)-1] {
		next, ok := rec[seg].(map[string]any)
		if !ok {
			return 0, fmt.Errorf("no %s block (wanted %s)", seg, path)
		}
		rec = next
	}
	switch v := rec[segs[len(segs)-1]].(type) {
	case nil:
		return 0, nil
	case float64:
		return v, nil
	default:
		return 0, fmt.Errorf("%s is not a number", path)
	}
}

// violations checks one report against the budget.
func (b budget) violations(data []byte) []string {
	var doc struct {
		Scenario string           `json:"scenario"`
		Results  []map[string]any `json:"results"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return []string{err.Error()}
	}
	if b.Scenario != "" && doc.Scenario != b.Scenario {
		return nil
	}
	var judged []map[string]any
	baseline := map[float64]map[string]any{} // threads -> baseline record
	for _, r := range doc.Results {
		if b.Phase != "" && r["phase"] != b.Phase {
			continue
		}
		switch {
		case b.System == "" || r["system"] == b.System:
			judged = append(judged, r)
		case r["system"] == b.Baseline:
			threads, _ := r["threads"].(float64)
			baseline[threads] = r
		}
	}
	var out []string
	for _, rl := range b.Rules {
		n := 0
		for _, r := range judged {
			threads, _ := r["threads"].(float64)
			if threads < float64(rl.MinThreads) {
				continue
			}
			n++
			who := fmt.Sprintf("%v threads=%v", r["system"], threads)
			got, err := lookup(r, rl.Path)
			if err != nil {
				out = append(out, fmt.Sprintf("%s: %v", who, err))
				continue
			}
			var limit float64
			var versus string
			if rl.Ratio == nil {
				limit = *rl.Bound
			} else {
				base, ok := baseline[threads]
				if !ok {
					out = append(out, fmt.Sprintf("%s: no baseline %q record to compare %s against", who, b.Baseline, rl.Path))
					continue
				}
				bv, err := lookup(base, rl.Path)
				if err != nil {
					out = append(out, fmt.Sprintf("%s: baseline %s: %v", who, b.Baseline, err))
					continue
				}
				limit = *rl.Ratio * bv
				versus = fmt.Sprintf(" (%g x %s's %g)", *rl.Ratio, b.Baseline, bv)
			}
			if (rl.Op == ">=" && got < limit) || (rl.Op == "<=" && got > limit) {
				out = append(out, fmt.Sprintf("%s: %s = %g, want %s %g%s", who, rl.Path, got, rl.Op, limit, versus))
			}
		}
		if n == 0 {
			out = append(out, fmt.Sprintf("no phase %q records of system %q at threads >= %d to judge %s (gate would pass vacuously)",
				b.Phase, b.System, rl.MinThreads, rl.Path))
		}
	}
	return out
}
