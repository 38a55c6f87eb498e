package harness

import (
	"strings"
	"testing"
	"time"

	"medley/internal/tpcc"
)

func tinyTPCCScale() tpcc.Scale {
	return tpcc.Scale{Warehouses: 2, Districts: 2, Customers: 10, Items: 50}
}

func tpccEngineConfig(threads int) EngineConfig {
	return EngineConfig{
		Threads: threads, Duration: 150 * time.Millisecond,
		KeyRange: 1 << 10, Preload: 1 << 6, Seed: 7,
	}
}

// TestTPCCFullScenario drives the complete five-transaction TPC-C mix
// through the engine and checks the whole reporting surface: every kind
// ran and is attributed, the consistency verifier passes after the
// measured phases and after the crash phase, and the telemetry block
// carries the engine counters.
func TestTPCCFullScenario(t *testing.T) {
	sc, err := LookupScenario("tpcc-full")
	if err != nil {
		t.Fatal(err)
	}
	if sc.TPCC != tpcc.FullMix() || !sc.HasCrash() {
		t.Fatalf("tpcc-full misdeclared: %+v", sc)
	}
	sys, err := NewScenarioSystem(sc, "medley-hash", tinyTPCCScale(), SystemOpts{})
	if err != nil {
		t.Fatal(err)
	}
	recs := RunScenario(sys, sc, tpccEngineConfig(2))
	res := measuredOf(recs)
	if res.Txns == 0 {
		t.Fatal("no transactions")
	}

	kinds := map[string]KindResult{}
	var kindTxns uint64
	for _, k := range res.Kinds {
		kinds[k.Kind] = k
		kindTxns += k.Txns
	}
	for _, name := range []string{"newOrder", "payment", "delivery", "orderStatus", "stockLevel"} {
		k, ok := kinds[name]
		if !ok || k.Txns == 0 {
			t.Errorf("kind %s not attributed: %+v", name, res.Kinds)
			continue
		}
		if k.AvgNs <= 0 {
			t.Errorf("kind %s has no latency", name)
		}
	}
	// Every committed step is attributed to exactly one kind.
	if kindTxns != res.Txns {
		t.Errorf("kinds sum to %d txns, measured %d", kindTxns, res.Txns)
	}

	if c := res.Consistency; c == nil || !c.Checked {
		t.Fatal("no consistency check on the measured aggregate")
	} else if c.Violations != 0 {
		t.Fatalf("consistency violations: %+v", c.Classes)
	}
	crashChecked := false
	for _, ph := range recs {
		if ph.Recovery == nil {
			continue
		}
		crashChecked = true
		if c := ph.Consistency; c == nil || !c.Checked {
			t.Fatal("no consistency check after the crash phase")
		} else if c.Violations != 0 {
			t.Fatalf("post-crash consistency violations: %+v", c.Classes)
		}
	}
	if !crashChecked {
		t.Fatal("tpcc-full ran no crash phase")
	}

	tel := res.Telemetry
	if tel == nil {
		t.Fatal("no telemetry block")
	}
	counters := map[string]uint64{}
	for _, c := range tel.Counters {
		counters[c.Name] = c.Value
	}
	if counters["tx_commits"] == 0 {
		t.Fatalf("telemetry reports no commits: %+v", tel.Counters)
	}
	// The read-only TPC-C transactions must be visible as fast-path gauges.
	gauges := map[string]float64{}
	for _, g := range tel.Gauges {
		gauges[g.Name] = g.Value
	}
	if gauges["readonly_share"] <= 0 {
		t.Errorf("readonly_share gauge missing with orderStatus/stockLevel in the mix: %+v", tel.Gauges)
	}
}

// TestTPCCSystemSpecs pins the TPC-C spec grammar: shard suffixes resolve
// on the Medley backends, and names outside the supported set, ablation
// suffixes and sharded competitors fail validation before construction.
func TestTPCCSystemSpecs(t *testing.T) {
	sys, err := NewTPCCSystem("medley-hash@4", tinyTPCCScale(), tpcc.FullMix(), SystemOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Name() != "Medley-hash-4shard" {
		t.Fatalf("sharded name = %q", sys.Name())
	}
	if sc, ok := sys.(ShardCounter); !ok || sc.ShardCount() != 4 {
		t.Fatalf("shard count not 4")
	}
	tsc := Scenario{TPCC: tpcc.PaperMix()}
	for _, bad := range []string{"medley-rotating", "medley-hash@0", "medley-hash@x", "onefile-hash", "lftt", "",
		"tdsl@2", "txmontage-skip@2", "txmontage-skip-persistoff", "medley-hash-nopool"} {
		if _, err := NewTPCCSystem(bad, tinyTPCCScale(), tsc.TPCC, SystemOpts{}); err == nil {
			t.Errorf("spec %q did not error", bad)
		}
		if err := ValidateScenarioSystemSpec(tsc, bad); err == nil {
			t.Errorf("ValidateScenarioSystemSpec(tpcc, %q) did not error", bad)
		}
	}
	// Non-TPC-C scenarios keep routing through the ordinary registry.
	if err := ValidateScenarioSystemSpec(Scenario{}, "onefile-hash"); err != nil {
		t.Fatalf("registry delegation broken: %v", err)
	}
}

// TestEveryScenarioDefaultSystemsSmoke is the table-driven smoke: every
// scenario the engine can run — hand-written row or paper-family member —
// runs briefly on each of its own Systems (resolved the same way
// cmd/medley-bench does) and must make progress.
func TestEveryScenarioDefaultSystemsSmoke(t *testing.T) {
	opts := SystemOpts{Buckets: 1 << 10, KeyRange: 1 << 10}
	for _, scName := range ScenarioNames() {
		sc, err := LookupScenario(scName)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range sc.Systems {
			if err := ValidateScenarioSystemSpec(sc, spec); err != nil {
				t.Fatalf("%s: default system %q invalid: %v", scName, spec, err)
			}
			sys, err := NewScenarioSystem(sc, spec, tinyTPCCScale(), opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", scName, spec, err)
			}
			res := measuredOf(RunScenario(sys, sc, EngineConfig{
				Threads: 2, Duration: 30 * time.Millisecond,
				KeyRange: 1 << 10, Preload: 1 << 7, Seed: 5,
			}))
			if res.Txns == 0 {
				t.Errorf("%s/%s: no progress", scName, sys.Name())
			}
			if sc.VerifyFinal {
				fc := res.FinalCheck
				if fc == nil {
					t.Errorf("%s/%s: no final check", scName, sys.Name())
				} else if fc.Checked && fc.Violations != 0 {
					t.Errorf("%s/%s: %d final-state violations (missing=%d mismatched=%d leaked=%d)",
						scName, sys.Name(), fc.Violations, fc.Missing, fc.Mismatched, fc.Leaked)
				}
			}
			if sc.IsTPCC() {
				if c := res.Consistency; c == nil || !c.Checked || c.Violations != 0 {
					t.Errorf("%s/%s: consistency check missing or failed: %+v", scName, sys.Name(), c)
				}
			}
			if strings.Contains(spec, "@") && res.Shards < 2 {
				t.Errorf("%s/%s: sharded spec reports %d shards", scName, spec, res.Shards)
			}
		}
	}
}
