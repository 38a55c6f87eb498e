package harness

import (
	"testing"
	"time"
)

// tinyConfig keeps harness tests fast: small key space, short duration.
func tinyConfig(threads int) EngineConfig {
	return EngineConfig{
		Threads: threads, Duration: 50 * time.Millisecond,
		KeyRange: 1 << 10, Preload: 1 << 9, Seed: 7,
	}
}

// mustScenario resolves a scenario name that is a literal in the test.
func mustScenario(t *testing.T, name string) Scenario {
	t.Helper()
	sc, err := LookupScenario(name)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// testSystem resolves spec at test scale. Specs here are literals, so a
// parse failure is a bug in the test.
func testSystem(spec string) System {
	sys, err := NewSystem(spec, SystemOpts{Buckets: 1 << 10, KeyRange: 1 << 10})
	if err != nil {
		panic(err)
	}
	return sys
}

// TestEverySystemRunsEveryRatio runs one configuration of each system
// under test at each of the paper's ratios.
func TestEverySystemRunsEveryRatio(t *testing.T) {
	for _, spec := range []string{
		"medley-hash", "medley-skip",
		"txmontage-hash", "txmontage-skip", "txmontage-skip-persistoff",
		"onefile-hash", "onefile-skip", "ponefile-skip",
		"tdsl", "lftt", "plain-skip", "txoff-skip",
	} {
		sys := testSystem(spec)
		for _, name := range uniformRatios {
			m := measuredOf(RunScenario(sys, mustScenario(t, name), tinyConfig(2)))
			if m.Txns == 0 {
				t.Errorf("%s @ %s: zero transactions completed", sys.Name(), name)
			}
			if m.Throughput <= 0 || m.Latency.AvgNs <= 0 {
				t.Errorf("%s @ %s: bad metrics %+v", sys.Name(), name, m)
			}
		}
	}
}

func TestThreadSweepMonotoneAccounting(t *testing.T) {
	sys := testSystem("medley-hash")
	sc := mustScenario(t, "uniform-mixed")
	for _, th := range []int{1, 2, 4} {
		m := measuredOf(RunScenario(sys, sc, tinyConfig(th)))
		if m.Threads != th || m.Txns == 0 {
			t.Fatalf("bad result at %d threads: %+v", th, m)
		}
		if m.Ops < m.Txns {
			t.Fatalf("ops < txns: %+v", m)
		}
	}
}

func TestRatioStringsMatchPaper(t *testing.T) {
	want := []string{"0:1:1", "2:1:1", "18:1:1"}
	for i, r := range paperRatios {
		if r.ratio.String() != want[i] {
			t.Fatalf("ratio %d (%s) = %s, want %s", i, r.name, r.ratio, want[i])
		}
	}
}
