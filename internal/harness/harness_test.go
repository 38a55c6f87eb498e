package harness

import (
	"testing"
	"time"
)

// tinyConfig keeps harness tests fast: small key space, short duration.
func tinyConfig(threads int, ratio Ratio) Config {
	return Config{
		Threads: threads, Duration: 50 * time.Millisecond,
		KeyRange: 1 << 10, Preload: 1 << 9,
		TxMin: 1, TxMax: 10, Ratio: ratio, Seed: 7,
	}
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

func allSystems() []System {
	return []System{
		testSystem("medley-hash"),
		testSystem("medley-skip"),
		NewMontage(MontageOpts{Skiplist: false, Buckets: 1 << 10, RegionWords: 1 << 20}),
		NewMontage(MontageOpts{Skiplist: true, RegionWords: 1 << 20}),
		NewMontage(MontageOpts{Skiplist: true, RegionWords: 1 << 20, PersistOff: true}),
		NewOneFile(OneFileOpts{Skiplist: false, Buckets: 1 << 10}),
		NewOneFile(OneFileOpts{Skiplist: true}),
		NewOneFile(OneFileOpts{Skiplist: true, Persistent: true, RegionWords: 1 << 20}),
		NewTDSL(),
		NewLFTT(),
		testSystem("plain-skip"),
		testSystem("txoff-skip"),
	}
}

func TestEverySystemRunsEveryRatio(t *testing.T) {
	for _, sys := range allSystems() {
		for _, ratio := range PaperRatios {
			res := Run(sys, tinyConfig(2, ratio))
			if res.Txns == 0 {
				t.Errorf("%s @ %s: zero transactions completed", sys.Name(), ratio)
			}
			if res.Throughput <= 0 || res.LatencyNs <= 0 {
				t.Errorf("%s @ %s: bad metrics %+v", sys.Name(), ratio, res)
			}
		}
	}
}

func TestThreadSweepMonotoneAccounting(t *testing.T) {
	sys := testSystem("medley-hash")
	for _, th := range []int{1, 2, 4} {
		res := Run(sys, tinyConfig(th, Ratio{2, 1, 1}))
		if res.Threads != th || res.Txns == 0 {
			t.Fatalf("bad result at %d threads: %+v", th, res)
		}
		if res.Ops < res.Txns {
			t.Fatalf("ops < txns: %+v", res)
		}
	}
}

func TestRatioStringsMatchPaper(t *testing.T) {
	want := []string{"0:1:1", "2:1:1", "18:1:1"}
	for i, r := range PaperRatios {
		if r.String() != want[i] {
			t.Fatalf("ratio %d = %s, want %s", i, r.String(), want[i])
		}
	}
}
