package harness

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"medley/internal/store"
)

func TestNewSystemShardSuffix(t *testing.T) {
	sys, err := NewSystem("medley-hash@8", SystemOpts{Buckets: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Name() != "Medley-hash-8shard" {
		t.Fatalf("name = %q", sys.Name())
	}
	if sc, ok := sys.(ShardCounter); !ok || sc.ShardCount() != 8 {
		t.Fatalf("shard count not 8: %v", sys)
	}
	// Without a suffix the name and shard count are the historical ones.
	sys, err = NewSystem("medley-hash", SystemOpts{Buckets: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Name() != "Medley-hash" || sys.(ShardCounter).ShardCount() != 1 {
		t.Fatalf("single instance changed: %q/%d", sys.Name(), sys.(ShardCounter).ShardCount())
	}
	for _, bad := range []string{"medley-hash@", "medley-hash@0", "medley-hash@x", "nope", "nope@4"} {
		if _, err := NewSystem(bad, SystemOpts{}); err == nil {
			t.Fatalf("spec %q did not error", bad)
		}
	}
	// Competitors cannot shard; an explicit @N is refused instead of lied
	// about — and cheaply, before construction.
	for _, spec := range []string{"onefile-hash@8", "tdsl@2", "lftt@2", "plain-skip@2"} {
		if _, err := NewSystem(spec, SystemOpts{}); err == nil ||
			!strings.Contains(err.Error(), "cannot shard") {
			t.Fatalf("spec %q: want cannot-shard error, got %v", spec, err)
		}
		if err := ValidateSystemSpec(spec); err == nil {
			t.Fatalf("ValidateSystemSpec(%q) did not error", spec)
		}
	}
	// Non-power-of-two counts round up everywhere, including txMontage
	// (whose recovery routing assumes power-of-two).
	for _, spec := range []string{"medley-hash@3", "txmontage-hash@3"} {
		sys, err := NewSystem(spec, SystemOpts{Buckets: 1 << 8, KeyRange: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(sys.Name(), "-4shard") || sys.(ShardCounter).ShardCount() != 4 {
			t.Fatalf("%s: got %q with %d shards, want rounding to 4",
				spec, sys.Name(), sys.(ShardCounter).ShardCount())
		}
		// The rounded system must actually work (workers route 0..3).
		sys.Preload([]uint64{1, 2, 3, 4, 5})
		if err := sys.NewExecutor().ExecBatch([]Op{{Kind: OpInsert, Key: 9, Val: 9}, {Kind: OpGet, Key: 1}}, nil); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
	}
}

// TestSpecGrammar is the table test of the one spec parser: every suffix
// with and without @N yields the reported name (suffixes in canonical
// order however the spec wrote them), and everything the grammar refuses
// is an error from NewSystem and ValidateSystemSpec alike.
func TestSpecGrammar(t *testing.T) {
	good := map[string]string{
		"medley-hash-nopool":          "Medley-hash-nopool",
		"medley-hash-nofast":          "Medley-hash-nofast",
		"medley-hash-nopool@8":        "Medley-hash-nopool-8shard",
		"medley-hash-nofast@8":        "Medley-hash-nofast-8shard",
		"medley-skip-nofast-nopool@2": "Medley-skip-nopool-nofast-2shard",
		"medley-bst-nopool-nofast":    "Medley-bst-nopool-nofast",
		"txmontage-skip-persistoff":   "txMontage-skip-persistOff",
		"txmontage-hash-persistoff@2": "txMontage-hash-persistOff-2shard",
		"tdsl@1":                      "TDSL-skip",
	}
	for spec, reported := range good {
		if err := ValidateSystemSpec(spec); err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		if sys := testSystem(spec); sys.Name() != reported {
			t.Errorf("%s reports %q, want %q", spec, sys.Name(), reported)
		}
	}
	for spec, want := range map[string]string{
		"medley-hash-nopool-nopool":  "repeats -nopool",
		"medley-hash-nofoo":          "unknown system",
		"medley-hash-":               "unknown system",
		"nopool":                     "unknown system",
		"onefile-hash-nopool":        "no -nopool variant",
		"medley-hash-persistoff":     "no -persistoff variant",
		"txmontage-hash-nofast":      "no -nofast variant",
		"tdsl@8":                     "cannot shard",
		"medley-hash@0":              "bad shard suffix",
		"medley-hash@8-nopool":       "bad shard suffix",
		"medley-hash-nopool@":        "bad shard suffix",
		"medley-hash-nopool@8@8":     "unknown system",
		"Medley-hash":                "unknown system",
		"medley-hash-nopool-8shard":  "unknown system",
		"plain-skip-nofast":          "no -nofast variant",
		"txmontage-skip-persistoff-": "unknown system",
	} {
		err := ValidateSystemSpec(spec)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ValidateSystemSpec(%q) = %v, want an error containing %q", spec, err, want)
		}
		if _, nerr := NewSystem(spec, SystemOpts{}); nerr == nil {
			t.Errorf("NewSystem(%q) did not error", spec)
		}
	}
	// The ablations take effect, not just the name.
	mgr := testSystem("medley-hash-nopool-nofast").(*KVSystem).Manager()
	if mgr.PoolingEnabled() || mgr.FastPathsEnabled() {
		t.Error("suffixes parsed but an axis is still on")
	}
	mgr = testSystem("medley-hash").(*KVSystem).Manager()
	if !mgr.PoolingEnabled() || !mgr.FastPathsEnabled() {
		t.Error("plain spec has an axis off")
	}
}

// TestRegistryNamesUnchanged pins the reported system names: benchmark
// history across PRs depends on them. The two ablation names were
// registered pseudo-systems once; they resolve through the parser now.
func TestRegistryNamesUnchanged(t *testing.T) {
	want := map[string]string{
		"medley-hash":        "Medley-hash",
		"medley-hash-nopool": "Medley-hash-nopool",
		"medley-hash-nofast": "Medley-hash-nofast",
		"medley-skip":        "Medley-skip",
		"medley-bst":         "Medley-bst",
		"medley-rotating":    "Medley-rotating",
		"txmontage-hash":     "txMontage-hash",
		"txmontage-skip":     "txMontage-skip",
		"onefile-hash":       "OneFile-hash",
		"onefile-skip":       "OneFile-skip",
		"ponefile-hash":      "POneFile-hash",
		"ponefile-skip":      "POneFile-skip",
		"tdsl":               "TDSL-skip",
		"lftt":               "LFTT-skip",
		"plain-skip":         "Original-skip",
		"txoff-skip":         "TxOff-skip",
	}
	if names := SystemNames(); len(names) != len(want)-2 {
		t.Fatalf("registry has %d bases, want %d: %v", len(names), len(want)-2, names)
	}
	for cli, reported := range want {
		sys, err := NewSystem(cli, SystemOpts{Buckets: 1 << 8, KeyRange: 1 << 10})
		if err != nil {
			t.Fatalf("%s: %v", cli, err)
		}
		if sys.Name() != reported {
			t.Fatalf("%s reports %q, want %q", cli, sys.Name(), reported)
		}
	}
}

// TestNewSystemIsStoreNew pins the move of the store out of this package:
// for every spec the stack itself builds, NewSystem and store.New resolve
// the same concrete type under the same reported name, exporting the same
// counters in the same order — medleyd serves what the harness measures.
// A competitor is this package's alone.
func TestNewSystemIsStoreNew(t *testing.T) {
	specs := []string{"medley-hash@8", "medley-hash-nopool-nofast", "txmontage-skip-persistoff@2"}
	for base := range store.Systems {
		specs = append(specs, base)
	}
	o := SystemOpts{Buckets: 1 << 8, KeyRange: 1 << 10}
	names := func(ms MetricsSnapshotter) (out []string) {
		for _, m := range ms.MetricsSnapshot() {
			out = append(out, m.Name)
		}
		return out
	}
	for _, spec := range specs {
		sys, err := NewSystem(spec, o)
		if err != nil {
			t.Fatalf("NewSystem(%s): %v", spec, err)
		}
		st, err := store.New(spec, o)
		if err != nil {
			t.Fatalf("store.New(%s): %v", spec, err)
		}
		if reflect.TypeOf(sys) != reflect.TypeOf(st) || sys.Name() != st.Name() {
			t.Errorf("%s: harness builds %T %q, store %T %q", spec, sys, sys.Name(), st, st.Name())
		}
		if got, want := names(sys.(MetricsSnapshotter)), names(st.(MetricsSnapshotter)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: harness exports %v, store %v", spec, got, want)
		}
	}
	if _, ok := testSystem("medley-hash@8").(*KVSystem); !ok {
		t.Error("medley-hash@8 is no longer a *KVSystem")
	}
	for _, spec := range []string{"lftt", "tdsl", "onefile-hash", "ponefile-skip"} {
		if _, err := store.New(spec, o); err == nil || !strings.Contains(err.Error(), "known: medley-bst") {
			t.Errorf("store.New(%s) = %v, want a refusal listing what the store builds", spec, err)
		}
	}
}

// TestRangeScanEverySystem proves every registered system executes the
// range-scan mix (OpRange) and makes progress.
func TestRangeScanEverySystem(t *testing.T) {
	sc, err := LookupScenario("range-scan")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range SystemNames() {
		sys, err := NewSystem(name, SystemOpts{Buckets: 1 << 10, KeyRange: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		res := measuredOf(RunScenario(sys, sc, EngineConfig{
			Threads: 2, Duration: 40 * time.Millisecond,
			KeyRange: 1 << 10, Preload: 1 << 8, Seed: 3,
		}))
		if res.Txns == 0 {
			t.Errorf("%s: no progress under range-scan", sys.Name())
		}
	}
}

// TestShardedSystemsRunShardedScenarios drives the single-vs-sharded
// comparison set — sharded-zipfian's own, including the 8-shard stores —
// through the paper mix, the skewed write-heavy mix and cross-shard
// transfers.
func TestShardedSystemsRunShardedScenarios(t *testing.T) {
	set := mustScenario(t, "sharded-zipfian").Systems
	for _, scName := range []string{"uniform-mixed", "sharded-zipfian", "transfer"} {
		sc := mustScenario(t, scName)
		for _, name := range set {
			sys, err := NewSystem(name, SystemOpts{Buckets: 1 << 10, KeyRange: 1 << 10})
			if err != nil {
				t.Fatal(err)
			}
			res := measuredOf(RunScenario(sys, sc, EngineConfig{
				Threads: 2, Duration: 30 * time.Millisecond,
				KeyRange: 1 << 10, Preload: 1 << 8, Seed: 3,
			}))
			if res.Txns == 0 {
				t.Errorf("%s/%s: no progress", scName, sys.Name())
			}
			wantShards := 1
			if strings.Contains(name, "@8") {
				wantShards = 8
			}
			if res.Shards != wantShards {
				t.Errorf("%s/%s: result reports %d shards, want %d", scName, name, res.Shards, wantShards)
			}
		}
	}
}

// TestShardedMontageCrashRecovery extends the durability verification to
// the partitioned txMontage configuration: payloads recovered after a
// crash must be routed back to the right shards with zero violations.
func TestShardedMontageCrashRecovery(t *testing.T) {
	requireCleanRecovery(t, NewMontage(MontageOpts{
		Buckets: 1 << 10, Shards: 4, RegionWords: 1 << 22,
		AdvanceEvery: 5 * time.Millisecond,
	}), "crash-recover-uniform")
}

// TestMedleyShardedMatchesSingleSemantics runs the same deterministic
// workload against 1-shard and 8-shard Medley systems and compares the
// surviving key sets: partitioning must not change what a workload does.
func TestMedleyShardedMatchesSingleSemantics(t *testing.T) {
	snapshot := func(sys *KVSystem) map[uint64]uint64 {
		got := map[uint64]uint64{}
		sys.Map().Range(func(k, v uint64) bool {
			got[k] = v
			return true
		})
		return got
	}
	run := func(shards int) map[uint64]uint64 {
		sys := testSystem("medley-hash@" + strconv.Itoa(shards)).(*KVSystem)
		ex := sys.NewExecutor()
		gen := NewTxGen(Dist{Kind: DistUniform}, 1<<10, Mix{
			Ratio: Ratio{Get: 1, Insert: 2, Remove: 1}, TxMin: 1, TxMax: 8, Mixed: 1,
		}, 99)
		for i := 0; i < 5000; i++ {
			_ = ex.ExecBatch(gen.Next(), nil)
		}
		return snapshot(sys)
	}
	single, sharded := run(1), run(8)
	if len(single) == 0 {
		t.Fatal("workload left no keys")
	}
	if len(single) != len(sharded) {
		t.Fatalf("single leaves %d keys, sharded %d", len(single), len(sharded))
	}
	for k, v := range single {
		if sv, ok := sharded[k]; !ok || sv != v {
			t.Fatalf("key %d: single (%d), sharded (%d,%v)", k, v, sv, ok)
		}
	}
}
