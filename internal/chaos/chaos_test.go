package chaos

import (
	"testing"
	"time"

	"medley/internal/harness"
	"medley/internal/service"
)

// Scaled-down runs of each topology and fault kind: the committed
// BENCH_faults.json / BENCH_replica.json run the full scenarios; these pin
// that the runner's machinery works at test scale (one event and a shorter
// run under -short).

// scaled returns the full-size value, or the reduced one under -short.
func scaled[T any](full, short T) T {
	if testing.Short() {
		return short
	}
	return full
}

// testConfig is the part every test shares. The backend is sized to the
// test: the default 1<<20 buckets make snapshot scans (recovery, follower
// bootstrap) too slow for the race detector on small runners.
func testConfig(system string, seed int64) Config {
	return Config{
		System:     system,
		SystemOpts: harness.SystemOpts{Buckets: 1 << 12, KeyRange: 1 << 12},
		Service:    service.Config{Tick: 200 * time.Microsecond, Workers: 2, DedupWindow: 4096},
		Client:     service.HTTPDriverConfig{Deadline: 2 * time.Second, RetryBudget: -1},
		FeedShards: 2,
		Senders:    4,
		KeyRange:   1 << 12,
		Preload:    256,
		Seed:       seed,
		Mix:        harness.Mix{Ratio: harness.Ratio{Get: 8, Insert: 2, Remove: 1}, TxMin: 1, TxMax: 4, Mixed: 1},
	}
}

// checkRun asserts what every topology owes: traffic completed, its
// latency was measured, and the surviving state matches the journals.
func checkRun(t *testing.T, res Result) {
	t.Helper()
	if res.Completed == 0 {
		t.Fatal("no transactions completed")
	}
	if res.AvgNs <= 0 || res.P50Ns <= 0 || res.P99Ns < res.P50Ns {
		t.Errorf("latency not measured: avg=%.0f p50=%.0f p99=%.0f", res.AvgNs, res.P50Ns, res.P99Ns)
	}
	if !res.Verify.Checked || res.Verify.ModelEntries == 0 {
		t.Errorf("verification did not run: %+v", res.Verify)
	}
	if v := res.Violations(); v != 0 {
		t.Errorf("violations = %d (%+v), want 0", v, res.Verify)
	}
}

func TestRunRestart(t *testing.T) {
	cfg := testConfig("ponefile-hash", 3)
	cfg.Restarts = scaled(2, 1)
	cfg.Rate = 600
	cfg.Duration = scaled(1500*time.Millisecond, 600*time.Millisecond)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkRun(t, res)
	if res.Restarts != cfg.Restarts {
		t.Errorf("restarts = %d, want %d", res.Restarts, cfg.Restarts)
	}
	if res.System != "POneFile-hash" {
		t.Errorf("label = %q, want the backend's name", res.System)
	}
	if res.DowntimeNs <= 0 || res.RecoveryNs <= 0 {
		t.Errorf("downtime=%v recovery=%v not accounted", time.Duration(res.DowntimeNs), time.Duration(res.RecoveryNs))
	}
	t.Logf("restart: completed=%d avail=%.4f in-doubt=%d tainted=%d downtime=%v recovery=%v",
		res.Completed, res.Availability, res.InDoubt, res.Tainted,
		time.Duration(res.DowntimeNs), time.Duration(res.RecoveryNs))
}

func TestRunFailover(t *testing.T) {
	cfg := testConfig("medley-hash@2", 1)
	cfg.Failovers = scaled(2, 1)
	cfg.Rate = 600
	cfg.Duration = scaled(1500*time.Millisecond, 700*time.Millisecond)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkRun(t, res)
	if res.Failovers != cfg.Failovers {
		t.Errorf("failovers = %d, want %d", res.Failovers, cfg.Failovers)
	}
	if res.System != "medley-hash@2" {
		t.Errorf("label = %q, want the spec", res.System)
	}
	// The driver must have followed the leadership: at least one failover
	// sweep per run confirmed a live leader — usually by swapping the
	// base to the promoted node, but a sweep that runs after the NEXT
	// promotion rebinds the dead address finds its existing base leading
	// again and rightly swaps nothing (a recovery, not a swap).
	if res.DriverFailovers+res.DriverRecoveries == 0 {
		t.Error("driver never re-confirmed leadership after a kill")
	}
	// Low bar at test scale; the committed scenario budgets 0.99. (No such
	// bar on the restart run: under the race detector recovery outlasts it.)
	if res.Availability < 0.5 {
		t.Errorf("availability = %.3f, suspiciously low", res.Availability)
	}
	t.Logf("failover: completed=%d avail=%.4f lost=%d tainted=%d driverFO=%d recov=%d downtime=%v",
		res.Completed, res.Availability, res.LostWrites, res.Tainted,
		res.DriverFailovers, res.DriverRecoveries, time.Duration(res.DowntimeNs))
}

func TestRunPartition(t *testing.T) {
	cfg := testConfig("medley-hash@2", 2)
	cfg.Mix.Ratio.Get = 12
	cfg.MaxLag = 8
	cfg.MaxSilence = 120 * time.Millisecond
	cfg.Partitions = scaled(2, 1)
	cfg.PartitionDur = 400 * time.Millisecond
	cfg.Rate = 800
	cfg.Duration = scaled(1800*time.Millisecond, 1000*time.Millisecond)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkRun(t, res)
	if res.Partitions != cfg.Partitions {
		t.Errorf("partitions = %d, want %d", res.Partitions, cfg.Partitions)
	}
	// The partition must have built observable lag past the bound, and
	// lagging reads must have been refused and redirected.
	if res.MaxReplayLag <= cfg.MaxLag {
		t.Errorf("max replay lag = %d, want > MaxLag (partition never bit)", res.MaxReplayLag)
	}
	if res.StaleRejections == 0 {
		t.Error("no stale read was rejected during the partition")
	}
	// A partition loses nothing: catch-up after heal must converge exactly.
	if res.LostWrites != 0 {
		t.Errorf("lost writes = %d under partition, want 0", res.LostWrites)
	}
	t.Logf("partition: completed=%d avail=%.4f maxLag=%d stale=%d tainted=%d",
		res.Completed, res.Availability, res.MaxReplayLag, res.StaleRejections, res.Tainted)
}

// TestRunRejectsAmbiguousFaultKind pins that the topology is implied by
// exactly one positive event count.
func TestRunRejectsAmbiguousFaultKind(t *testing.T) {
	for _, cfg := range []Config{{}, {Restarts: 1, Failovers: 1}, {Failovers: 1, Partitions: 2}} {
		if _, err := Run(cfg); err == nil {
			t.Errorf("Run(restarts=%d failovers=%d partitions=%d) did not error",
				cfg.Restarts, cfg.Failovers, cfg.Partitions)
		}
	}
}
