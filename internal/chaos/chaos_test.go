package chaos

import (
	"testing"
	"time"

	"medley/internal/harness"
	"medley/internal/service"
)

// Scaled-down runs of each topology and fault kind: CI runs the full
// chaos-net-flaky and chaos-replica-failover scenarios through medley-bench
// and gates them with testdata/faults_budget.json and replica_budget.json;
// these pin that the runner's machinery works at test scale (one event and
// a shorter run under -short).

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

// checkRun asserts what every topology owes, on the record the report
// carries: one record of the topology's phase with its own block and not
// the other's, traffic completed, its latency measured, the dispositions
// adding up, and the surviving state matching the journals.
func checkRun(t *testing.T, rec harness.Record, cfg Config) {
	t.Helper()
	svc := rec.Service
	if svc == nil || svc.Driver != "http" {
		t.Fatalf("service block = %+v, want an http one", svc)
	}
	if rec.Threads != cfg.Senders || rec.Shards != 1 || rec.Scenario != "" {
		t.Errorf("threads=%d shards=%d scenario=%q, want %d/1/unset", rec.Threads, rec.Shards, rec.Scenario, cfg.Senders)
	}
	if rec.Txns == 0 || rec.Txns != svc.CompletedTxns {
		t.Fatalf("txns = %d, completed = %d: want equal and non-zero", rec.Txns, svc.CompletedTxns)
	}
	if rec.Throughput != svc.Goodput || rec.Elapsed <= 0 {
		t.Errorf("throughput = %.0f, goodput = %.0f, elapsed = %v", rec.Throughput, svc.Goodput, rec.Elapsed)
	}
	if sum := svc.CompletedTxns + svc.ShedTxns + svc.ErrorTxns + svc.ExpiredTxns + svc.InDoubtTxns; svc.OfferedTxns != sum {
		t.Errorf("offered = %d, dispositions sum to %d", svc.OfferedTxns, sum)
	}
	if svc.Availability <= 0 || svc.Availability > 1 {
		t.Errorf("availability = %v, want in (0, 1]", svc.Availability)
	}
	lat := rec.Latency
	if lat.AvgNs <= 0 || lat.P50Ns <= 0 || lat.P99Ns < lat.P50Ns || svc.P999Ns < lat.P99Ns {
		t.Errorf("latency not measured: avg=%.0f p50=%.0f p99=%.0f p99.9=%.0f", lat.AvgNs, lat.P50Ns, lat.P99Ns, svc.P999Ns)
	}
	var entries int
	var violations uint64
	if cfg.Restarts > 0 {
		if rec.Phase != "chaos" || rec.Recovery == nil || rec.Replica != nil {
			t.Fatalf("restart record: phase %q, recovery %v, replica %v", rec.Phase, rec.Recovery, rec.Replica)
		}
		entries, violations = rec.Recovery.ModelEntries, rec.Recovery.Violations
	} else {
		if rec.Phase != "replica-chaos" || rec.Replica == nil || rec.Recovery != nil || svc.BreakerOpens != 0 {
			t.Fatalf("replica record: phase %q, replica %v, recovery %v, breaker opens %d",
				rec.Phase, rec.Replica, rec.Recovery, svc.BreakerOpens)
		}
		entries, violations = rec.Replica.ModelEntries, rec.Replica.Violations
	}
	if entries == 0 {
		t.Error("verification did not run: no model entries")
	}
	if violations != 0 {
		t.Errorf("violations = %d (recovery %+v, replica %+v), want 0", violations, rec.Recovery, rec.Replica)
	}
}

func TestRunRestart(t *testing.T) {
	cfg := testConfig("ponefile-hash", 3)
	cfg.Restarts = scaled(2, 1)
	cfg.Rate = 600
	cfg.Duration = scaled(1500*time.Millisecond, 600*time.Millisecond)
	rec, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkRun(t, rec, cfg)
	svc, r := rec.Service, rec.Recovery
	if svc.Restarts != cfg.Restarts {
		t.Errorf("restarts = %d, want %d", svc.Restarts, cfg.Restarts)
	}
	if rec.System != "POneFile-hash" {
		t.Errorf("label = %q, want the backend's name", rec.System)
	}
	if svc.DowntimeNs <= 0 || r.RecoveryNs <= 0 {
		t.Errorf("downtime=%v recovery=%v not accounted", time.Duration(svc.DowntimeNs), time.Duration(r.RecoveryNs))
	}
	if !r.Recoverable || r.Recovered != r.ModelEntries {
		t.Errorf("recovery block = %+v, want recoverable with recovered == model entries", *r)
	}
	t.Logf("restart: completed=%d avail=%.4f in-doubt=%d tainted=%d downtime=%v recovery=%v",
		svc.CompletedTxns, svc.Availability, svc.InDoubtTxns, svc.TaintedKeys,
		time.Duration(svc.DowntimeNs), time.Duration(r.RecoveryNs))
}

func TestRunFailover(t *testing.T) {
	cfg := testConfig("medley-hash@2", 1)
	cfg.Failovers = scaled(2, 1)
	cfg.Rate = 600
	cfg.Duration = scaled(1500*time.Millisecond, 700*time.Millisecond)
	rec, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkRun(t, rec, cfg)
	svc, rp := rec.Service, rec.Replica
	if rp.Failovers != cfg.Failovers || rp.Partitions != 0 {
		t.Errorf("failovers = %d, partitions = %d, want %d and 0", rp.Failovers, rp.Partitions, cfg.Failovers)
	}
	if rec.System != "medley-hash@2" {
		t.Errorf("label = %q, want the spec", rec.System)
	}
	// The driver must have followed the leadership: at least one failover
	// sweep per run confirmed a live leader — usually by swapping the
	// base to the promoted node, but a sweep that runs after the NEXT
	// promotion rebinds the dead address finds its existing base leading
	// again and rightly swaps nothing (a recovery, not a swap).
	if rp.DriverFailovers+rp.DriverRecoveries == 0 {
		t.Error("driver never re-confirmed leadership after a kill")
	}
	// Low bar at test scale; the committed scenario budgets 0.99. (No such
	// bar on the restart run: under the race detector recovery outlasts it.)
	if svc.Availability < 0.5 {
		t.Errorf("availability = %.3f, suspiciously low", svc.Availability)
	}
	t.Logf("failover: completed=%d avail=%.4f lost=%d tainted=%d driverFO=%d recov=%d downtime=%v",
		svc.CompletedTxns, svc.Availability, rp.LostWrites, svc.TaintedKeys,
		rp.DriverFailovers, rp.DriverRecoveries, time.Duration(svc.DowntimeNs))
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
	rec, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkRun(t, rec, cfg)
	svc, rp := rec.Service, rec.Replica
	if rp.Partitions != cfg.Partitions || rp.Failovers != 0 {
		t.Errorf("partitions = %d, failovers = %d, want %d and 0", rp.Partitions, rp.Failovers, cfg.Partitions)
	}
	// The partition must have built observable lag past the bound, and
	// lagging reads must have been refused and redirected.
	if rp.MaxReplayLag <= cfg.MaxLag {
		t.Errorf("max replay lag = %d, want > MaxLag (partition never bit)", rp.MaxReplayLag)
	}
	if rp.StaleRejections == 0 {
		t.Error("no stale read was rejected during the partition")
	}
	// A partition loses nothing: catch-up after heal must converge exactly.
	if rp.LostWrites != 0 {
		t.Errorf("lost writes = %d under partition, want 0", rp.LostWrites)
	}
	t.Logf("partition: completed=%d avail=%.4f maxLag=%d stale=%d tainted=%d",
		svc.CompletedTxns, svc.Availability, rp.MaxReplayLag, rp.StaleRejections, svc.TaintedKeys)
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
