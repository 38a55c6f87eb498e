package main

import (
	"fmt"
	"slices"
	"time"

	"medley/internal/chaos"
	"medley/internal/faultnet"
	"medley/internal/harness"
	"medley/internal/service"
)

// Chaos mode: the rows of chaosRows run through the fault-verification
// runner (internal/chaos) instead of the closed-loop engine — medleyd
// hosted in-process behind real listeners, fault events landing
// mid-traffic, and a wire-level journal diff against the state that
// survives. A row is written once, here: its workload (distribution and
// mix, like open-loop mode), its default system, and its fault plan. The
// positive event count picks the topology: restarts run one durable daemon
// behind a client-path fault proxy, killed and restarted mid-run, and
// verify the recovered state; failovers and partitions run a leader and a
// follower replaying its commit-ordered feed, and classify every
// replica/model difference.

// chaosRow is one service or replica chaos scenario. Config holds the
// row's part of the runner's config — workload, fault schedule, fault
// proxy settings, replication knobs, offered rate, client policy — which
// the run loop completes from the flags.
type chaosRow struct {
	description string
	system      string // -systems auto
	chaos.Config
	// maxPreload caps the wire preload (0 = uncapped). The replica plans
	// measure failover availability and divergence, not load scale, and
	// the preload must fit the feed rings with room for the run's writes:
	// the dead leader's feed is read back for the lost-suffix accounting.
	maxPreload int
}

var (
	restartClient = service.HTTPDriverConfig{Deadline: 250 * time.Millisecond}
	replicaClient = service.HTTPDriverConfig{Deadline: 2 * time.Second, RetryBudget: -1}
)

// pointMix is a chaos row's workload: short transactions of single-key
// operations at the given get:insert:remove ratio.
func pointMix(get, insert, remove, txMax int) harness.Mix {
	return harness.Mix{Ratio: harness.Ratio{Get: get, Insert: insert, Remove: remove}, TxMin: 1, TxMax: txMax, Mixed: 1}
}

// Crash-restart over the wire needs a durable, snapshot-capable backend;
// POneFile persists eagerly at every commit, so an acked batch is durable
// by construction — the strongest gate. Replication chaos needs only a
// snapshot-capable one (follower bootstrap and the divergence diff):
// durability is the replica's job there, not the store's, so the
// transient flagship serves.
const (
	restartSystem = "ponefile-hash"
	replicaSystem = "medley-hash@2"
)

var chaosRows = map[string]chaosRow{
	"chaos-service-restart": {
		description: "service chaos: medleyd over a durable backend is killed and restarted 3 times mid-traffic on a clean network; client journals of definitively acked put/delete batches must match the recovered state exactly (zero wire-level durability violations)",
		system:      restartSystem,
		Config:      chaos.Config{Mix: pointMix(2, 1, 1, 8), Restarts: 3, Rate: 4000, Client: restartClient},
	},
	// Flaky network on top of the restarts: small base latency, heavy
	// jitter, and every 7th connection reset mid-request — the retry,
	// dedup and in-doubt machinery all stay hot.
	"chaos-net-flaky": {
		description: "service chaos: 3 restarts under a flaky network — per-chunk latency and jitter, every 7th connection reset after its request is delivered — exercising retry backoff, the circuit breaker and the dedup window together; wire-level verification on the recovered state",
		system:      restartSystem,
		Config: chaos.Config{
			Mix: pointMix(2, 1, 1, 8), Restarts: 3, Rate: 4000, Client: restartClient,
			Faults: faultnet.Faults{Latency: 200 * time.Microsecond, Jitter: 2 * time.Millisecond, ResetEveryN: 7},
		},
	},
	// Slow links against tight deadlines: most of the deadline is eaten
	// on the wire, so admission-time and pre-commit expiry both fire;
	// slow-close keeps resets from looking instantaneous.
	"chaos-slow-client": {
		description: "service chaos: a slow, lossy edge — heavy per-chunk latency and slow half-open closes — with tight request deadlines, so expired dispositions and deadline culls dominate; one restart, wire-level verification on the recovered state",
		system:      restartSystem,
		Config: chaos.Config{
			Mix: pointMix(4, 1, 1, 6), Restarts: 1, Rate: 2000,
			Client: service.HTTPDriverConfig{Deadline: 50 * time.Millisecond},
			Faults: faultnet.Faults{Latency: 2 * time.Millisecond, Jitter: 5 * time.Millisecond, SlowClose: 10 * time.Millisecond},
		},
	},
	"chaos-replica-failover": {
		description: "replica chaos: 3 leader kill + follower promotion cycles mid-traffic, each dead address rebound by a fresh snapshot-bootstrapped follower; acked writes lost at promotion are enumerated from the dead feed and tainted, everything else must match the final replica exactly (zero divergence), availability budgeted at 0.99",
		system:      replicaSystem,
		maxPreload:  1 << 14,
		Config: chaos.Config{
			Mix: pointMix(8, 2, 1, 4), Failovers: 3, FeedShards: 4, MaxLag: 4096,
			Rate: 2000, Client: replicaClient,
		},
	},
	// Two partition episodes long enough to push replay lag past the
	// bound; MaxSilence below the episode length so a cut feed (which
	// freezes the follower's own lag estimate at zero) still trips the
	// staleness gate.
	"chaos-replica-lag": {
		description: "replica chaos: the replication path is partitioned twice mid-run; replay lag must build past the staleness bound, lagging follower reads must be rejected (409, driver falls back to the leader), and post-heal catch-up must converge with zero lost writes and zero divergence",
		system:      replicaSystem,
		maxPreload:  1 << 14,
		Config: chaos.Config{
			Mix: pointMix(12, 2, 1, 4), Partitions: 2, PartitionDur: 500 * time.Millisecond,
			FeedShards: 4, MaxLag: 16, MaxSilence: 150 * time.Millisecond,
			Rate: 2000, Client: replicaClient,
		},
	},
}

// runChaosScenario is the chaos entry point: one run per selected system
// (auto → the row's own), senders = the largest -threads count, one
// Report. Every incarnation serves the default pipeline, dedup window
// included, so retries under connection resets stay exactly-once.
func runChaosScenario(name string, row chaosRow, threads []int) error {
	cfg := row.Config
	cfg.SystemOpts = systemOpts()
	cfg.Senders = slices.Max(threads)
	cfg.Duration = *durationFlag
	cfg.KeyRange = uint64(*keyRange)
	cfg.Preload = *preload
	if row.maxPreload > 0 && cfg.Preload > row.maxPreload {
		cfg.Preload = row.maxPreload
	}
	cfg.Seed = *seedFlag
	systems, err := selectSystems(harness.Scenario{}, []string{row.system})
	if err != nil {
		return err
	}

	rep := harness.NewReport(name, []int{cfg.Senders}, cfg.Duration, cfg.KeyRange, cfg.Preload, cfg.Seed)
	for _, cfg.System = range systems {
		rec, err := chaos.Run(cfg)
		if err != nil {
			return err
		}
		rec.Scenario = name
		rep.Results = append(rep.Results, rec)
		if !*jsonFlag {
			printChaosRecord(rec)
		}
	}
	return emitReport(rep)
}

// printChaosRecord prints a chaos run's record as text: the headline, the
// dispositions, the fault schedule performed and the verification verdict.
// Only a restart record carries breaker opens (a leader kill trips the
// breaker by design), and only a replica record tells stale keys apart.
func printChaosRecord(rec harness.Record) {
	svc := rec.Service
	fmt.Printf("%-24s %-24s senders=%-3d goodput=%8.0f txn/s  avail=%6.4f  p50=%8.0fns  p99=%8.0fns  p99.9=%8.0fns\n",
		rec.Scenario, rec.System, rec.Threads, svc.Goodput, svc.Availability,
		rec.Latency.P50Ns, rec.Latency.P99Ns, svc.P999Ns)
	breaker := ""
	if rec.Recovery != nil {
		breaker = fmt.Sprintf(" breaker-opens=%d", svc.BreakerOpens)
	}
	fmt.Printf("  disposition           completed=%d shed=%d errors=%d expired=%d in-doubt=%d retries=%d%s\n",
		svc.CompletedTxns, svc.ShedTxns, svc.ErrorTxns, svc.ExpiredTxns, svc.InDoubtTxns, svc.RetriedTxns, breaker)
	var entries int
	var violations uint64
	var diff string
	if r := rec.Recovery; r != nil {
		fmt.Printf("  restarts              n=%d downtime=%v recovery=%v\n",
			svc.Restarts, time.Duration(svc.DowntimeNs), time.Duration(r.RecoveryNs))
		entries, violations = r.ModelEntries, r.Violations
		diff = fmt.Sprintf("missing=%d mismatched=%d leaked=%d", r.Missing, r.Mismatched, r.Leaked)
	} else {
		rp := rec.Replica
		if rp.Failovers > 0 {
			fmt.Printf("  failovers             cycles=%d driver-swaps=%d driver-recoveries=%d lost-at-promotion=%d downtime=%v\n",
				rp.Failovers, rp.DriverFailovers, rp.DriverRecoveries, rp.LostWrites, time.Duration(svc.DowntimeNs))
		} else {
			fmt.Printf("  partitions            episodes=%d max-replay-lag=%d stale-rejections=%d lost=%d\n",
				rp.Partitions, rp.MaxReplayLag, rp.StaleRejections, rp.LostWrites)
		}
		entries, violations = rp.ModelEntries, rp.Violations
		diff = fmt.Sprintf("missing=%d stale=%d mismatched=%d leaked=%d", rp.MissingKeys, rp.StaleKeys, rp.MismatchedKeys, rp.LeakedKeys)
	}
	if violations == 0 {
		fmt.Printf("  wire-verify           OK (%d entries, %d tainted keys excluded)\n", entries, svc.TaintedKeys)
	} else {
		fmt.Printf("  wire-verify           FAILED: %d violations (%s; %d tainted)\n", violations, diff, svc.TaintedKeys)
	}
}
