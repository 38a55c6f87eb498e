// Package chaos is the fault-verification runner behind medley-bench's
// chaos-service-* and chaos-replica-* scenarios: medleyd hosted in-process
// behind real TCP listeners, a fleet of paced, journaling HTTP senders, a
// schedule of fault events landing mid-traffic, and a final diff of the
// surviving state against what the senders were told had committed. It is
// harness-side code — it imports the service, never the reverse — so
// nothing here (nor internal/faultnet) is linked into medleyd.
//
// One Run serves two deployments (topology.go):
//
//   - Restarts > 0: one daemon over a durable registry backend, a faultnet
//     proxy carrying Config.Faults on the client path, and kill → Persist →
//     CrashAndRecover → rebind cycles. The verification target is the
//     RECOVERED state.
//   - Failovers > 0 or Partitions > 0: a leader and a follower replaying
//     its feed, with leader kill + promote + fresh-follower cycles, or
//     partitions of only the replication path. The verification target is
//     the caught-up FOLLOWER.
//
// Verification is the wire extension of the crash-phase journal verifier
// (harness.VerifyReplicaWire, the same classifier): senders write only
// put/delete on partitioned keys (one sender per residue class, sole
// writer of its keys), journal definitive acks, taint in-doubt outcomes,
// and every untainted key of the surviving state must match the merged
// journals exactly. The preload is setup, not traffic: it goes through
// HTTPDriver.Preload straight to the writable node, its puts are
// journaled once it lands, and a preload that fails — in doubt included —
// fails the run.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"medley/internal/faultnet"
	"medley/internal/harness"
	"medley/internal/kv"
	"medley/internal/service"
)

// Config parameterizes one run. Exactly one of Restarts, Failovers and
// Partitions must be positive: it selects the topology and the fault event.
type Config struct {
	// System is a benchmark-registry spec. It must resolve to a
	// snapshot-capable backend (verification, follower bootstrap), and to
	// a durable one (e.g. "ponefile-hash") when Restarts > 0.
	System     string
	SystemOpts harness.SystemOpts

	// Service is every server incarnation's pipeline config; the dedup
	// window dies with an incarnation, as it would with a process.
	Service service.Config

	// Client is the senders' HTTPDriver config: a row chooses Deadline and
	// RetryBudget; Replicas is filled in by the runner in the replicated
	// topology. The retry, backoff and breaker policy is the driver's own.
	Client service.HTTPDriverConfig

	// Restarts is how many daemon kill / crash-recover / rebind cycles
	// land mid-run. Faults is the standing plan on the client-path proxy,
	// which exists only in this topology; it is installed after preload.
	Restarts int
	Faults   faultnet.Faults

	// Failovers is how many leader kill + promote + fresh-follower cycles
	// land mid-run. Partitions is how many replication-path partition
	// episodes do, each holding PartitionDur (default 300ms) before healing.
	Failovers    int
	Partitions   int
	PartitionDur time.Duration

	// FeedShards/MaxLag/MaxSilence are the replicated nodes' knobs (see
	// service.NodeConfig). Partition runs need MaxSilence below
	// PartitionDur or the partition is invisible to the read gate (a cut
	// feed freezes the follower's lag).
	FeedShards int
	MaxLag     uint64
	MaxSilence time.Duration

	// Senders goroutines offer Rate transactions/second in total for
	// Duration; the fault events are spread evenly across it.
	Senders  int
	Rate     float64
	Duration time.Duration

	KeyRange uint64
	Preload  int
	Seed     int64
	Mix      harness.Mix
	Dist     harness.Dist
}

// Run executes one chaos run: deploy → preload (journaled) → senders
// offer load while the fault schedule runs → stop → settle the topology
// (final crash, or follower catch-up) → verify. Every resource is released
// by a defer taken where it is acquired, so no exit path tears down by
// hand and none returns before the senders it started have stopped.
//
// The run is one report record; the caller names its scenario. The service
// block (dispositions, availability) is always there. The crash-restart
// topology's record is phase "chaos", its verification diff in the
// recovery block (stale counted as mismatched: a recovered store has no
// replay stream to lag behind). The replicated topology's is phase
// "replica-chaos", with the replica block: fault schedule, leadership
// tracking, promotion-time loss and the classified diff.
func Run(cfg Config) (harness.Record, error) {
	events := cfg.Restarts + cfg.Failovers + cfg.Partitions
	if events <= 0 || events != max(cfg.Restarts, cfg.Failovers, cfg.Partitions) {
		return harness.Record{}, fmt.Errorf("chaos: exactly one of Restarts (%d), Failovers (%d) and Partitions (%d) must be positive",
			cfg.Restarts, cfg.Failovers, cfg.Partitions)
	}
	if cfg.Senders <= 0 {
		cfg.Senders = 8
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 2000
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 3 * time.Second
	}
	if cfg.KeyRange == 0 {
		cfg.KeyRange = 1 << 16
	}
	if cfg.KeyRange < uint64(cfg.Senders) {
		return harness.Record{}, fmt.Errorf("chaos: key range %d < %d senders", cfg.KeyRange, cfg.Senders)
	}
	if cfg.PartitionDur <= 0 {
		cfg.PartitionDur = 300 * time.Millisecond
	}

	t, err := deploy(&cfg)
	if err != nil {
		return harness.Record{}, err
	}
	defer t.close()
	rec := t.record()
	rec.Threads, rec.Shards = cfg.Senders, 1
	rec.Service = &harness.ServiceRecord{Driver: "http"}

	direct, traffic, replicas := t.endpoints()
	cfg.Client.Replicas = replicas
	driver := service.NewHTTPDriverConfig(traffic, cfg.Client)
	if err := driver.Start(); err != nil {
		return rec, fmt.Errorf("chaos: %w", err)
	}
	defer driver.Close()

	// Preload goes straight to the writable node through its own plain
	// driver: it is setup, not chaos, so it bypasses the fault proxy and
	// the senders' deadline. Faults are armed only once the store is loaded.
	base := harness.NewWireJournal()
	if err := preload(&cfg, direct, base); err != nil {
		return rec, fmt.Errorf("chaos: preload: %w", err)
	}
	t.arm()

	fl, err := startFleet(&cfg, driver)
	if err != nil {
		return rec, err
	}
	defer fl.stop()

	// lost collects the keys whose acked writes a fault event knowingly
	// destroyed (promotion-time replication loss); they verify as tainted.
	lost := harness.NewWireJournal()
	start := time.Now()
	for i := 0; i < events && err == nil; i++ {
		sleepUntil(start.Add(cfg.Duration * time.Duration(i+1) / time.Duration(events+1)))
		err = t.fault(&rec, lost)
	}
	if err == nil {
		sleepUntil(start.Add(cfg.Duration))
	}
	fl.stop()
	rec.Elapsed = time.Since(start)
	if err != nil {
		return rec, err
	}

	survivor, err := t.settle(&rec)
	if err != nil {
		return rec, err
	}
	// Preload first: a key's sender journal overrides its preloaded value.
	journals := append([]*harness.WireJournal{base, lost}, fl.journals()...)
	v, tainted := harness.VerifyReplicaWire(journals, survivor.StateSnapshot)
	rec.Service.TaintedKeys = tainted
	fl.tally(&rec)
	st := driver.Stats()
	rec.Service.RetriedTxns = st.Retries
	if r := rec.Recovery; r != nil {
		// Only here: a leader kill trips the breaker by design, and a
		// replicated run's driver story is the replica block's swaps and
		// recoveries.
		rec.Service.BreakerOpens = st.BreakerOpens
		fc := v.FinalCheck()
		r.Recovered, r.ModelEntries = fc.ModelEntries, fc.ModelEntries
		r.Missing, r.Mismatched, r.Leaked, r.Violations = fc.Missing, fc.Mismatched, fc.Leaked, fc.Violations
		return rec, nil
	}
	r := rec.Replica
	r.DriverFailovers, r.DriverRecoveries, r.StaleRejections = st.Failovers, st.Recoveries, st.StaleReads
	r.ModelEntries, r.MissingKeys, r.StaleKeys = v.ModelEntries, v.Missing, v.Stale
	r.MismatchedKeys, r.LeakedKeys, r.Violations = v.Mismatched, v.Leaked, v.Violations()
	return rec, nil
}

func sleepUntil(at time.Time) {
	if wait := time.Until(at); wait > 0 {
		time.Sleep(wait)
	}
}

// preload installs cfg.Preload keys (key == value) through the driver's
// Preload and journals them: the preload puts seed the model, so untouched
// keys verify too. Keys are partitioned round-robin so each lands in some
// sender's residue class and the journal merge stays exact.
func preload(cfg *Config, base string, journal *harness.WireJournal) error {
	if cfg.Preload <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	keys := make([]uint64, cfg.Preload)
	ops := make([]kv.Op, cfg.Preload)
	for i := range keys {
		keys[i] = harness.PartitionKey(uint64(rng.Int63n(int64(cfg.KeyRange))), i%cfg.Senders, cfg.Senders, cfg.KeyRange)
		ops[i] = kv.Op{Kind: kv.OpPut, Key: keys[i], Val: keys[i]}
	}
	d := service.NewHTTPDriver(base)
	defer d.Close()
	if err := d.Start(); err != nil {
		return err
	}
	if err := d.Preload(keys); err != nil {
		return err
	}
	journal.Commit(ops)
	return nil
}

// sender is one journaling sender's counters, latency reservoir and
// journal, padded like the engine's worker shards.
type sender struct {
	completed uint64
	shed      uint64
	errors    uint64
	expired   uint64
	indoubt   uint64
	harness.Reservoir
	journal *harness.WireJournal
	_       [40]byte
}

// run is the sender loop: paced at interval with exponential
// interarrivals, writes rewritten into the sender's residue class,
// definitive acks journaled, in-doubt outcomes tainted.
func (s *sender) run(cfg *Config, sess harness.DriverSession, tid int, seed int64, stop <-chan struct{}) {
	interval := float64(time.Second) * float64(cfg.Senders) / cfg.Rate
	pace := rand.New(rand.NewSource(seed))
	gen := harness.NewTxGen(cfg.Dist, cfg.KeyRange, cfg.Mix, seed^0x5DEECE66D)
	next := time.Now()
	for {
		select {
		case <-stop:
			return
		default:
		}
		next = next.Add(time.Duration(pace.ExpFloat64() * interval))
		sleepUntil(next)
		ops := gen.Next()
		for j := range ops {
			if ops[j].Kind != kv.OpGet {
				ops[j].Key = harness.PartitionKey(ops[j].Key, tid, cfg.Senders, cfg.KeyRange)
			}
		}
		sent := time.Now()
		err := sess.Do(ops, nil)
		switch {
		case err == nil:
			s.completed++
			s.journal.Commit(ops)
			s.Record(time.Since(sent))
		case service.IsInDoubt(err):
			s.indoubt++
			s.journal.Taint(ops)
		case errors.Is(err, kv.ErrOverload):
			s.shed++
		case errors.Is(err, kv.ErrExpired):
			s.expired++
		default:
			s.errors++
		}
	}
}

// fleet is the running sender set. stop is idempotent and returns once
// every sender has exited; the counters are read only after it.
type fleet struct {
	senders []*sender
	stopCh  chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
}

func startFleet(cfg *Config, driver *service.HTTPDriver) (*fleet, error) {
	f := &fleet{stopCh: make(chan struct{})}
	for i := 0; i < cfg.Senders; i++ {
		sess, err := driver.NewSession()
		if err != nil {
			f.stop()
			return nil, err
		}
		seed := cfg.Seed + int64(i)*7919 + 1
		s := &sender{Reservoir: harness.NewReservoir(seed), journal: harness.NewWireJournal()}
		f.senders = append(f.senders, s)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			defer sess.Close()
			s.run(cfg, sess, i, seed, f.stopCh)
		}()
	}
	return f, nil
}

func (f *fleet) stop() {
	f.once.Do(func() { close(f.stopCh) })
	f.wg.Wait()
}

func (f *fleet) journals() []*harness.WireJournal {
	js := make([]*harness.WireJournal, 0, len(f.senders))
	for _, s := range f.senders {
		js = append(js, s.journal)
	}
	return js
}

// tally folds the stopped fleet's counters and reservoirs into rec's
// headline and service block.
func (f *fleet) tally(rec *harness.Record) {
	svc := rec.Service
	var samples []int64
	for _, s := range f.senders {
		svc.CompletedTxns += s.completed
		svc.ShedTxns += s.shed
		svc.ErrorTxns += s.errors
		svc.ExpiredTxns += s.expired
		svc.InDoubtTxns += s.indoubt
		samples = append(samples, s.Samples...)
	}
	svc.OfferedTxns = svc.CompletedTxns + svc.ShedTxns + svc.ErrorTxns + svc.ExpiredTxns + svc.InDoubtTxns
	if rec.Elapsed > 0 {
		svc.Goodput = float64(svc.CompletedTxns) / rec.Elapsed.Seconds()
	}
	// Availability: completed / (completed + errors + expired + in-doubt).
	if answered := svc.OfferedTxns - svc.ShedTxns; answered > 0 {
		svc.Availability = float64(svc.CompletedTxns) / float64(answered)
	}
	rec.Txns, rec.Throughput = svc.CompletedTxns, svc.Goodput
	rec.Latency.AvgNs, rec.Latency.P50Ns, rec.Latency.P99Ns, svc.P999Ns = harness.LatencyDigest(samples)
}
