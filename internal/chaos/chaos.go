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
// (harness.VerifyReplicaWire): senders write only put/delete on
// partitioned keys (one sender per residue class, sole writer of its
// keys), journal definitive acks, taint in-doubt outcomes, and every
// untainted key of the surviving state must match the merged journals
// exactly.
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

	// Client tunes the senders' HTTPDriver. Replicas is filled in by the
	// runner in the replicated topology.
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

	// FeedShards/FeedRing/MaxLag/MaxSilence are the replicated nodes'
	// knobs (see service.NodeConfig). Failover runs need FeedRing to cover
	// the run's write volume so promotion-time loss stays enumerable;
	// partition runs need MaxSilence below PartitionDur or the partition is
	// invisible to the read gate (a cut feed freezes the follower's lag).
	FeedShards int
	FeedRing   int
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

// Result is the outcome of one run: dispositions, tail latency, the
// fault schedule as performed, and the verification diff.
type Result struct {
	System  string // report label: backend name, or the spec for a replicated pair
	Senders int
	Elapsed time.Duration

	Completed uint64
	Shed      uint64
	Errors    uint64
	Expired   uint64
	InDoubt   uint64

	Retries      uint64
	BreakerOpens uint64
	// DriverFailovers counts leader base swaps the driver performed;
	// DriverRecoveries counts failover sweeps resolved by the current base
	// answering as leader again — what a kill looks like to the driver
	// when the promoted node rebinds the dead leader's address before the
	// sweep runs. Together they measure how often leadership was
	// re-confirmed. StaleRejections counts follower reads refused for lag
	// that fell back to the leader.
	DriverFailovers  uint64
	DriverRecoveries uint64
	StaleRejections  uint64

	// Fault events performed, by kind.
	Restarts   int
	Failovers  int
	Partitions int

	DowntimeNs int64 // wall time from each kill to serving (restart) or followed (failover) again
	RecoveryNs int64 // time inside CrashAndRecover, final crash included

	// LostWrites counts feed entries acked by a killed leader that its
	// follower had not replayed at promotion — the asynchronous
	// replication loss, enumerated and tainted rather than hidden.
	LostWrites   int
	MaxReplayLag uint64 // highest true replay lag sampled (leader head − follower cursor)

	Goodput      float64 // completed / elapsed, txn/s
	Availability float64 // completed / (completed + errors + expired + in-doubt)

	AvgNs, P50Ns, P99Ns, P999Ns float64 // over completed transactions

	// Verify diffs the surviving state against the merged journals;
	// Tainted counts the keys excluded from it as unknowable.
	Verify  harness.ReplicaCheckResult
	Tainted int
}

// Violations is the verification violation total.
func (r Result) Violations() uint64 { return r.Verify.Violations() }

// Run executes one chaos run: deploy → preload (journaled) → senders
// offer load while the fault schedule runs → stop → settle the topology
// (final crash, or follower catch-up) → verify. Every resource is released
// by a defer taken where it is acquired, so no exit path tears down by
// hand and none returns before the senders it started have stopped.
func Run(cfg Config) (Result, error) {
	events := cfg.Restarts + cfg.Failovers + cfg.Partitions
	if events <= 0 || events != max(cfg.Restarts, cfg.Failovers, cfg.Partitions) {
		return Result{}, fmt.Errorf("chaos: exactly one of Restarts (%d), Failovers (%d) and Partitions (%d) must be positive",
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
		return Result{}, fmt.Errorf("chaos: key range %d < %d senders", cfg.KeyRange, cfg.Senders)
	}
	if cfg.PartitionDur <= 0 {
		cfg.PartitionDur = 300 * time.Millisecond
	}

	t, err := deploy(&cfg)
	if err != nil {
		return Result{}, err
	}
	defer t.close()
	res := Result{System: t.label(), Senders: cfg.Senders}

	direct, traffic, replicas := t.endpoints()
	cfg.Client.Replicas = replicas
	driver := service.NewHTTPDriverConfig(traffic, cfg.Client)
	if err := driver.Start(); err != nil {
		return res, fmt.Errorf("chaos: %w", err)
	}
	defer driver.Close()

	// Preload goes straight to the writable node through its own plain
	// driver: it is setup, not chaos, so it bypasses the fault proxy and
	// the senders' deadline. Faults are armed only once the store is loaded.
	base := harness.NewWireJournal()
	if err := preload(&cfg, direct, base); err != nil {
		return res, fmt.Errorf("chaos: preload: %w", err)
	}
	t.arm()

	fl, err := startFleet(&cfg, driver)
	if err != nil {
		return res, err
	}
	defer fl.stop()

	// lost collects the keys whose acked writes a fault event knowingly
	// destroyed (promotion-time replication loss); they verify as tainted.
	lost := harness.NewWireJournal()
	start := time.Now()
	for i := 0; i < events && err == nil; i++ {
		sleepUntil(start.Add(cfg.Duration * time.Duration(i+1) / time.Duration(events+1)))
		err = t.fault(&res, lost)
	}
	if err == nil {
		sleepUntil(start.Add(cfg.Duration))
	}
	fl.stop()
	res.Elapsed = time.Since(start)
	if err != nil {
		return res, err
	}

	survivor, err := t.settle(&res)
	if err != nil {
		return res, err
	}
	// Preload first: a key's sender journal overrides its preloaded value.
	journals := append([]*harness.WireJournal{base, lost}, fl.journals()...)
	res.Verify, res.Tainted = harness.VerifyReplicaWire(journals, survivor.StateSnapshot)

	fl.tally(&res)
	st := driver.Stats()
	res.Retries, res.BreakerOpens = st.Retries, st.BreakerOpens
	res.DriverFailovers, res.DriverRecoveries, res.StaleRejections = st.Failovers, st.Recoveries, st.StaleReads
	return res, nil
}

func sleepUntil(at time.Time) {
	if wait := time.Until(at); wait > 0 {
		time.Sleep(wait)
	}
}

// preloadChunk is one preload batch, under service.MaxOpsPerBatch.
const preloadChunk = 512

// preload installs cfg.Preload keys (key == value) through the wire and
// journals them: the preload puts seed the model, so untouched keys
// verify too. Keys are partitioned round-robin so each lands in some
// sender's residue class and the journal merge stays exact.
func preload(cfg *Config, base string, journal *harness.WireJournal) error {
	if cfg.Preload <= 0 {
		return nil
	}
	d := service.NewHTTPDriver(base)
	if err := d.Start(); err != nil {
		return err
	}
	defer d.Close()
	sess, err := d.NewSession()
	if err != nil {
		return err
	}
	defer sess.Close()
	rng := rand.New(rand.NewSource(cfg.Seed))
	ops := make([]kv.Op, 0, preloadChunk)
	for i := 0; i < cfg.Preload; i++ {
		k := harness.PartitionKey(uint64(rng.Int63n(int64(cfg.KeyRange))), i%cfg.Senders, cfg.Senders, cfg.KeyRange)
		ops = append(ops, kv.Op{Kind: kv.OpPut, Key: k, Val: k})
		if len(ops) < preloadChunk && i < cfg.Preload-1 {
			continue
		}
		if err := journaledDo(sess, ops, journal); err != nil {
			return err
		}
		ops = ops[:0]
	}
	return nil
}

// journaledDo sends one preload batch until the server takes it (sheds
// are retried: preload is not offered load), journaling the outcome.
func journaledDo(sess harness.DriverSession, ops []kv.Op, journal *harness.WireJournal) error {
	for {
		err := sess.Do(ops, nil)
		switch {
		case err == nil:
			journal.Commit(ops)
		case service.IsInDoubt(err):
			journal.Taint(ops)
		case errors.Is(err, harness.ErrOverload):
			time.Sleep(time.Millisecond)
			continue
		default:
			return err
		}
		return nil
	}
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

// maxSamples bounds each sender's latency reservoir.
const maxSamples = 8192

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
			s.Record(time.Since(sent), maxSamples)
		case service.IsInDoubt(err):
			s.indoubt++
			s.journal.Taint(ops)
		case errors.Is(err, harness.ErrOverload):
			s.shed++
		case errors.Is(err, harness.ErrExpired):
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

// tally folds the stopped fleet's counters and reservoirs into res.
func (f *fleet) tally(res *Result) {
	var samples []int64
	for _, s := range f.senders {
		res.Completed += s.completed
		res.Shed += s.shed
		res.Errors += s.errors
		res.Expired += s.expired
		res.InDoubt += s.indoubt
		samples = append(samples, s.Samples...)
	}
	if res.Elapsed > 0 {
		res.Goodput = float64(res.Completed) / res.Elapsed.Seconds()
	}
	if answered := res.Completed + res.Errors + res.Expired + res.InDoubt; answered > 0 {
		res.Availability = float64(res.Completed) / float64(answered)
	}
	res.AvgNs, res.P50Ns, res.P99Ns, res.P999Ns = harness.LatencyDigest(samples)
}
