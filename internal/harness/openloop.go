package harness

import (
	"fmt"
	"math/rand"
	"time"

	"medley/internal/kv"
)

// This file is the open-loop half of the workload engine. The closed-loop
// engine (engine.go) measures capacity: N workers issue back-to-back
// transactions and throughput is whatever the system sustains. A service
// answers a different question — what latency do clients see at a given
// *offered* load — and a closed loop cannot ask it: when the system slows
// down, closed-loop clients slow down with it, silently shrinking the
// offered load and hiding the queueing delay real arrivals would have
// seen (coordinated omission). Here arrivals are a Poisson process at a
// configured rate, independent of completions, and every latency is
// measured from the transaction's *scheduled arrival time*, so time spent
// queueing behind a slow system is charged to the system, not forgiven.
// The senders are the engine's (sender.go); only their pacing differs:
// one dispatcher's schedule, shared through a bounded queue.

// OpenLoopConfig parameterizes one open-loop run: a sweep of offered
// rates over one driver.
type OpenLoopConfig struct {
	// Rates is the offered-load sweep, in transactions per second; each
	// rate runs for Duration and becomes one record of the result.
	Rates    []float64
	Duration time.Duration

	// MaxInFlight bounds concurrent outstanding requests (sender
	// sessions); default 64. With the dispatch queue between the arrival
	// process and the senders (2 * MaxInFlight deep) it is the client's
	// own admission bound: arrivals that find the queue full are counted
	// as Dropped rather than stalling the arrival process.
	MaxInFlight int

	KeyRange uint64
	Preload  int
	Seed     int64
	Mix      Mix
	Dist     Dist
}

// RunOpenLoop executes the configured rate sweep against d: start,
// preload once, open MaxInFlight sessions, then one step per rate. Steps
// reuse the driver's backend and the sessions, so later steps see the
// working set earlier steps left behind — exactly like phases of a
// closed-loop scenario, whose workers keep their executors too.
//
// Each step is one report record, phase "rate-<target>", with the service
// block carrying the open-loop disposition. The shared fields keep their
// closed-loop meaning where one exists (txns = completed transactions,
// throughput = goodput); threads is the in-flight bound, the open-loop
// analogue of the worker count. The caller names the scenario.
func RunOpenLoop(d Driver, cfg OpenLoopConfig) ([]Record, error) {
	if len(cfg.Rates) == 0 {
		return nil, fmt.Errorf("open-loop: no rates configured")
	}
	for _, r := range cfg.Rates {
		if r <= 0 {
			return nil, fmt.Errorf("open-loop: non-positive rate %v", r)
		}
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 64
	}
	if cfg.KeyRange == 0 {
		cfg.KeyRange = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	if err := d.Start(); err != nil {
		return nil, fmt.Errorf("open-loop: start: %w", err)
	}
	defer d.Close()

	rng := rand.New(rand.NewSource(cfg.Seed))
	keys := make([]uint64, cfg.Preload)
	for i := range keys {
		keys[i] = uint64(rng.Int63n(int64(cfg.KeyRange)))
	}
	if err := d.Preload(keys); err != nil {
		return nil, fmt.Errorf("open-loop: preload: %w", err)
	}

	sessions := make([]DriverSession, cfg.MaxInFlight)
	for i := range sessions {
		sess, err := d.NewSession()
		if err != nil {
			return nil, fmt.Errorf("open-loop: session: %w", err)
		}
		defer sess.Close()
		sessions[i] = sess
	}

	shards := 1
	if sc, ok := d.(ShardCounter); ok {
		shards = max(sc.ShardCount(), 1)
	}
	var recs []Record
	for i, rate := range cfg.Rates {
		rec, err := runOpenLoopStep(d, sessions, cfg, rate, i)
		if err != nil {
			return recs, err
		}
		rec.System, rec.Threads, rec.Shards = d.System(), cfg.MaxInFlight, shards
		recs = append(recs, rec)
	}
	return recs, nil
}

// runOpenLoopStep runs one offered-rate step: a dispatcher generates
// Poisson arrivals into a bounded queue, and one sender per session
// drains it under the shared schedule's pacing.
func runOpenLoopStep(d Driver, sessions []DriverSession, cfg OpenLoopConfig, rate float64, step int) (Record, error) {
	arrivals := make(chan arrival, 2*len(sessions))
	ss := make([]*Sender, len(sessions))
	for i, sess := range sessions {
		ss[i] = &Sender{Sess: sess, Seed: (cfg.Seed + int64(step)*104729 + int64(i)*7919) ^ 0x5DEECE66D}
	}
	stop := StartSenders(ss, Pacing{arrivals: arrivals})

	mem0 := readMemSample()
	gen := NewTxGen(cfg.Dist, cfg.KeyRange, cfg.Mix, cfg.Seed+int64(step)*15485863)
	arr := rand.New(rand.NewSource(cfg.Seed + int64(step)*32452843))
	var offered, dropped uint64
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	next := start
	for {
		// Poisson arrivals: exponential interarrival at the target rate.
		// When the dispatcher falls behind (sleep overshoot, queue
		// contention) it does not re-derive the schedule from "now" —
		// catching up preserves the arrival count an open loop owes.
		next = next.Add(time.Duration(arr.ExpFloat64() / rate * float64(time.Second)))
		if next.After(deadline) {
			break
		}
		time.Sleep(time.Until(next))
		ops := append([]kv.Op(nil), gen.Next()...) // the generator reuses its buffer
		offered++
		select {
		case arrivals <- arrival{ops: ops, at: next}:
		default:
			dropped++
		}
	}
	close(arrivals)
	stop()
	// The memory delta samples this process: the client side when the
	// driver targets a remote server. A step has no counters.
	t := tallySenders(ss, false)
	t.elapsed, t.mem = time.Since(start), readMemSample().minus(mem0)
	for _, s := range ss {
		if t.txns == 0 && s.err != nil {
			return Record{}, fmt.Errorf("open-loop: no transaction completed at rate %v: %w", rate, s.err)
		}
	}
	svc := &ServiceRecord{Driver: d.Kind(), TargetRate: rate, OfferedTxns: offered, DroppedTxns: dropped}
	rec := t.served(fmt.Sprintf("rate-%.0f", rate), svc)
	if rec.Elapsed > 0 {
		svc.OfferedRate = float64(offered) / rec.Elapsed.Seconds()
	}
	return rec, nil
}

// served derives a paced run's record from its tally: the record as
// result derives it, with svc — the dispositions by outcome, goodput and
// p99.9 filled in — as its service block.
func (t *tally) served(phase string, svc *ServiceRecord) Record {
	rec := t.result(phase)
	svc.CompletedTxns, svc.ShedTxns, svc.ExpiredTxns = t.sent[completed], t.sent[shed], t.sent[expired]
	svc.InDoubtTxns, svc.ErrorTxns = t.sent[inDoubt], t.sent[failed]
	_, _, _, svc.P999Ns = weightedDigest(t.samples)
	svc.Goodput, rec.Service = rec.Throughput, svc
	return rec
}
