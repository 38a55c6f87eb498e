package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
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
// preload once, then one step per rate. Steps reuse the driver's backend,
// so later steps see the working set earlier steps left behind — exactly
// like phases of a closed-loop scenario.
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

	shards := 1
	if sc, ok := d.(ShardCounter); ok {
		shards = max(sc.ShardCount(), 1)
	}
	var recs []Record
	for i, rate := range cfg.Rates {
		rec, err := runOpenLoopStep(d, cfg, rate, i)
		if err != nil {
			return recs, err
		}
		rec.System, rec.Threads, rec.Shards = d.System(), cfg.MaxInFlight, shards
		recs = append(recs, rec)
	}
	return recs, nil
}

// olReq is one scheduled transaction: its operations and the arrival time
// the Poisson process assigned it. Latency is measured from sched.
type olReq struct {
	ops   []kv.Op
	sched time.Time
}

// olSender is one sender goroutine's counters and latency reservoir,
// padded like workerShard so concurrent senders never share a line.
type olSender struct {
	completed uint64
	shed      uint64
	errors    uint64
	expired   uint64
	ops       uint64
	Reservoir
	_ [40]byte
}

// runOpenLoopStep runs one offered-rate step: a dispatcher goroutine
// generates Poisson arrivals into a bounded queue; MaxInFlight senders
// drain it, one driver session each.
func runOpenLoopStep(d Driver, cfg OpenLoopConfig, rate float64, step int) (Record, error) {
	work := make(chan olReq, 2*cfg.MaxInFlight)
	senders := make([]*olSender, cfg.MaxInFlight)
	var wg sync.WaitGroup
	var sessErr error
	var sessErrOnce sync.Once
	for i := 0; i < cfg.MaxInFlight; i++ {
		seed := cfg.Seed + int64(step)*104729 + int64(i)*7919
		s := &olSender{Reservoir: NewReservoir(seed ^ 0x5DEECE66D)}
		senders[i] = s
		sess, err := d.NewSession()
		if err != nil {
			close(work)
			return Record{}, fmt.Errorf("open-loop: session: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sess.Close()
			for req := range work {
				err := sess.Do(req.ops, nil)
				lat := time.Since(req.sched)
				// errors.Is, not ==: a fault-tolerant driver may wrap the
				// sentinel (e.g. in an in-doubt marker) after retries.
				switch {
				case err == nil:
					s.completed++
					s.ops += uint64(len(req.ops))
					s.Record(lat)
				case errors.Is(err, kv.ErrOverload):
					s.shed++
				case errors.Is(err, kv.ErrExpired):
					s.expired++
				default:
					s.errors++
					sessErrOnce.Do(func() { sessErr = err })
				}
			}
		}()
	}

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
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
		ops := append([]kv.Op(nil), gen.Next()...) // the generator reuses its buffer
		offered++
		select {
		case work <- olReq{ops: ops, sched: next}:
		default:
			dropped++
		}
	}
	close(work)
	wg.Wait()
	// The memory delta samples this process: the client side when the
	// driver targets a remote server. A step has no counters.
	t := tally{elapsed: time.Since(start), mem: readMemSample().minus(mem0)}
	svc := &ServiceRecord{Driver: d.Kind(), TargetRate: rate, OfferedTxns: offered, DroppedTxns: dropped}
	var samples []int64
	for _, s := range senders {
		svc.CompletedTxns += s.completed
		svc.ShedTxns += s.shed
		svc.ErrorTxns += s.errors
		svc.ExpiredTxns += s.expired
		t.ops += s.ops
		samples = append(samples, s.Samples...)
	}
	t.txns = svc.CompletedTxns
	if t.txns == 0 && sessErr != nil {
		return Record{}, fmt.Errorf("open-loop: no transaction completed at rate %v: %w", rate, sessErr)
	}
	t.weigh(samples)
	rec := t.result(fmt.Sprintf("rate-%.0f", rate))
	_, _, _, svc.P999Ns = weightedDigest(t.samples)
	if rec.Elapsed > 0 {
		svc.OfferedRate = float64(offered) / rec.Elapsed.Seconds()
	}
	svc.Goodput, rec.Service = rec.Throughput, svc
	return rec, nil
}
