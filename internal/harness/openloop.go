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
	// rate runs for Duration and becomes one phase of the result.
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

// OpenLoopPhase is the measurement of one offered-rate step.
type OpenLoopPhase struct {
	TargetRate  float64 // configured arrival rate, txn/s
	OfferedRate float64 // arrivals actually generated / elapsed
	Offered     uint64  // arrivals generated (dispatched + dropped)
	Completed   uint64  // transactions executed and acknowledged
	Shed        uint64  // rejected by the service's admission control
	Errors      uint64  // transport or server failures
	Expired     uint64  // deadline passed before execution (never ran)
	Dropped     uint64  // arrivals dropped at the full client queue
	Ops         uint64  // operations inside completed transactions
	Elapsed     time.Duration
	Goodput     float64 // Completed / Elapsed, txn/s

	// Latency percentiles over completed transactions, measured from the
	// scheduled arrival time (coordinated-omission-free).
	AvgNs  float64
	P50Ns  float64
	P99Ns  float64
	P999Ns float64

	// Memory is the step's memory digest. It samples this process — the
	// client side when the driver targets a remote server.
	Memory *MemoryResult
}

// OpenLoopResult is one driver's sweep.
type OpenLoopResult struct {
	Driver string // driver kind: "inproc" or "http"
	System string // system under test
	Shards int    // store partitions, 1 when the driver cannot tell
	Phases []OpenLoopPhase
}

// RunOpenLoop executes the configured rate sweep against d: start,
// preload once, then one step per rate. Steps reuse the driver's backend,
// so later steps see the working set earlier steps left behind — exactly
// like phases of a closed-loop scenario.
func RunOpenLoop(d Driver, cfg OpenLoopConfig) (OpenLoopResult, error) {
	if len(cfg.Rates) == 0 {
		return OpenLoopResult{}, fmt.Errorf("open-loop: no rates configured")
	}
	for _, r := range cfg.Rates {
		if r <= 0 {
			return OpenLoopResult{}, fmt.Errorf("open-loop: non-positive rate %v", r)
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
		return OpenLoopResult{}, fmt.Errorf("open-loop: start: %w", err)
	}
	defer d.Close()

	rng := rand.New(rand.NewSource(cfg.Seed))
	keys := make([]uint64, cfg.Preload)
	for i := range keys {
		keys[i] = uint64(rng.Int63n(int64(cfg.KeyRange)))
	}
	if err := d.Preload(keys); err != nil {
		return OpenLoopResult{}, fmt.Errorf("open-loop: preload: %w", err)
	}

	res := OpenLoopResult{Driver: d.Kind(), System: d.System(), Shards: 1}
	if sc, ok := d.(ShardCounter); ok {
		res.Shards = sc.ShardCount()
	}
	for i, rate := range cfg.Rates {
		ph, err := runOpenLoopStep(d, cfg, rate, i)
		if err != nil {
			return res, err
		}
		res.Phases = append(res.Phases, ph)
	}
	return res, nil
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
func runOpenLoopStep(d Driver, cfg OpenLoopConfig, rate float64, step int) (OpenLoopPhase, error) {
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
			return OpenLoopPhase{}, fmt.Errorf("open-loop: session: %w", err)
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
					s.Record(lat, reservoirSamples)
				case errors.Is(err, ErrOverload):
					s.shed++
				case errors.Is(err, ErrExpired):
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
	elapsed := time.Since(start)
	mem1 := readMemSample()

	ph := OpenLoopPhase{
		TargetRate: rate,
		Offered:    offered,
		Dropped:    dropped,
		Elapsed:    elapsed,
	}
	var samples []int64
	for _, s := range senders {
		ph.Completed += s.completed
		ph.Shed += s.shed
		ph.Errors += s.errors
		ph.Expired += s.expired
		ph.Ops += s.ops
		samples = append(samples, s.Samples...)
	}
	if elapsed > 0 {
		ph.OfferedRate = float64(offered) / elapsed.Seconds()
		ph.Goodput = float64(ph.Completed) / elapsed.Seconds()
	}
	ph.AvgNs, ph.P50Ns, ph.P99Ns, ph.P999Ns = LatencyDigest(samples)
	ph.Memory = memoryResult(mem0, mem1, ph.Ops, nil)
	if ph.Completed == 0 && sessErr != nil {
		return ph, fmt.Errorf("open-loop: no transaction completed at rate %v: %w", rate, sessErr)
	}
	return ph, nil
}
