package harness

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"medley/internal/kv"
)

// This file is the one sender loop. The closed-loop engine, the open loop
// and the chaos runner all drive a store through it: a sender takes a
// transaction (drawn from its generator, or received from a shared
// schedule), rewrites its writes into the sender's residue class, sends it
// through a DriverSession, times it, classifies the outcome and journals
// it. The three runners differ only in the Pacing they start their
// senders under and in what they read off the stopped senders.

// outcome is how one send ended.
type outcome int

const (
	completed outcome = iota // acknowledged
	shed                     // refused at admission (kv.ErrOverload)
	expired                  // deadline passed before execution (kv.ErrExpired)
	inDoubt                  // may or may not have executed (kv.ErrInDoubt)
	failed                   // any other error
	numOutcomes
)

// outcomeOf classifies a failed send's error. In doubt is checked first:
// a session wraps the last attempt's cause, a shed or an expiry among
// them, in kv.ErrInDoubt once an earlier attempt died on the wire.
func outcomeOf(err error) outcome {
	switch {
	case errors.Is(err, kv.ErrInDoubt):
		return inDoubt
	case errors.Is(err, kv.ErrOverload):
		return shed
	case errors.Is(err, kv.ErrExpired):
		return expired
	}
	return failed
}

// latencyEvery times every Nth closed-loop send: clock reads cost tens of
// nanoseconds, so timing every transaction would tax the fastest systems
// most and compress cross-system ratios.
const latencyEvery = 4

// Pacing is when a sender sends and what each send's latency is measured
// from. The zero Pacing is the closed loop: back to back until stopped, every
// latencyEvery-th send timed from when it goes out.
type Pacing struct {
	// arrivals, when non-nil, is one schedule shared by every sender: each
	// sends what arrives, timed from its scheduled arrival, until the
	// channel closes.
	arrivals <-chan arrival
	// gap, when positive, paces each sender on its own: exponential gaps
	// of this mean (ns) from its own seed, every send timed from when it
	// goes out.
	gap float64
}

// Poisson paces each sender on its own as a Poisson process with the
// given mean gap between its sends.
func Poisson(mean time.Duration) Pacing { return Pacing{gap: float64(mean)} }

// arrival is one transaction of a shared schedule: its operations and the
// time the schedule assigned it, which its latency is measured from.
type arrival struct {
	ops []kv.Op
	at  time.Time
}

// Sender is one goroutine's stream of transactions to a store. Its
// counters and reservoir are plain: only its own goroutine writes them,
// and they are read once the senders have stopped. It is padded so that
// concurrent senders never write the same cache line.
type Sender struct {
	Sess DriverSession
	// Gen draws the transactions of closed and Poisson pacing.
	Gen *TxGen
	// Journal, when non-nil, records every acknowledged send's writes and
	// taints every in-doubt send's keys.
	Journal *WireJournal
	// Classes > 0 rewrites every write's key (put, delete, add) into
	// residue class Class modulo Classes, inside [0, KeyRange), so that the
	// sender is the sole writer of its keys and its journal is exact for
	// them. Reads stay where they were drawn.
	Class, Classes int
	KeyRange       uint64
	// Seed seeds the latency reservoir and, under Poisson pacing, the
	// sender's gaps.
	Seed int64

	Reservoir
	sent, ops [numOutcomes]uint64 // transactions and their ops, by outcome
	err       error               // the first failed send's error
	_         [40]byte
}

// run is the sender loop under p, until stop (or the schedule's close).
func (s *Sender) run(p Pacing, stop *atomic.Bool) {
	switch {
	case p.arrivals != nil:
		for a := range p.arrivals {
			s.send(a.ops, a.at)
		}
	case p.gap > 0:
		pace := rand.New(rand.NewSource(s.Seed))
		for next := time.Now(); !stop.Load(); {
			next = next.Add(time.Duration(pace.ExpFloat64() * p.gap))
			time.Sleep(time.Until(next))
			ops := s.Gen.Next()
			if s.Classes > 0 {
				s.partition(ops)
			}
			s.send(ops, time.Now())
		}
	default:
		for tick := latencyEvery - 1; !stop.Load(); { // time the first send, then every latencyEvery-th
			ops := s.Gen.Next()
			if s.Classes > 0 {
				s.partition(ops)
			}
			var origin time.Time
			if tick++; tick >= latencyEvery {
				tick, origin = 0, time.Now()
			}
			s.send(ops, origin)
		}
	}
}

// partition rewrites the keys of ops' writes into the sender's residue
// class.
func (s *Sender) partition(ops []kv.Op) {
	for i := range ops {
		if k := ops[i].Kind; k == kv.OpPut || k == kv.OpDelete || k == kv.OpAdd {
			ops[i].Key = PartitionKey(ops[i].Key, s.Class, s.Classes, s.KeyRange)
		}
	}
}

// send is the one send site: it sends ops, classifies the outcome, times
// a completed send from origin (unless zero) and journals the outcome.
func (s *Sender) send(ops []kv.Op, origin time.Time) {
	err := s.Sess.Do(ops, nil)
	o := completed
	if err != nil {
		o = outcomeOf(err)
	}
	s.sent[o]++
	s.ops[o] += uint64(len(ops))
	switch {
	case o == completed:
		if !origin.IsZero() {
			s.Record(time.Since(origin))
		}
		if s.Journal != nil {
			s.Journal.Commit(ops)
		}
	case o == inDoubt && s.Journal != nil:
		s.Journal.Taint(ops)
	case o == failed && s.err == nil:
		s.err = err
	}
}

// StartSenders starts one goroutine per sender under p. The returned stop
// has closed-loop and Poisson-paced senders return after their current
// send, and waits until every sender has returned (a shared schedule's
// senders return once its channel is closed); it is idempotent.
func StartSenders(ss []*Sender, p Pacing) (stop func()) {
	var halt atomic.Bool
	var wg sync.WaitGroup
	for _, s := range ss {
		s.Reservoir = NewReservoir(s.Seed)
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.run(p, &halt)
		}()
	}
	return func() {
		halt.Store(true)
		wg.Wait()
	}
}

// tallySenders sums stopped senders: their outcomes and latency samples,
// and in txns and ops every send (every) or only the completed ones.
func tallySenders(ss []*Sender, every bool) tally {
	var t tally
	var samples []int64
	for _, s := range ss {
		for o, n := range s.sent {
			t.sent[o] += n
			if every || outcome(o) == completed {
				t.txns += n
				t.ops += s.ops[o]
			}
		}
		samples = append(samples, s.Samples...)
	}
	t.weigh(samples)
	return t
}

// Served is the headline of a paced run's stopped senders over elapsed:
// their completed txns, goodput and latency, with the service block's
// dispositions, goodput and p99.9 filled in svc.
func Served(ss []*Sender, elapsed time.Duration, svc *ServiceRecord) PhaseResult {
	t := tallySenders(ss, false)
	t.elapsed = elapsed
	return t.served("", svc).PhaseResult
}
