package harness

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"medley/internal/kv"
)

// fakeOLDriver is an instant in-memory driver: Do succeeds immediately,
// or follows a per-request script. It isolates the open-loop engine's
// arrival process and accounting from any real system.
type fakeOLDriver struct {
	started  atomic.Bool
	n        atomic.Uint64
	sessions atomic.Int64 // NewSession calls
	do       func(seq uint64) error
}

func (d *fakeOLDriver) Kind() string   { return "fake" }
func (d *fakeOLDriver) System() string { return "fake-system" }
func (d *fakeOLDriver) Start() error   { d.started.Store(true); return nil }
func (d *fakeOLDriver) Preload(keys []uint64) error {
	if !d.started.Load() {
		return errors.New("preload before start")
	}
	return nil
}
func (d *fakeOLDriver) NewSession() (DriverSession, error) {
	d.sessions.Add(1)
	return &fakeOLSession{d: d}, nil
}
func (d *fakeOLDriver) Close() error { return nil }

type fakeOLSession struct{ d *fakeOLDriver }

func (s *fakeOLSession) Do(ops []kv.Op, res []kv.Result) error {
	seq := s.d.n.Add(1)
	if s.d.do != nil {
		return s.d.do(seq)
	}
	return nil
}
func (s *fakeOLSession) Close() error { return nil }

// TestOpenLoopArrivalRateAccuracy pins the Poisson arrival process to its
// configured rate: with an instant backend, the offered rate must land
// within 10% of the target (the dispatcher catches up after sleep
// overshoot instead of re-deriving its schedule, so systematic drift
// means the open loop is not open).
func TestOpenLoopArrivalRateAccuracy(t *testing.T) {
	const rate = 4000.0
	d := &fakeOLDriver{}
	recs, err := RunOpenLoop(d, OpenLoopConfig{
		Rates:       []float64{rate},
		Duration:    500 * time.Millisecond,
		MaxInFlight: 8,
		KeyRange:    1 << 10,
		Preload:     64,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	rec, svc := recs[0], recs[0].Service
	if ratio := svc.OfferedRate / rate; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("offered rate %.0f is off target %.0f by more than 10%%", svc.OfferedRate, rate)
	}
	if svc.CompletedTxns+svc.DroppedTxns != svc.OfferedTxns {
		t.Errorf("disposition leak: offered=%d completed=%d dropped=%d",
			svc.OfferedTxns, svc.CompletedTxns, svc.DroppedTxns)
	}
	if svc.ShedTxns != 0 || svc.ErrorTxns != 0 {
		t.Errorf("instant backend shed=%d errors=%d, want 0/0", svc.ShedTxns, svc.ErrorTxns)
	}
	lat := rec.Latency
	if svc.CompletedTxns > 0 && (lat.P50Ns <= 0 || lat.P99Ns < lat.P50Ns || svc.P999Ns < lat.P99Ns) {
		t.Errorf("percentiles not ordered: p50=%.0f p99=%.0f p99.9=%.0f",
			lat.P50Ns, lat.P99Ns, svc.P999Ns)
	}
	if svc.Driver != "fake" || rec.System != "fake-system" {
		t.Errorf("identity = %s/%s", svc.Driver, rec.System)
	}
	// The record is the report's: the closed-loop fields carry their
	// open-loop meaning.
	if rec.Phase != "rate-4000" || rec.Threads != 8 || rec.Shards != 1 ||
		rec.Txns != svc.CompletedTxns || rec.Throughput != svc.Goodput || svc.TargetRate != rate {
		t.Errorf("record = %+v, service = %+v", rec, *svc)
	}
}

// TestOpenLoopClassifiesShedSeparately pins the disposition taxonomy:
// kv.ErrOverload counts as shed (admission control working), an error
// wrapping kv.ErrInDoubt as in doubt — even when its cause is a shed — and
// any other error as a failure.
func TestOpenLoopClassifiesShedSeparately(t *testing.T) {
	boom := errors.New("boom")
	d := &fakeOLDriver{do: func(seq uint64) error {
		switch seq % 4 {
		case 0:
			return kv.ErrOverload
		case 1:
			return boom
		case 2:
			return fmt.Errorf("%w: %w", kv.ErrInDoubt, kv.ErrOverload)
		}
		return nil
	}}
	recs, err := RunOpenLoop(d, OpenLoopConfig{
		Rates: []float64{2000}, Duration: 200 * time.Millisecond,
		MaxInFlight: 4, KeyRange: 64, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := recs[0].Service
	if svc.ShedTxns == 0 || svc.ErrorTxns == 0 || svc.InDoubtTxns == 0 || svc.CompletedTxns == 0 {
		t.Errorf("expected all four dispositions, got completed=%d shed=%d errors=%d in-doubt=%d",
			svc.CompletedTxns, svc.ShedTxns, svc.ErrorTxns, svc.InDoubtTxns)
	}
	if svc.CompletedTxns+svc.ShedTxns+svc.ErrorTxns+svc.InDoubtTxns+svc.DroppedTxns != svc.OfferedTxns {
		t.Errorf("disposition leak: offered=%d completed=%d shed=%d errors=%d in-doubt=%d dropped=%d",
			svc.OfferedTxns, svc.CompletedTxns, svc.ShedTxns, svc.ErrorTxns, svc.InDoubtTxns, svc.DroppedTxns)
	}
}

// TestOpenLoopKeepsItsSessions pins the sessions' lifetime: a sweep opens
// MaxInFlight of them once and keeps them for every rate step, so an
// in-process session's executor is not abandoned at each step.
func TestOpenLoopKeepsItsSessions(t *testing.T) {
	d := &fakeOLDriver{}
	recs, err := RunOpenLoop(d, OpenLoopConfig{
		Rates: []float64{500, 1000, 2000}, Duration: 50 * time.Millisecond,
		MaxInFlight: 4, KeyRange: 64, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3", len(recs))
	}
	if got := d.sessions.Load(); got != 4 {
		t.Errorf("a 3-rate sweep at MaxInFlight 4 opened %d sessions, want 4", got)
	}
}

// TestOpenLoopFailsWhenNothingCompletes pins the error contract: a sweep
// where every request fails must return the underlying error instead of
// an all-zero phase.
func TestOpenLoopFailsWhenNothingCompletes(t *testing.T) {
	boom := errors.New("backend down")
	d := &fakeOLDriver{do: func(uint64) error { return boom }}
	_, err := RunOpenLoop(d, OpenLoopConfig{
		Rates: []float64{1000}, Duration: 100 * time.Millisecond,
		MaxInFlight: 2, KeyRange: 64, Seed: 3,
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
}

// TestInProcDriverDrivesEverySystem is medley-bench -target over every
// registered base: each system hands out executors, so each can be driven
// in-process, and at a low offered rate each completes requests with no
// errors.
func TestInProcDriverDrivesEverySystem(t *testing.T) {
	sc := mustScenario(t, "service-mixed")
	for _, name := range systemRegistry.Names() {
		t.Run(name, func(t *testing.T) {
			sys, err := NewSystem(name, SystemOpts{Buckets: 1 << 10, KeyRange: 1 << 10})
			if err != nil {
				t.Fatal(err)
			}
			recs, err := RunOpenLoop(NewInProcDriver(sys), OpenLoopConfig{
				Rates: []float64{500}, Duration: 200 * time.Millisecond,
				MaxInFlight: 4, KeyRange: 1 << 10, Preload: 256, Seed: 5,
				Mix: sc.Phases[0].Mix, Dist: sc.Dist,
			})
			if err != nil {
				t.Fatal(err)
			}
			if svc := recs[0].Service; svc.CompletedTxns == 0 || svc.ErrorTxns != 0 {
				t.Errorf("completed=%d errors=%d, want some and none", svc.CompletedTxns, svc.ErrorTxns)
			}
		})
	}
}
