package harness

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"medley/internal/kv"
)

// fakeOLDriver is an instant in-memory driver: Do succeeds immediately,
// or follows a per-request script. It isolates the open-loop engine's
// arrival process and accounting from any real system.
type fakeOLDriver struct {
	started atomic.Bool
	n       atomic.Uint64
	do      func(seq uint64) error
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
func (d *fakeOLDriver) NewSession() (DriverSession, error) { return &fakeOLSession{d: d}, nil }
func (d *fakeOLDriver) Close() error                       { return nil }

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
	res, err := RunOpenLoop(d, OpenLoopConfig{
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
	if len(res.Phases) != 1 {
		t.Fatalf("phases = %d, want 1", len(res.Phases))
	}
	ph := res.Phases[0]
	if ratio := ph.OfferedRate / rate; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("offered rate %.0f is off target %.0f by more than 10%%", ph.OfferedRate, rate)
	}
	if ph.Completed+ph.Dropped != ph.Offered {
		t.Errorf("disposition leak: offered=%d completed=%d dropped=%d",
			ph.Offered, ph.Completed, ph.Dropped)
	}
	if ph.Shed != 0 || ph.Errors != 0 {
		t.Errorf("instant backend shed=%d errors=%d, want 0/0", ph.Shed, ph.Errors)
	}
	if ph.Completed > 0 && (ph.P50Ns <= 0 || ph.P99Ns < ph.P50Ns || ph.P999Ns < ph.P99Ns) {
		t.Errorf("percentiles not ordered: p50=%.0f p99=%.0f p99.9=%.0f",
			ph.P50Ns, ph.P99Ns, ph.P999Ns)
	}
	if res.Driver != "fake" || res.System != "fake-system" {
		t.Errorf("identity = %s/%s", res.Driver, res.System)
	}
}

// TestOpenLoopClassifiesShedSeparately pins the disposition taxonomy:
// ErrOverload counts as shed (admission control working), any other
// error as a failure.
func TestOpenLoopClassifiesShedSeparately(t *testing.T) {
	boom := errors.New("boom")
	d := &fakeOLDriver{do: func(seq uint64) error {
		switch seq % 3 {
		case 0:
			return ErrOverload
		case 1:
			return boom
		}
		return nil
	}}
	res, err := RunOpenLoop(d, OpenLoopConfig{
		Rates: []float64{2000}, Duration: 200 * time.Millisecond,
		MaxInFlight: 4, KeyRange: 64, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ph := res.Phases[0]
	if ph.Shed == 0 || ph.Errors == 0 || ph.Completed == 0 {
		t.Errorf("expected all three dispositions, got completed=%d shed=%d errors=%d",
			ph.Completed, ph.Shed, ph.Errors)
	}
	if ph.Completed+ph.Shed+ph.Errors+ph.Dropped != ph.Offered {
		t.Errorf("disposition leak: offered=%d completed=%d shed=%d errors=%d dropped=%d",
			ph.Offered, ph.Completed, ph.Shed, ph.Errors, ph.Dropped)
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

func TestPermilleNearestRank(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		p    int
		want int64
	}{
		{500, 500}, {990, 990}, {999, 999}, {1000, 1000},
	} {
		if got := Quantile(s, tc.p); got != tc.want {
			t.Errorf("Quantile(1..1000, %d) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := Quantile([]int64{7}, 999); got != 7 {
		t.Errorf("singleton permille = %d, want 7", got)
	}
	if got := Quantile(nil, 500); got != 0 {
		t.Errorf("empty permille = %d, want 0", got)
	}
}

// TestInProcDriverDrivesEverySystem is medley-bench -target over every
// registered base: each system hands out executors, so each can be driven
// in-process, and at a low offered rate each completes requests with no
// errors.
func TestInProcDriverDrivesEverySystem(t *testing.T) {
	sc := mustScenario(t, "service-mixed")
	for _, name := range SystemNames() {
		t.Run(name, func(t *testing.T) {
			sys, err := NewSystem(name, SystemOpts{Buckets: 1 << 10, KeyRange: 1 << 10})
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunOpenLoop(NewInProcDriver(sys), OpenLoopConfig{
				Rates: []float64{500}, Duration: 200 * time.Millisecond,
				MaxInFlight: 4, KeyRange: 1 << 10, Preload: 256, Seed: 5,
				Mix: sc.Phases[0].Mix, Dist: sc.Dist,
			})
			if err != nil {
				t.Fatal(err)
			}
			if ph := res.Phases[0]; ph.Completed == 0 || ph.Errors != 0 {
				t.Errorf("completed=%d errors=%d, want some and none", ph.Completed, ph.Errors)
			}
		})
	}
}
