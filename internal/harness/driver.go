package harness

import "medley/internal/kv"

// This file is the driver seam of the open-loop benchmark path: a Driver
// abstracts how generated load reaches the system under test, so the same
// scenario runs unchanged against an in-process store (NewInProcDriver)
// and against a medleyd server over the wire (the HTTP client driver in
// internal/service). The open-loop engine (openloop.go) only ever talks to
// this interface.

// ErrOverload and ErrExpired are the two refusals a DriverSession may
// answer with (kv.Session declares them: the service's HTTP client returns
// them without importing this package). The open-loop engine counts shed
// requests separately from errors — shedding under overload is the
// admission control working, not a failure — and an expired one as its own
// disposition: a latency casualty, not a failure and not a shed.
var ErrOverload, ErrExpired = kv.ErrOverload, kv.ErrExpired

// Driver provisions the system under test and hands out sessions. Start,
// Preload and Close are called once per run, from one goroutine;
// NewSession is called once per sender goroutine.
type Driver interface {
	// Kind names the transport for reports: "inproc" or "http".
	Kind() string
	// System names the system under test for reports (e.g.
	// "medley-hash-8shard"); valid after Start.
	System() string
	// Start brings the backend up (starts maintenance for an in-process
	// system; verifies connectivity for a remote one).
	Start() error
	// Preload installs the initial keys (key == value), exactly like
	// System.Preload.
	Preload(keys []uint64) error
	// NewSession creates one sender's session. Sessions are goroutine-
	// bound: only the goroutine that first calls Do may keep calling it.
	NewSession() (DriverSession, error)
	// Close tears down whatever Start brought up.
	Close() error
}

// InProcDriver drives a System directly: no pool, no tick loop, no wire —
// one kv.Executor per session. It is the zero-transport
// baseline that isolates what the service layer (queueing, coalescing,
// HTTP) adds on top of raw store latency.
type InProcDriver struct {
	sys  System
	stop func()
}

// NewInProcDriver wraps sys; Start/Close manage its lifecycle.
func NewInProcDriver(sys System) *InProcDriver {
	return &InProcDriver{sys: sys}
}

// Kind implements Driver.
func (d *InProcDriver) Kind() string { return "inproc" }

// System implements Driver.
func (d *InProcDriver) System() string { return d.sys.Name() }

// Start implements Driver.
func (d *InProcDriver) Start() error {
	d.stop = d.sys.Start()
	return nil
}

// Preload implements Driver.
func (d *InProcDriver) Preload(keys []uint64) error {
	d.sys.Preload(keys)
	return nil
}

// NewSession implements Driver. The executor is created lazily on the
// session's first Do, because executors are bound to the goroutine that
// creates them and NewSession runs on the engine's goroutine.
func (d *InProcDriver) NewSession() (DriverSession, error) {
	return &inprocSession{sys: d.sys}, nil
}

// ShardCount implements ShardCounter when the underlying system does.
func (d *InProcDriver) ShardCount() int {
	return Capabilities(d.sys).ShardCount()
}

// Close implements Driver.
func (d *InProcDriver) Close() error {
	if d.stop != nil {
		d.stop()
		d.stop = nil
	}
	return nil
}

type inprocSession struct {
	sys System
	ex  kv.Executor
}

func (s *inprocSession) Do(ops []kv.Op, res []kv.Result) error {
	if s.ex == nil {
		s.ex = s.sys.NewExecutor()
	}
	return s.ex.ExecBatch(ops, res)
}

func (s *inprocSession) Close() error { return nil }
