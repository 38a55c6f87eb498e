package harness

import "medley/internal/kv"

// This file is the driver seam of the open-loop benchmark path: a Driver
// abstracts how generated load reaches the system under test, so the same
// scenario runs unchanged against an in-process store (NewInProcDriver)
// and against a medleyd server over the wire (the HTTP client driver in
// internal/service). The open-loop engine (openloop.go) only ever talks to
// this interface.

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
	// NewSession creates one sender's session. A session is used by one
	// goroutine at a time; a hand-off between goroutines (a channel send,
	// say) must order its calls.
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

// NewSession implements Driver: a session over one executor. Like the
// session, an executor is used by one goroutine at a time, and a channel
// hand-off orders it.
func (d *InProcDriver) NewSession() (DriverSession, error) {
	return &inprocSession{d.sys.NewExecutor()}, nil
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

// inprocSession is a session over one executor: the closed-loop engine's
// workers and the in-process driver's senders both send through one.
type inprocSession struct{ ex kv.Executor }

func (s *inprocSession) Do(ops []kv.Op, res []kv.Result) error { return s.ex.ExecBatch(ops, res) }

func (s *inprocSession) Close() error { return nil }
