package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"medley/internal/kv"
)

// config is one run's sizing. Workloads are closed-loop: every client
// sends its next transaction only when the previous one returned.
type config struct {
	seed    uint64
	ks      keySpace
	warmup  time.Duration // unmeasured: arenas, pools, keep-alive connections fill
	measure time.Duration
	window  time.Duration // lat_p99_ms window length
	setups  int           // set-ups before the run; setup_s is their median, the last one is measured on
	trace   bool          // odd windows record spans; gauges sampled
	// injectLostCredit drops one transfer's credit leg client-side, so the
	// conservation check must fail (the checks' own self-test).
	injectLostCredit bool
}

type workloadSpec struct {
	name    string
	kind    stackKind
	stream  string
	clients int // 0 means C, see clientCount
	// noAccounts: the stream never transfers and puts or deletes any key,
	// so every key is a val == key key (every successful get is
	// checkable) and there is no sum to conserve.
	noAccounts bool
}

// clientCount is C: the benchmark never runs more runnable client
// goroutines than this (svc-saturate's submitters are parked on promises).
func clientCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

var workloadSpecs = []workloadSpec{
	{name: "lib-read", kind: stackLib, stream: streamLibRead, noAccounts: true},
	{name: "lib-contend", kind: stackLib, stream: streamLibContend},
	// 512 submitters: the 1 ms tick only coalesces what is in flight. 64 in
	// flight is tick-bound at ~49k txn/s, 512 is CPU-bound on two cores,
	// more only adds noise.
	{name: "svc-saturate", kind: stackSvc, stream: streamService, clients: 512},
	{name: "stack-repl", kind: stackRepl, stream: streamService},
}

func specByName(name string) (workloadSpec, bool) {
	for _, s := range workloadSpecs {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

// check is one output check's verdict.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is one workload run.
type result struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	FailShare float64            `json:"fail_share"`
	Checks    []check            `json:"checks"`
	Windows   []windowStat       `json:"windows"`
	Raw       map[string]float64 `json:"-"`
	Metrics   map[string]value   `json:"metrics"`

	spans []span // workload spans of a traced run (ring contents)
}

// tally is one client's counts; clients keep it local and hand it back
// when they stop.
type tally struct {
	calls      uint64 // made, any phase: warm-up, measured interval, drain
	errs       uint64 // of those, returned an error
	violations uint64 // of those, a get of a val == key key returned another value
}

// windowStat is one window of the measured interval as result.json shows
// it: a neighbour's episode on a shared box is a run of slow windows.
type windowStat struct {
	N     uint64  `json:"n"`
	P50ns float64 `json:"p50_ns"`
	P99ns float64 `json:"p99_ns"`
}

// phase is the shared clock of one run: clients decide from timestamps
// alone which phase a call belongs to, so no flag flips under them.
type phase struct {
	rec  *recorder
	stop atomic.Bool
	// rings is non-nil in a traced run. Span recording is then on in the
	// odd windows and off in the even ones, so bench.trace_overhead_share
	// compares interleaved halves and a drift over the run cancels.
	rings []spanRing
}

const workloadSpanRing = 1 << 13 // spans kept per recording slot

func runWorkload(spec workloadSpec, cfg config) (*result, error) {
	res := &result{Workload: spec.name, Trace: cfg.trace, Raw: map[string]float64{}}
	fail := func(name, format string, a ...any) {
		res.Checks = append(res.Checks, check{Name: name, Detail: fmt.Sprintf(format, a...)})
	}
	pass := func(name string) { res.Checks = append(res.Checks, check{Name: name, OK: true}) }

	// Set-up, cfg.setups times; the last one is kept. The previous
	// workload's stores are gone and collected before the sampler starts,
	// so peaks do not leak between workloads.
	settleHeap()
	heap := startHeapSampler()
	defer heap.close()
	var st *stack
	defer func() { st.close() }()
	var setupTimes []float64
	setUp := func() error {
		if st != nil {
			st.close()
			st = nil
			settleHeap()
		}
		t0 := time.Now()
		var err error
		st, err = buildStack(spec.kind, cfg.ks)
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		return err
	}
	for i := 0; i < cfg.setups; i++ {
		if err := setUp(); err != nil {
			return nil, err
		}
	}

	var sumBefore uint64
	if !spec.noAccounts {
		var err error
		if sumBefore, err = st.accountSum(); err != nil {
			return nil, err
		}
	}

	nclients := spec.clients
	if nclients == 0 {
		nclients = clientCount()
	}
	windows := int(cfg.measure / cfg.window)
	if windows < 1 {
		windows = 1
	}
	interval := time.Duration(windows) * cfg.window
	start := time.Now().Add(cfg.warmup)
	ph := &phase{rec: newRecorder(nclients, start, cfg.window, windows)}
	if cfg.trace {
		ph.rings = make([]spanRing, len(ph.rec.slots))
		for i := range ph.rings {
			ph.rings[i].buf = make([]span, workloadSpanRing)
		}
	}

	tallies := make([]tally, nclients)
	var wg sync.WaitGroup
	clientErr := make(chan error, nclients+1) // one slot per goroutine that can fail to start
	for i := 0; i < nclients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			do, err := st.newClient()
			if err != nil {
				clientErr <- err
				return
			}
			gen := newGenerator(spec.stream, cfg.ks, cfg.seed, uint64(id))
			tallies[id] = ph.client(id, do, gen, spec.noAccounts, cfg.injectLostCredit && id == 0)
		}(i)
	}
	var probe *prober
	if spec.kind == stackRepl {
		probe = &prober{st: st, ph: ph}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := probe.run(); err != nil {
				clientErr <- err
			}
		}()
	}

	time.Sleep(time.Until(start))
	var gauges *gaugeSampler
	if cfg.trace {
		gauges = st.startGaugeSampler()
	}
	before := st.snapshot()
	time.Sleep(time.Until(start.Add(interval)))
	after := st.snapshot()
	ph.stop.Store(true)
	wg.Wait()
	res.Raw["heap_peak_mb"] = heap.close()
	select {
	case err := <-clientErr:
		return nil, fmt.Errorf("benchmark: %s client: %w", spec.name, err)
	default:
	}

	var sum tally
	for _, t := range tallies {
		sum.calls += t.calls
		sum.errs += t.errs
		sum.violations += t.violations
	}
	if probe != nil {
		sum.calls += probe.calls
		sum.errs += probe.errs
	}
	// Timing is read with tracing off: a traced run records spans in its
	// odd windows only, and these numbers come from the even ones.
	ws := ph.rec.perWindow()
	var plainWs []*counts
	all, plain := new(counts), new(counts)
	for i, w := range ws {
		all.merge(w)
		if !cfg.trace || i&1 == 0 {
			plain.merge(w)
			plainWs = append(plainWs, w)
		}
		res.Windows = append(res.Windows, windowStat{N: w.n, P50ns: w.quantile(0.5), P99ns: w.quantile(0.99)})
	}
	plainPerSec := float64(plain.n) / (float64(len(plainWs)) * cfg.window.Seconds())
	res.Raw["bench.txn_per_s"] = plainPerSec
	res.Raw["bench.lat_p50_ms"] = plain.quantile(0.5) / 1e6
	res.Raw["bench.lat_p99_ms"] = windowedP99(plainWs) / 1e6
	res.Raw["runtime.allocs_per_txn"] = share(after.mem.Mallocs-before.mem.Mallocs, all.n)

	// Output checks. A failed end-of-run check counts as one more attempted
	// and failed thing, so failed never exceeds attempted.
	if sum.errs > 0 {
		fail("no-errors", "%d calls returned an error", sum.errs)
	} else {
		pass("no-errors")
	}
	if sum.violations > 0 {
		fail("get-returns-key", "%d transactions read a val == key key and got another value", sum.violations)
	} else {
		pass("get-returns-key")
	}
	var checks, failedChecks uint64
	if spec.kind == stackRepl {
		checks++
		if err := st.quiesce(10 * time.Second); err != nil {
			fail("replica-equals-leader", "%v", err)
			failedChecks++
		} else if n, ex := st.replicaDiff(); n > 0 {
			fail("replica-equals-leader", "%d keys differ, e.g. %s", n, ex)
			failedChecks++
		} else {
			pass("replica-equals-leader")
		}
	}
	if !spec.noAccounts {
		checks++
		sumAfter, err := st.accountSum()
		switch {
		case err != nil:
			return nil, err
		case sumAfter != sumBefore:
			fail("accounts-conserved", "sum of %d accounts was %d before warm-up, %d after", cfg.ks.accounts(), sumBefore, sumAfter)
			failedChecks++
		default:
			pass("accounts-conserved")
		}
	}

	checks++
	if all.n == 0 { // a run that measured nothing is a failed run
		fail("measured-something", "no call returned without error inside the measured interval")
		failedChecks++
	}
	// One population for both: every call of every phase (a call that
	// errored cannot also violate: its results are not read) and every
	// end-of-run check.
	res.Attempted = sum.calls + checks
	res.Failed = sum.errs + sum.violations + failedChecks
	res.FailShare = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0

	if cfg.trace {
		res.Raw["bench.trace_overhead_share"] = 0
		if tracedWs := len(ws) - len(plainWs); tracedWs > 0 && plainPerSec > 0 {
			tracedPerSec := float64(all.n-plain.n) / (float64(tracedWs) * cfg.window.Seconds())
			res.Raw["bench.trace_overhead_share"] = 1 - tracedPerSec/plainPerSec
		}
		for k, v := range counterMetrics(before, after, all.n, interval.Seconds()) {
			res.Raw[k] = v
		}
		for k, v := range gauges.close() {
			res.Raw[k] = v
		}
		for k, v := range probe.metrics() {
			res.Raw[k] = v
		}
		for i := range ph.rings {
			res.spans = append(res.spans, ph.rings[i].spans()...)
		}
	}
	if !cfg.trace {
		res.Raw["setup_s"] = median(setupTimes)
	}
	// Besides the end-to-end metrics an untraced run reports the per-layer
	// ones it measures anyway: the timing a traced run reads off half as
	// many windows.
	res.Metrics = fill(append(append([]metricDecl(nil), endToEnd...), perLayer...), res.Raw, all.n)
	return res, nil
}

// client is one closed-loop caller. Everything between two timed calls —
// generating the next transaction, checking the last one's results — is
// the caller's own think time: it lowers txn_per_s a little on lib-* and
// is outside every latency sample.
func (ph *phase) client(id int, do doFunc, gen *generator, checkAll, inject bool) tally {
	var t tally
	ops := make([]kv.Op, 0, 16)
	res := make([]kv.Result, 16)
	epoch := ph.rec.start
	var ring *spanRing
	if ph.rings != nil {
		ring = &ph.rings[id%len(ph.rings)]
	}
	for seq := uint32(0); !ph.stop.Load(); seq++ {
		ops = gen.next(ops)
		if inject && len(ops) == 2 && ops[0].Kind == kv.OpAdd {
			ops, inject = ops[:1], false
		}
		r := res[:len(ops)]
		t0 := time.Now()
		err := do(ops, r)
		t1 := time.Now()
		t.calls++
		if err != nil {
			t.errs++
			continue
		}
		if w := ph.rec.windowOf(t1); w >= 0 {
			ph.rec.add(id, w, t1.Sub(t0))
			if ring != nil && w&1 == 1 {
				ring.add(span{seq: seq, start: int64(t0.Sub(epoch)), end: int64(t1.Sub(epoch))})
			}
		}
		for i := range ops {
			if ops[i].Kind == kv.OpGet && r[i].Ok && r[i].Val != ops[i].Key &&
				(checkAll || !gen.ks.isAccount(ops[i].Key)) {
				t.violations++
				break
			}
		}
	}
	return t
}

// prober measures how long a write acknowledged by the leader takes to
// become readable on the follower. It is paced (≤ 20 probes/s) so it is
// one mostly idle extra connection, not a third client.
type prober struct {
	st      *stack
	ph      *phase
	visible []float64 // ms, leader ack → return of the first follower read that sees the value
	readRTT []float64 // ms, every follower read
	calls   uint64    // puts and reads, any phase
	errs    uint64
}

const probeEvery = 50 * time.Millisecond

func (p *prober) run() error {
	lead, err := p.st.driver.NewSession()
	if err != nil {
		return err
	}
	fol, err := p.st.fdriver.NewSession()
	if err != nil {
		return err
	}
	key := p.st.ks.probeKey()
	res := make([]kv.Result, 1)
	next := time.Now()
	for seq := uint64(1); !p.ph.stop.Load(); seq++ {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		next = next.Add(probeEvery)
		p.calls++
		if err := lead.Do([]kv.Op{{Kind: kv.OpPut, Key: key, Val: seq}}, res); err != nil {
			p.errs++
			continue
		}
		ack := time.Now()
		for !p.ph.stop.Load() {
			t0 := time.Now()
			err := fol.Do([]kv.Op{{Kind: kv.OpGet, Key: key}}, res)
			t1 := time.Now()
			p.calls++
			if err != nil {
				p.errs++
				break
			}
			in := p.ph.rec.windowOf(t1) >= 0
			if in {
				p.readRTT = append(p.readRTT, t1.Sub(t0).Seconds()*1e3)
			}
			if res[0].Ok && res[0].Val >= seq {
				if in {
					p.visible = append(p.visible, t1.Sub(ack).Seconds()*1e3)
				}
				break
			}
		}
	}
	return nil
}

// metrics reports the prober's per-layer metrics; a nil prober (every
// workload but stack-repl) reports zeros.
func (p *prober) metrics() map[string]float64 {
	var visible, rtt []float64
	if p != nil {
		visible, rtt = p.visible, p.readRTT
	}
	return map[string]float64{
		"replica.visible_p50_ms":  quantileOf(visible, 0.5),
		"replica.visible_p90_ms":  quantileOf(visible, 0.9),
		"replica.read_rtt_p50_ms": quantileOf(rtt, 0.5),
	}
}
