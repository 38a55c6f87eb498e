package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"medley/internal/kv"
)

// streamBytes serializes n generated transactions, so "the same stream"
// means byte-identical.
func streamBytes(kind string, seed, client uint64, n int) []byte {
	g := newGenerator(kind, fullKeys, seed, client)
	var buf bytes.Buffer
	ops := g.next(nil)
	for i := 0; i < n; i++ {
		ops = g.next(ops)
		buf.WriteByte(byte(len(ops)))
		for _, op := range ops {
			buf.WriteByte(byte(op.Kind))
			_ = binary.Write(&buf, binary.LittleEndian, [2]uint64{op.Key, op.Val})
		}
	}
	return buf.Bytes()
}

func TestGeneratorIsAFunctionOfItsSeed(t *testing.T) {
	for _, kind := range []string{streamLibRead, streamLibContend, streamService} {
		a, b := streamBytes(kind, 7, 0, 5000), streamBytes(kind, 7, 0, 5000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different streams", kind)
		}
		if bytes.Equal(a, streamBytes(kind, 8, 0, 5000)) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", kind)
		}
		if bytes.Equal(a, streamBytes(kind, 7, 1, 5000)) {
			t.Errorf("%s: clients 0 and 1 gave the same stream", kind)
		}
	}
}

// The output checks lean on these stream properties: only paired,
// opposite OpAdds touch accounts, and every put writes val == key.
func TestStreamsKeepTheCheckedInvariants(t *testing.T) {
	for _, ks := range []keySpace{fullKeys, smokeKeys} {
		testStreamInvariants(t, ks)
	}
}

func testStreamInvariants(t *testing.T, ks keySpace) {
	for _, kind := range []string{streamLibContend, streamService} {
		g := newGenerator(kind, ks, 3, 0)
		ops := g.next(nil)
		for i := 0; i < 20000; i++ {
			ops = g.next(ops)
			if len(ops) == 0 || len(ops) > 10 {
				t.Fatalf("%s: transaction of %d ops", kind, len(ops))
			}
			for j, op := range ops {
				switch op.Kind {
				case kv.OpAdd:
					if len(ops) != 2 || !ks.isAccount(op.Key) || ops[0].Val+ops[1].Val != 0 || ops[0].Key == ops[1].Key {
						t.Fatalf("%s: bad transfer %+v", kind, ops)
					}
				case kv.OpPut:
					if ks.isAccount(op.Key) || op.Val != op.Key {
						t.Fatalf("%s: put %d of txn %+v breaks val == key on a non-account key", kind, j, ops)
					}
				case kv.OpDelete:
					if ks.isAccount(op.Key) {
						t.Fatalf("%s: delete of account %d", kind, op.Key)
					}
				}
				if op.Key >= ks.keys() {
					t.Fatalf("%s: key %d outside the key space", kind, op.Key)
				}
			}
		}
	}
}

func TestZipfIsSkewedAndInRange(t *testing.T) {
	z := newZipf(zipfTheta, 1<<10)
	r := newRNG(1, 1)
	var hits [1<<10 + 1]int
	const n = 200000
	for i := 0; i < n; i++ {
		k := z.rank(&r)
		if k < 1 || k > 1<<10 {
			t.Fatalf("rank %d out of [1, 1024]", k)
		}
		hits[k]++
	}
	// P(1)/P(2) = 2^1.2 ≈ 2.30.
	if ratio := float64(hits[1]) / float64(hits[2]); ratio < 2.1 || ratio > 2.5 {
		t.Errorf("P(1)/P(2) = %.3f, want ≈ 2.30", ratio)
	}
}

func histOf(samples ...uint64) *counts {
	var h hist
	for _, s := range samples {
		h[bucketOf(s)].Add(1)
	}
	c := new(counts)
	c.add(&h)
	return c
}

// ramp returns n samples 1·step … n·step ns.
func ramp(n int, step uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i+1) * step
	}
	return out
}

func near(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*want {
		t.Errorf("%s = %g, want %g ± %g%%", what, got, want, tol*100)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	c := histOf(ramp(1000, 1000)...) // 1 µs … 1 ms
	near(t, "p50", c.quantile(0.5), 500e3, 0.02)
	near(t, "p99", c.quantile(0.99), 990e3, 0.02)
	for _, ns := range []uint64{0, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, 1<<40 + 12345} {
		lo, hi := bucketBounds(bucketOf(ns))
		if float64(ns) < lo || float64(ns) >= hi {
			t.Errorf("%d ns filed under bucket [%g, %g)", ns, lo, hi)
		}
	}
}

func TestWindowedP99(t *testing.T) {
	// Seven calm windows and one scheduler hiccup: the hiccup owns the
	// pooled p99 of everything, and moves the median of window p99s not at
	// all.
	calm := func() *counts { return histOf(ramp(2000, 500)...) } // 0.5 µs … 1 ms
	hiccup := histOf(append(ramp(1000, 500), ramp(1000, 50000)...)...)
	ws := []*counts{calm(), calm(), hiccup, calm(), calm(), calm(), calm(), calm()}
	near(t, "windowed p99", windowedP99(ws), 990e3, 0.02)
	all := new(counts)
	for _, w := range ws {
		all.merge(w)
	}
	if pooled := all.quantile(0.99); pooled < 5e6 {
		t.Errorf("pooled p99 = %g ns: the hiccup is too mild to tell the definitions apart", pooled)
	}

	// A window is widened until it holds 1000 samples: four windows of 400
	// make one of 1200 and a remainder of 400 that is left out.
	fast, slow := histOf(ramp(400, 100)...), histOf(ramp(400, 1000)...)
	near(t, "widened p99", windowedP99([]*counts{fast, fast, slow, slow}), 388e3, 0.03)
	// Fewer than 1000 samples in the whole run: the p99 of what there is.
	near(t, "short-run p99", windowedP99([]*counts{fast, fast}), 39.6e3, 0.03)
	if got := windowedP99(nil); got != 0 {
		t.Errorf("no windows: p99 = %g, want 0", got)
	}
}

func TestRecorderDropsSamplesOutsideTheInterval(t *testing.T) {
	start := time.Now()
	r := newRecorder(2, start, time.Second, 3)
	for _, off := range []time.Duration{-time.Millisecond, 0, 2999 * time.Millisecond, 3 * time.Second} {
		if w := r.windowOf(start.Add(off)); w >= 0 {
			r.add(0, w, time.Microsecond)
		}
	}
	var n uint64
	for _, w := range r.perWindow() {
		n += w.n
	}
	if n != 2 {
		t.Errorf("recorded %d samples, want the 2 inside [0s, 3s)", n)
	}
}

func TestPairedSelfTime(t *testing.T) {
	// The lower rung is noisy from transaction to transaction (1–100 µs);
	// the upper rung adds 7 µs to each, except a few outliers. Pairing
	// recovers the 7 µs exactly; a difference of medians would not have
	// to.
	lower, upper := make([]int64, 1001), make([]int64, 1001)
	for i := range lower {
		lower[i] = int64(1000 + (i*7919)%100000)
		upper[i] = lower[i] + 7000
		if i%100 == 0 {
			upper[i] += 1e6
		}
	}
	if got := pairedSelf(upper, lower); got != 7000 {
		t.Errorf("paired self time = %g ns, want 7000", got)
	}
	// Slow rungs replay only a prefix: pairing uses the common prefix.
	if got := pairedSelf(upper[:100], lower); got != 7000 {
		t.Errorf("prefix-paired self time = %g ns, want 7000", got)
	}
}

func TestLadderMetricsAddUp(t *testing.T) {
	// Rung k takes (k+1)·10 µs on every transaction: r1's own 20 µs plus
	// eight self times of 10 µs sum to r9's 100 µs.
	l := &ladderRun{dur: make([][]int64, len(rungs)), allocs: make([]float64, len(rungs))}
	for k := range l.dur {
		n := 50
		if rungs[k].slow {
			n = 10
		}
		l.dur[k] = make([]int64, n)
		for i := range l.dur[k] {
			l.dur[k][i] = int64(k+1) * 10000
		}
		l.allocs[k] = float64(k)
	}
	m := l.metrics()
	near(t, "kv.sharded_self_us", m["kv.sharded_self_us"], 10, 1e-9)
	near(t, "service.http_self_us", m["service.http_self_us"], 10, 1e-9)
	near(t, "structures.mhash_txn_us", m["structures.mhash_txn_us"], 20, 1e-9)
	near(t, "ladder.top_rung_p50_us", m["ladder.top_rung_p50_us"], 100, 1e-9)
	near(t, "ladder.self_sum_share", m["ladder.self_sum_share"], 1, 1e-9)
	near(t, "service.handler_allocs_per_txn", m["service.handler_allocs_per_txn"], 1, 1e-9)
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %g %g %g, want 1 2 4", q1, q2, q3)
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if !reflect.DeepEqual(bj.Workloads, workloadDecls) {
		t.Errorf("workloads differ:\n json %+v\n code %+v", bj.Workloads, workloadDecls)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", bj.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", bj.Paths)
	}
	if len(workloadDecls) != len(workloadSpecs) {
		t.Fatalf("%d declared workloads, %d runnable", len(workloadDecls), len(workloadSpecs))
	}
	for i, d := range workloadDecls {
		if workloadSpecs[i].name != d.Name {
			t.Errorf("workload %d: declared %q, runnable %q", i, d.Name, workloadSpecs[i].name)
		}
		if len(d.Why) > 200 || strings.Contains(d.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", d.Name, len(d.Why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	// The driver makes 4 + 22 × workloads runs and all must end within
	// 3420 s; leave a third of that for set-up, warm-up, checks and builds.
	if runs := 4 + 22*len(bj.Workloads); float64(runs*bj.RunSeconds) > 3420*2/3 {
		t.Errorf("%d runs × %d s measured leaves too little of 3420 s", runs, bj.RunSeconds)
	}
}

func names(decls []metricDecl) []string {
	out := make([]string, len(decls))
	for i, d := range decls {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

func keysOf[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmoke is the -smoke pass: every workload untraced and traced plus
// the ladder, on a tiny key space. It checks the plumbing — output checks
// pass, and the result JSON carries exactly the declared metric names, no
// more and no fewer — and asserts nothing about speed.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	var log bytes.Buffer
	ok, err := run(options{seed: 5, workload: "all", seconds: 1, trace: true, repeat: 1, smoke: true, out: out}, &log)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, log.String())
	}
	if !ok {
		t.Fatalf("output checks failed:\n%s", log.String())
	}
	b, err := os.ReadFile(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		NumCPU     int    `json:"numcpu"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
		GitCommit  string `json:"git_commit"`
		Untraced   []struct {
			Workload string           `json:"workload"`
			Metrics  map[string]value `json:"metrics"`
		} `json:"untraced"`
		Traced []struct {
			Workload string           `json:"workload"`
			Metrics  map[string]value `json:"metrics"`
		} `json:"traced"`
		Predictions []check `json:"predictions"`
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.NumCPU == 0 || rep.GOMAXPROCS == 0 || rep.GoVersion == "" || rep.GitCommit == "" {
		t.Errorf("result.json lacks numcpu/gomaxprocs/go_version/git_commit: %+v", rep)
	}
	bj := readBenchmarkJSON(t)
	if len(rep.Untraced) != len(bj.Workloads) || len(rep.Traced) != len(bj.Workloads) {
		t.Fatalf("%d untraced and %d traced results for %d workloads", len(rep.Untraced), len(rep.Traced), len(bj.Workloads))
	}
	for i, wl := range bj.Workloads {
		if rep.Untraced[i].Workload != wl.Name || rep.Traced[i].Workload != wl.Name {
			t.Errorf("result %d is %q/%q, want %q", i, rep.Untraced[i].Workload, rep.Traced[i].Workload, wl.Name)
		}
		// An untraced run prints the end-to-end metrics and the clients' own
		// timing, which needs no tracing.
		untraced := append(names(bj.EndToEnd), "bench.txn_per_s", "bench.lat_p50_ms", "bench.lat_p99_ms", "runtime.allocs_per_txn")
		sort.Strings(untraced)
		if got := keysOf(rep.Untraced[i].Metrics); !reflect.DeepEqual(got, untraced) {
			t.Errorf("%s untraced metrics:\n got  %v\n want %v", wl.Name, got, untraced)
		}
		if got, want := keysOf(rep.Traced[i].Metrics), names(bj.PerLayer); !reflect.DeepEqual(got, want) {
			t.Errorf("%s per-layer metrics:\n got  %v\n want %v", wl.Name, got, want)
		}
		for _, d := range bj.EndToEnd {
			name, v := d.Name, rep.Untraced[i].Metrics[d.Name]
			if v.Value <= 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s %s = %g: end-to-end metrics are never 0", wl.Name, name, v.Value)
			}
		}
	}
	if len(rep.Predictions) == 0 || !rep.Predictions[0].OK {
		t.Errorf("library workloads touched service, cdc or replica counters: %+v", rep.Predictions)
	}
	if fi, err := os.Stat(filepath.Join(out, "trace.jsonl")); err != nil || fi.Size() == 0 {
		t.Errorf("trace.jsonl missing or empty: %v", err)
	}
}

// TestContractLine runs one workload as the driver does and checks the
// last line of standard output, untraced and traced.
func TestContractLine(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, tc := range []struct {
		trace bool
		want  []metricDecl
	}{{false, bj.EndToEnd}, {true, bj.PerLayer}} {
		var log bytes.Buffer
		ok, err := run(options{seed: 6, workload: "svc-saturate", seconds: 1, trace: tc.trace, repeat: 1, smoke: true, out: t.TempDir()}, &log)
		if err != nil || !ok {
			t.Fatalf("trace %v: ok %v, err %v\n%s", tc.trace, ok, err, log.String())
		}
		lines := strings.Split(strings.TrimSpace(log.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
		}
		if got := keysOf(line); !reflect.DeepEqual(got, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Errorf("trace %v: contract line has keys %v", tc.trace, got)
		}
		var metrics map[string]map[string]any
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if got, want := keysOf(metrics), names(tc.want); !reflect.DeepEqual(got, want) {
			t.Errorf("trace %v metrics:\n got  %v\n want %v", tc.trace, got, want)
		}
		for name, m := range metrics {
			if got := keysOf(m); !reflect.DeepEqual(got, []string{"unit", "value"}) {
				t.Errorf("metric %s has keys %v", name, got)
			}
		}
	}
}

// A benchmark whose checks cannot fail checks nothing: dropping one
// credit leg must break conservation and fail the run.
func TestLostCreditFailsTheRun(t *testing.T) {
	var log bytes.Buffer
	ok, err := run(options{seed: 7, workload: "lib-contend", seconds: 1, repeat: 1, smoke: true, inject: true, out: t.TempDir()}, &log)
	if err != nil {
		t.Fatal(err)
	}
	if ok || !strings.Contains(log.String(), "accounts-conserved") {
		t.Errorf("a lost credit went unnoticed:\n%s", log.String())
	}
}

// lib-read never transfers, so there is no credit to lose: asking for one
// is an error, not a run that passes.
func TestLostCreditNeedsAccounts(t *testing.T) {
	var log bytes.Buffer
	ok, err := run(options{seed: 7, workload: "lib-read", seconds: 1, repeat: 1, smoke: true, inject: true, out: t.TempDir()}, &log)
	if ok || err == nil {
		t.Errorf("-inject-lost-credit on lib-read: ok %v, err %v; want an error", ok, err)
	}
}
