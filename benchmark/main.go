// Command benchmark is the repo's one benchmark: four closed-loop
// workloads from kv.Executor.ExecBatch up to a replicated HTTP client,
// and a layer ladder that prices every rung between core.Tx.End and that
// client. It measures every layer from outside, through public functions
// and public counter snapshots. See README.md in this directory.
//
//	go run ./benchmark -seed 1                 all workloads, end-to-end metrics and the clients' timing
//	go run ./benchmark -seed 1 -trace 1        ... plus traced passes and the ladder
//	go run ./benchmark -workload lib-read -seed 1 -seconds 20 -trace 0
//	go run ./benchmark -repeat 3               spread of every metric over 3 runs
//
// The last line of standard output of a single-workload run is one JSON
// object {correct, attempted, failed, metrics} (the BENCHMARK.json
// contract).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type options struct {
	seed     uint64
	workload string
	seconds  int
	trace    bool
	repeat   int
	smoke    bool
	inject   bool
	out      string
}

func main() {
	var o options
	var trace int
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated op stream")
	flag.StringVar(&o.workload, "workload", "all", "workload to run: all, lib-read, lib-contend, svc-saturate, stack-repl")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds per workload; the unmeasured warm-up before them is a fifth of that, at most 5 s")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced passes and the layer ladder (per-layer metrics); a single -workload then runs only those")
	flag.IntVar(&o.repeat, "repeat", 1, "run the whole set this many times and report min/median/max/relative IQR per metric")
	flag.BoolVar(&o.smoke, "smoke", false, "under 1 s per workload pass and a short ladder: checks the plumbing, measures nothing")
	flag.BoolVar(&o.inject, "inject-lost-credit", false, "drop one transfer's credit leg client-side; the run must exit non-zero")
	flag.StringVar(&o.out, "out", "benchmark/out", "directory for result.json and trace.jsonl")
	flag.Parse()
	if flag.NArg() > 0 || trace < 0 || trace > 1 || o.seconds < 1 || o.repeat < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	o.trace = trace == 1
	if _, ok := specByName(o.workload); !ok && o.workload != "all" {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	// Every committed BENCH_*.json ran at gomaxprocs 1; this one refuses to.
	if runtime.GOMAXPROCS(0) == 1 && runtime.NumCPU() > 1 {
		fmt.Fprintf(os.Stderr, "benchmark: GOMAXPROCS=1 on a %d-CPU machine; unset it\n", runtime.NumCPU())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(clientCount())

	ok, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// env is what every result JSON carries about where it was measured.
type env struct {
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
}

// gitCommit is set by run.sh's -ldflags; go run leaves it to the build
// info's VCS stamp.
var gitCommit string

func currentEnv() env {
	e := env{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GitCommit: "unknown"}
	if gitCommit != "" {
		e.GitCommit = gitCommit
	} else if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.GitCommit = s.Value
			}
		}
	}
	return e
}

// report is benchmark/out/result.json.
type report struct {
	env
	Seed        uint64           `json:"seed"`
	Seconds     int              `json:"seconds"`
	Smoke       bool             `json:"smoke,omitempty"`
	Untraced    []*result        `json:"untraced,omitempty"`
	Traced      []*result        `json:"traced,omitempty"`
	Ladder      map[string]value `json:"ladder,omitempty"`
	Predictions []check          `json:"predictions,omitempty"`
}

// results lists every workload run of the report, untraced first.
func (rep *report) results() []*result {
	return append(append([]*result(nil), rep.Untraced...), rep.Traced...)
}

// contractLine is the last line of a single-workload run's stdout.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted uint64                   `json:"attempted"`
	Failed    uint64                   `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o options) config(trace bool) (config, ladderSize) {
	c := config{
		seed:             o.seed,
		ks:               fullKeys,
		measure:          time.Duration(o.seconds) * time.Second,
		window:           time.Second,
		setups:           3,
		trace:            trace,
		injectLostCredit: o.inject,
	}
	if c.warmup = c.measure / 5; c.warmup > 5*time.Second {
		c.warmup = 5 * time.Second
	}
	if trace {
		c.setups = 1 // a traced run does not report setup_s
		if o.workload != "all" {
			// A single-workload traced run also replays the ladder;
			// halving the interval keeps it as long as an untraced run.
			c.measure /= 2
		}
	}
	size := fullLadder
	if o.smoke {
		c.ks = smokeKeys
		c.warmup, c.measure, c.window = 100*time.Millisecond, 400*time.Millisecond, 50*time.Millisecond
		c.setups = 1
		size = smokeLadder
	}
	return c, size
}

// run executes what o asks for and reports whether every output check
// passed (and, with -repeat, every spread stayed within its bound).
func run(o options, w io.Writer) (bool, error) {
	if s, ok := specByName(o.workload); ok && o.inject && s.noAccounts {
		return false, fmt.Errorf("benchmark: -inject-lost-credit needs a workload that transfers; %s has no accounts", s.name)
	}
	if o.repeat > 1 {
		return runRepeat(o, w)
	}
	rep, err := runSet(o, w)
	if err != nil {
		return false, err
	}
	if err := writeJSON(filepath.Join(o.out, "result.json"), rep); err != nil {
		return false, err
	}
	ok := true
	for _, r := range rep.results() {
		ok = ok && r.Correct
	}
	if o.workload != "all" {
		// The contract line: end-to-end metrics untraced, per-layer traced.
		r, decls := rep.results()[0], endToEnd
		if r.Trace {
			decls = perLayer
		}
		line := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]contractValue{}}
		for _, d := range decls {
			line.Metrics[d.Name] = contractValue{Value: r.Metrics[d.Name].Value, Unit: d.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(w, "%s\n", b)
	}
	return ok, nil
}

// runSet runs the selected workloads once: untraced for the end-to-end
// metrics and the clients' timing, and with -trace the traced passes plus
// one ladder replay for the per-layer ones. A single traced workload skips the untraced pass.
func runSet(o options, w io.Writer) (*report, error) {
	rep := &report{env: currentEnv(), Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke}
	specs := workloadSpecs
	if s, ok := specByName(o.workload); ok {
		specs = []workloadSpec{s}
	}
	cfg, _ := o.config(false)
	fmt.Fprintf(w, "benchmark: seed %d, %d keys, %v warm-up + %v measured per workload, numcpu %d, gomaxprocs %d, %s, commit %s\n",
		o.seed, cfg.ks.keys(), cfg.warmup, cfg.measure, rep.NumCPU, rep.GOMAXPROCS, rep.GoVersion, rep.GitCommit)

	if !o.trace || o.workload == "all" {
		for _, s := range specs {
			r, err := runWorkload(s, cfg)
			if err != nil {
				return nil, err
			}
			rep.Untraced = append(rep.Untraced, r)
			printResult(w, r)
		}
	}
	if !o.trace {
		return rep, nil
	}

	cfg, size := o.config(true)
	tr := &tracer{}
	for _, s := range specs {
		r, err := runWorkload(s, cfg)
		if err != nil {
			return nil, err
		}
		id := tr.rung(s.name, "")
		for _, sp := range r.spans {
			sp.rung = id
			tr.spans = append(tr.spans, sp)
		}
		r.spans = nil
		rep.Traced = append(rep.Traced, r)
	}
	settleHeap()
	lad, err := runLadder(o.seed, cfg.ks, size, tr)
	if err != nil {
		return nil, err
	}
	ladder := lad.metrics()
	rep.Ladder = fill(perLayer, ladder, uint64(size.slow))
	for _, r := range rep.Traced {
		for k, v := range ladder {
			r.Raw[k] = v
		}
		r.Metrics = fill(perLayer, r.Raw, r.Attempted)
		printResult(w, r)
	}
	if err := tr.write(filepath.Join(o.out, "trace.jsonl")); err != nil {
		return nil, err
	}
	if o.workload == "all" {
		rep.Predictions = predictions(rep)
		for _, c := range rep.Predictions {
			verdict := "holds"
			if !c.OK {
				verdict = "DOES NOT HOLD"
			}
			fmt.Fprintf(w, "prediction %s: %s — %s\n", verdict, c.Name, c.Detail)
		}
	}
	return rep, nil
}

func printResult(w io.Writer, r *result) {
	kind := "untraced"
	if r.Trace {
		kind = "traced"
	}
	fmt.Fprintf(w, "\n%s  %s  attempted %d  failed %d  fail_share %g\n", r.Workload, kind, r.Attempted, r.Failed, r.FailShare)
	for _, decls := range [][]metricDecl{endToEnd, perLayer} {
		for _, d := range decls {
			if v, ok := r.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "  %-34s %16.6g %-6s (%s is better)\n", d.Name, v.Value, v.Unit, d.Better)
			}
		}
	}
	for _, c := range r.Checks {
		if !c.OK {
			fmt.Fprintf(w, "  CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
}

// predictions evaluates what README.md says the counters must show if
// the workloads discriminate between layers, plus the ladder's closure.
func predictions(rep *report) []check {
	byName := map[string]*result{}
	for _, r := range rep.Traced {
		byName[r.Workload] = r
	}
	var out []check

	silent, detail := true, "service.*, cdc.* and replica.* counters are all zero on lib-read and lib-contend"
	for _, wl := range []string{"lib-read", "lib-contend"} {
		for _, d := range perLayer {
			layer, _, _ := strings.Cut(d.Name, ".")
			if layer != "service" && layer != "cdc" && layer != "replica" {
				continue
			}
			if _, fromLadder := rep.Ladder[d.Name]; fromLadder {
				continue
			}
			if v := byName[wl].Raw[d.Name]; v != 0 {
				silent, detail = false, fmt.Sprintf("%s is %g on %s", d.Name, v, wl)
			}
		}
	}
	out = append(out, check{Name: "library workloads never enter service, cdc or replica", OK: silent, Detail: detail})

	sat, repl := byName["svc-saturate"].Raw["service.txn_per_tick"], byName["stack-repl"].Raw["service.txn_per_tick"]
	out = append(out, check{
		Name:   "the tick coalesces ≥ 20× more on svc-saturate than on stack-repl",
		OK:     repl > 0 && sat >= 20*repl,
		Detail: fmt.Sprintf("service.txn_per_tick %.4g vs %.4g", sat, repl),
	})

	sumShare := rep.Ladder["ladder.self_sum_share"].Value
	out = append(out, check{
		Name:   "ladder self times r1…r9 sum to the r9 median within 10%",
		OK:     sumShare > 0.9 && sumShare < 1.1,
		Detail: fmt.Sprintf("sum ÷ r9 median = %.4g", sumShare),
	})
	var p50 float64
	for _, r := range rep.Untraced {
		if r.Workload == "stack-repl" {
			p50 = r.Raw["bench.lat_p50_ms"] * 1e3
		}
	}
	top := rep.Ladder["ladder.top_rung_p50_us"].Value
	out = append(out, check{
		Name:   "r9 median is within 15% of stack-repl's untraced bench.lat_p50_ms",
		OK:     p50 > 0 && top > 0.85*p50 && top < 1.15*p50,
		Detail: fmt.Sprintf("r9 %.4g us vs lat_p50 %.4g us", top, p50),
	})
	return out
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// quartiles returns Q1, Q2, Q3 exactly as Python's
// statistics.quantiles(v, n=4) does (the default "exclusive" method,
// extrapolating at the ends): the contract's spread is (Q3 − Q1) ÷ median
// of these. len(v) must be at least 2.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		} else if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// runRepeat runs the set o.repeat times and prints, per metric ×
// workload, min / median / max / relative IQR; an end-to-end metric
// other than setup_s whose relative IQR exceeds its declared bound fails
// the run.
func runRepeat(o options, w io.Writer) (bool, error) {
	type key struct{ workload, metric string }
	vals := map[key][]float64{}
	ok := true
	for i := 0; i < o.repeat; i++ {
		fmt.Fprintf(w, "\n=== repeat %d of %d ===\n", i+1, o.repeat)
		rep, err := runSet(o, w)
		if err != nil {
			return false, err
		}
		// A metric both passes measured is taken from the untraced one.
		seen := map[key]bool{}
		for _, r := range rep.results() {
			ok = ok && r.Correct
			for name, v := range r.Metrics {
				if k := (key{r.Workload, name}); !seen[k] || !r.Trace {
					seen[k] = true
					vals[k] = append(vals[k], v.Value)
				}
			}
		}
		if err := writeJSON(filepath.Join(o.out, "result.json"), rep); err != nil {
			return false, err
		}
	}
	e := currentEnv()
	fmt.Fprintf(w, "\n%d runs, seed %d, %d s measured, numcpu %d, gomaxprocs %d, %s, commit %s\n\n",
		o.repeat, o.seed, o.seconds, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.GitCommit)
	fmt.Fprintln(w, "| workload | metric | unit | min | median | max | rel IQR | bound |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	for _, decls := range [][]metricDecl{endToEnd, perLayer} {
		for _, s := range workloadSpecs {
			for _, d := range decls {
				v := vals[key{s.name, d.Name}]
				if len(v) == 0 {
					continue
				}
				sort.Float64s(v)
				q1, q2, q3 := quartiles(v)
				spread := 0.0
				if q2 != 0 {
					spread = (q3 - q1) / q2
					if spread < 0 {
						spread = -spread
					}
				}
				bound := ""
				if d.Bound > 0 {
					bound = fmt.Sprintf("%.2f", d.Bound)
					// The driver's rule: every spread stays within its bound
					// except setup_s's, which the contract exempts (only its
					// median has to hold) while requiring it end-to-end.
					if d.Name == "setup_s" {
						bound += " (spread exempt)"
					} else if spread > d.Bound {
						bound += " EXCEEDED"
						ok = false
					}
				}
				fmt.Fprintf(w, "| %s | %s | %s | %.5g | %.5g | %.5g | %.4f | %s |\n",
					s.name, d.Name, d.Unit, v[0], q2, v[len(v)-1], spread, bound)
			}
		}
	}
	return ok, nil
}
