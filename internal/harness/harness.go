// Package harness is the workload engine behind cmd/medley-bench. The
// paper's evaluation (Section 6) — the microbenchmark of Figures 7, 8 and
// 10 (1M key space, 0.5M preload, transactions of 1-10 uniform-random
// operations at three get:insert:remove ratios) and the TPC-C subset of
// Figure 9 — is rows of one scenario table (scenario.go: Figures names the
// rows and systems of each plot), beside the scenarios that go beyond it:
// key-distribution generators (generator.go), transaction mixes with
// multi-key compositions and working-set phases (scenario.go), one
// sender loop with per-sender statistics and latency reservoirs behind
// every runner (sender.go), a phase-scripted measurement engine
// (engine.go), crash–recovery verification of the
// paper's durability claim (verify.go, the Recoverable capability in
// systems.go), and machine-readable reports with a CI-pinned schema
// (report.go, schema.go), over every system under test: the stack's own
// store (internal/store, named here by alias) and the competitor STMs
// adapted in systems.go.
package harness

import (
	"math/rand"
	"strconv"

	"medley/internal/kv"
	"medley/internal/obs"
	"medley/internal/store"
)

// The stack's own types under the names this package's callers use,
// benchmark/ among them. This package measures the stack; it does not
// define it.
type (
	// Op and OpKind are the kv batch request types: generators, executors
	// and drivers all speak one op type, so nothing is translated at the
	// seam. The paper's names for the kinds are kept as aliases below.
	OpKind = kv.OpKind
	Op     = kv.Op
	// DriverSession executes batch requests for one sender goroutine.
	DriverSession = kv.Session

	// KVSystem is the store medleyd serves: Medley, Original, TxOff.
	KVSystem   = store.System
	SystemOpts = store.Opts

	// Metric is one named cumulative counter and Gauge one named derived
	// ratio (internal/obs): their JSON shape is the report's telemetry
	// block and medleyd's /metrics alike.
	Metric = obs.Metric
	Gauge  = obs.Gauge
	// MetricsSnapshotter is the capability of exporting cumulative engine
	// counters; the service probes its backend for the same one.
	MetricsSnapshotter = obs.MetricsSnapshotter
)

// Operation kinds: the paper's get:insert:remove mixes plus bounded
// range scans (the range-scan scenario). OpRange scans up to Val entries
// through the structure's native (non-linearizable) Range iteration; Key
// is unused. Scans ride along inside transactions but are not part of the
// read set.
const (
	OpGet    = kv.OpGet
	OpInsert = kv.OpPut
	OpRemove = kv.OpDelete
	OpRange  = kv.OpScan
)

// System is one concurrency-control system under the microbenchmark.
type System interface {
	Name() string
	// Preload inserts the initial key-value pairs (non-transactionally or
	// in bulk transactions, system's choice).
	Preload(keys []uint64)
	// Start launches any background machinery (epoch advancers, index
	// maintenance) and returns a stop function.
	Start() (stop func())
	// NewExecutor hands out an executor for one goroutine: ExecBatch runs
	// ops as one atomic transaction, retrying conflict aborts internally
	// until commit. It is the only way a transaction runs here, in the
	// engine and the in-process driver alike.
	NewExecutor() kv.Executor
}

// Ratio is a get:insert:remove mix. The paper uses 0:1:1, 2:1:1 and 18:1:1.
type Ratio struct {
	Get, Insert, Remove int
}

func (r Ratio) String() string {
	return strconv.Itoa(r.Get) + ":" + strconv.Itoa(r.Insert) + ":" + strconv.Itoa(r.Remove)
}

func pickKind(r *rand.Rand, ratio Ratio) OpKind {
	total := ratio.Get + ratio.Insert + ratio.Remove
	x := r.Intn(total)
	if x < ratio.Get {
		return OpGet
	}
	if x < ratio.Get+ratio.Insert {
		return OpInsert
	}
	return OpRemove
}
