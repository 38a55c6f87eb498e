package harness

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"time"

	"medley/internal/core"
	"medley/internal/kv"
	"medley/internal/montage"
	"medley/internal/obs"
	"medley/internal/onefile"
	"medley/internal/store"
	"medley/internal/tpcc"
)

// This file adapts the TPC-C backends to the workload engine. A TPCCSystem
// ignores the engine's generated key mixes: each ExecBatch call runs one
// transaction of the scenario's TPC-C mix (the paper's newOrder+payment
// 1:1 for tpcc-paper, the standard 45/43/4/4/4 for tpcc-full) through a
// per-worker tpcc.Driver, so the engine's phase script, latency
// reservoirs, telemetry snapshots and consistency barriers all apply
// unchanged to a real composed-transaction workload.

// tpccEntry is one base the TPC-C scenarios accept. A Medley base names
// the registry structure its tables are built from and honors @N: tables
// are hash-partitioned over N shards of the kv registry under one
// TxManager, so cross-shard TPC-C transactions (remote stock updates,
// whole-warehouse deliveries) stay strictly serializable. The others are
// Figure 9's competitors over skiplists, single-instance.
type tpccEntry struct {
	name      string // as the registry system of the same spec reports it
	structure string
	mk        func(SystemOpts) tpcc.Backend
}

// tpccBackends is the TPC-C spec table. The rotating skiplist is excluded:
// its background index maintenance needs the KVSystem start path, which
// the TPC-C backend does not run.
var tpccBackends = map[string]tpccEntry{
	"medley-hash": {name: "Medley-hash", structure: "hash"},
	"medley-skip": {name: "Medley-skip", structure: "skip"},
	"medley-bst":  {name: "Medley-bst", structure: "bst"},
	"txmontage-skip": {name: "txMontage-skip", mk: func(o SystemOpts) tpcc.Backend {
		return tpcc.NewMontageBackend(montage.NewSystem(montage.Config{
			RegionWords:      o.MontageRegionWords(),
			WriteBackLatency: o.WriteBackLatency, FenceLatency: o.FenceLatency,
			StoreLatency: o.StoreLatency,
		}))
	}},
	"onefile-skip": {name: "OneFile-skip", mk: func(SystemOpts) tpcc.Backend {
		return tpcc.NewOneFileBackend(onefile.New())
	}},
	"tdsl": {name: "TDSL-skip", mk: func(SystemOpts) tpcc.Backend { return tpcc.NewTDSLBackend() }},
}

// resolveTPCCSpec checks a system spec for the TPC-C scenarios without
// building tables: a tpccBackends base, "@N" on the Medley ones only, no
// ablation suffix (a TPC-C backend builds its own manager).
func resolveTPCCSpec(spec string) (tpccEntry, int, error) {
	s, _, err := systemRegistry.Parse(spec)
	if err != nil {
		return tpccEntry{}, 0, err
	}
	e, ok := tpccBackends[s.Base]
	if !ok || len(s.Off) > 0 || (s.Shards > 1 && e.structure == "") {
		return tpccEntry{}, 0, fmt.Errorf("TPC-C scenarios support systems %s (medley-* optionally @N), not %q",
			strings.Join(slices.Sorted(maps.Keys(tpccBackends)), ", "), spec)
	}
	return e, s.Shards, nil
}

// NewTPCCSystem resolves a -systems spec into a TPC-C benchmark system
// running mix at the given scale. o times and sizes the simulated NVM of
// the txMontage backend, like the registry system of the same spec.
func NewTPCCSystem(spec string, sc tpcc.Scale, mix tpcc.MixWeights, o SystemOpts) (System, error) {
	e, shards, err := resolveTPCCSpec(spec)
	if err != nil {
		return nil, err
	}
	s := &TPCCSystem{name: store.ShardedName(e.name, shards), sc: sc, mix: mix, shards: shards}
	if e.structure != "" {
		if s.backend, err = tpcc.NewKVBackend(e.structure, shards); err != nil {
			return nil, err
		}
	} else {
		s.backend = e.mk(o)
	}
	if m, ok := s.backend.(interface{ Manager() *core.TxManager }); ok {
		s.mgr = m.Manager()
	}
	s.db = tpcc.NewDB(s.backend)
	return s, nil
}

// TPCCSystem runs the TPC-C workload on a tpcc.Backend under the engine.
type TPCCSystem struct {
	name    string
	backend tpcc.Backend
	db      *tpcc.DB        // on backend, built once: Load, Check and every Driver share it
	mgr     *core.TxManager // nil on backends with their own STM (no stats source)
	sc      tpcc.Scale
	mix     tpcc.MixWeights
	shards  int

	mu      sync.Mutex
	seq     int64
	workers []*tpccWorker
}

// Name implements System.
func (s *TPCCSystem) Name() string { return s.name }

// ShardCount implements ShardCounter.
func (s *TPCCSystem) ShardCount() int { return s.shards }

// Preload implements System: the engine's generated keys are ignored — the
// TPC-C initial population (clause 4.3) is the preload.
func (s *TPCCSystem) Preload([]uint64) {
	if err := tpcc.Load(s.db, s.sc); err != nil {
		panic("harness: tpcc load: " + err.Error())
	}
}

// Start implements System: txMontage needs its epoch advancer running, at
// the registry system's epoch length.
func (s *TPCCSystem) Start() (stop func()) {
	if mb, ok := s.backend.(*tpcc.MontageBackend); ok {
		return mb.StartAdvancer(store.DefaultAdvanceEvery)
	}
	return func() {}
}

// NewExecutor implements System: one tpcc.Driver per executor,
// deterministic in registration order.
func (s *TPCCSystem) NewExecutor() kv.Executor {
	s.mu.Lock()
	defer s.mu.Unlock()
	seed := int64(0x7C3C) + s.seq*7919
	s.seq++
	w := &tpccWorker{d: tpcc.NewDriver(s.db, s.sc, seed, s.mix)}
	w.sw, _ = w.d.Worker().(tpcc.StatsWorker)
	s.workers = append(s.workers, w)
	return w
}

// TxStats implements TxStatser.
func (s *TPCCSystem) TxStats() (commits, aborts uint64) {
	if s.mgr == nil {
		return 0, 0
	}
	st := s.mgr.Stats()
	return st.Commits, st.Aborts
}

// MetricsSnapshot implements MetricsSnapshotter. The read-only TPC-C
// transactions (orderStatus, stockLevel) commit through the read-only
// elision, so the fastpath block derived from these is meaningful here.
func (s *TPCCSystem) MetricsSnapshot() []Metric {
	if s.mgr == nil {
		return nil
	}
	return obs.TxCounters(s.mgr.Stats())
}

// TxKindStats implements TxKindStatser by summing the per-worker kind
// cells. Worker cells are written only by their owning goroutine; the
// engine calls this at phase barriers, where workers are quiescent.
func (s *TPCCSystem) TxKindStats() []KindStat {
	s.mu.Lock()
	ws := append([]*tpccWorker(nil), s.workers...)
	s.mu.Unlock()
	out := make([]KindStat, tpcc.NumTxKinds)
	for k := range out {
		out[k].Kind = tpcc.TxKind(k).String()
	}
	for _, w := range ws {
		for k := range w.kinds {
			out[k].Txns += w.kinds[k].txns
			out[k].Aborts += w.kinds[k].aborts
			out[k].TotalNs += w.kinds[k].totalNs
		}
	}
	return out
}

// ConsistencyCheck implements ConsistencyChecker: the TPC-C clause 3.3.2
// conditions over the whole database, plus an "execution" violation for
// any transaction body that failed outright (a row missing mid-run means
// atomicity broke long before the check).
func (s *TPCCSystem) ConsistencyCheck() []ConsistencyViolation {
	vs, err := tpcc.Check(s.db, s.sc)
	out := make([]ConsistencyViolation, 0, len(vs)+1)
	for _, v := range vs {
		out = append(out, ConsistencyViolation{Class: v.Class, Detail: v.Detail})
	}
	if err != nil {
		out = append(out, ConsistencyViolation{Class: "execution", Detail: err.Error()})
	}
	s.mu.Lock()
	for _, w := range s.workers {
		if w.lastErr != nil {
			out = append(out, ConsistencyViolation{
				Class:  "execution",
				Detail: fmt.Sprintf("%d failed transactions, first: %v", w.errs, w.lastErr),
			})
			break
		}
	}
	s.mu.Unlock()
	return out
}

// tpccKindCell is one transaction kind's tally on one worker.
type tpccKindCell struct {
	txns    uint64
	aborts  uint64
	totalNs uint64
}

// tpccWorker runs one TPC-C driver.
type tpccWorker struct {
	d       *tpcc.Driver
	sw      tpcc.StatsWorker // nil when the backend cannot attribute aborts
	kinds   [tpcc.NumTxKinds]tpccKindCell
	errs    uint64
	lastErr error
	_       [32]byte
}

// ExecBatch implements kv.Executor: exactly one transaction of the mix. It
// ignores ops, which are only the engine's clock, and fills no results:
// the engine passes nil, and no TPC-C system is served.
func (w *tpccWorker) ExecBatch([]kv.Op, []kv.Result) error {
	var aborts0 uint64
	if w.sw != nil {
		aborts0 = w.sw.TxStats().Aborts
	}
	t0 := time.Now()
	kind, err := w.d.Step()
	dt := time.Since(t0)
	cell := &w.kinds[kind]
	if w.sw != nil {
		cell.aborts += w.sw.TxStats().Aborts - aborts0
	}
	if err != nil {
		w.errs++
		if w.lastErr == nil {
			w.lastErr = err
		}
		return err
	}
	cell.txns++
	cell.totalNs += uint64(dt)
	return nil
}

// NewScenarioSystem resolves a -systems spec for the given scenario: TPC-C
// scenarios construct through NewTPCCSystem at the given scale, everything
// else through the ordinary system registry.
func NewScenarioSystem(sc Scenario, spec string, scale tpcc.Scale, o SystemOpts) (System, error) {
	if sc.IsTPCC() {
		return NewTPCCSystem(spec, scale, sc.TPCC, o)
	}
	return NewSystem(spec, o)
}

// ValidateScenarioSystemSpec checks a spec for the scenario without
// constructing tables or regions.
func ValidateScenarioSystemSpec(sc Scenario, spec string) error {
	if sc.IsTPCC() {
		_, _, err := resolveTPCCSpec(spec)
		return err
	}
	return ValidateSystemSpec(spec)
}
