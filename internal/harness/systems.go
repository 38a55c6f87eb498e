package harness

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"medley/internal/kv"
	"medley/internal/lftt"
	"medley/internal/onefile"
	"medley/internal/pmem"
	"medley/internal/tdsl"
)

// This file adapts the competitor STMs to the System contract. The stack's
// own systems (Medley, txMontage, the plain baselines) are internal/store's.

// ---------------------------------------------------------------- OneFile

// ofMap is the shape shared by OneFile's structures and the persistent
// PMap wrapper.
type ofMap interface {
	Get(tx *onefile.Tx, key uint64) (uint64, bool)
	Put(tx *onefile.Tx, key uint64, val uint64) (uint64, bool)
	Remove(tx *onefile.Tx, key uint64) (uint64, bool)
	Range(fn func(key, val uint64) bool)
}

// OneFileSystem benchmarks transient or persistent OneFile over either
// structure. The persistent flavor wraps the structure in an
// onefile.PMap, whose per-key durable directory is what makes post-crash
// contents verifiable (see internal/onefile/pstm.go).
type OneFileSystem struct {
	name     string
	stm      *onefile.STM
	m        ofMap
	pstm     *onefile.PSTM // nil for the transient flavor
	pmap     *onefile.PMap // nil for the transient flavor
	skiplist bool
	buckets  int
}

// OneFileOpts selects the OneFile benchmark variant.
type OneFileOpts struct {
	Skiplist         bool
	Buckets          int
	Persistent       bool // POneFile: eager per-commit persistence
	RegionWords      int
	WriteBackLatency time.Duration
	FenceLatency     time.Duration
}

// NewOneFile creates a OneFile benchmark system.
func NewOneFile(o OneFileOpts) *OneFileSystem {
	var stm *onefile.STM
	var pstm *onefile.PSTM
	name := "OneFile"
	if o.Persistent {
		if o.RegionWords == 0 {
			o.RegionWords = 1 << 24
		}
		pstm = onefile.NewPersistent(pmem.Config{
			Words:            o.RegionWords,
			WriteBackLatency: o.WriteBackLatency,
			FenceLatency:     o.FenceLatency,
		})
		stm = pstm.STM
		name = "POneFile"
	} else {
		stm = onefile.New()
	}
	var inner onefile.KV
	if o.Skiplist {
		inner = onefile.NewSkiplist(stm)
		name += "-skip"
	} else {
		if o.Buckets <= 0 {
			o.Buckets = 1 << 20
		}
		inner = onefile.NewHashMap(stm, o.Buckets)
		name += "-hash"
	}
	s := &OneFileSystem{name: name, stm: stm, pstm: pstm,
		skiplist: o.Skiplist, buckets: o.Buckets}
	if pstm != nil {
		s.pmap = onefile.NewPMap(pstm, inner)
		s.m = s.pmap
	} else {
		s.m = inner.(ofMap)
	}
	return s
}

// CanRecover implements Recoverable: only the persistent flavor has a
// durable image.
func (s *OneFileSystem) CanRecover() bool { return s.pstm != nil }

// Persist implements Recoverable: POneFile persists eagerly at every
// commit, so there is nothing pending at a barrier.
func (s *OneFileSystem) Persist() {}

// CrashAndRecover implements Recoverable: crash the region, replay any
// crash-interrupted redo log, read the committed key→value map from the
// persisted directory, and bulk-load a fresh structure from it. The
// rebuild is non-transactional: the recovered data is already durable,
// so recovery pays directory reads and DRAM construction, not a second
// pass through the persist path.
func (s *OneFileSystem) CrashAndRecover() int {
	if s.pmap == nil {
		return 0
	}
	var inner onefile.KV
	if s.skiplist {
		inner = onefile.NewSkiplist(s.stm)
	} else {
		inner = onefile.NewHashMap(s.stm, s.buckets)
	}
	return s.pmap.Recover(inner)
}

// StateSnapshot implements Snapshotter, and so Recoverable's verification
// walk: live contents through the structure's own Range (the PMap for the
// persistent flavor). Callers must be quiesced, like every StateSnapshot.
func (s *OneFileSystem) StateSnapshot(fn func(key, val uint64) bool) {
	s.m.Range(fn)
}

// Name implements System.
func (s *OneFileSystem) Name() string { return s.name }

// TxStats implements TxStatser; OneFile restarts play the role of aborts.
func (s *OneFileSystem) TxStats() (commits, aborts uint64) {
	st := s.stm.Stats()
	return st.Commits, st.Restarts
}

// Start implements System.
func (s *OneFileSystem) Start() (stop func()) { return func() {} }

// Preload implements System.
func (s *OneFileSystem) Preload(keys []uint64) {
	const batch = 128
	for i := 0; i < len(keys); i += batch {
		part := keys[i:min(i+batch, len(keys))]
		_ = s.stm.WriteTx(func(tx *onefile.Tx) error {
			for _, k := range part {
				s.m.Put(tx, k, k)
			}
			return nil
		})
	}
}

// onefileWorker is OneFile's kv.Executor.
type onefileWorker struct{ s *OneFileSystem }

// NewExecutor implements System, and with SupportsChangeFeed the service's
// Backend, so the chaos runner can put OneFile behind the pipeline: in the
// persistent flavor, a store whose every acked commit is already durable,
// the property the crash-restart chaos scenarios gate on.
func (s *OneFileSystem) NewExecutor() kv.Executor { return &onefileWorker{s} }

// SupportsChangeFeed reports that OneFile executors cannot publish a
// change feed: OneFile's commits draw no core commit ticket to order one.
func (s *OneFileSystem) SupportsChangeFeed() bool { return false }

// ExecBatch implements kv.Executor. Scans run through the structure's own
// Range (its own read transaction), hoisted out so they never nest inside
// the write transaction; keyed ops run in one read-only or write
// transaction. OpAdd is read-modify-write inside the transaction —
// OneFile's opacity makes the fetch-and-add atomic.
func (w *onefileWorker) ExecBatch(ops []kv.Op, res []kv.Result) error {
	readOnly, keyed := true, false
	for i := range ops {
		switch ops[i].Kind {
		case kv.OpScan:
		case kv.OpGet:
			keyed = true
		default:
			keyed = true
			readOnly = false
		}
	}
	for i := range ops {
		if ops[i].Kind != kv.OpScan {
			continue
		}
		n := int(ops[i].Val)
		var visited uint64
		w.s.m.Range(func(_, _ uint64) bool { visited++; n--; return n > 0 })
		if res != nil {
			res[i] = kv.Result{Val: visited, Ok: true}
		}
	}
	if !keyed {
		return nil
	}
	body := func(tx *onefile.Tx) error {
		for i := range ops {
			op := &ops[i]
			var r kv.Result
			switch op.Kind {
			case kv.OpGet:
				r.Val, r.Ok = w.s.m.Get(tx, op.Key)
			case kv.OpPut:
				r.Val, r.Ok = w.s.m.Put(tx, op.Key, op.Val)
			case kv.OpDelete:
				r.Val, r.Ok = w.s.m.Remove(tx, op.Key)
			case kv.OpAdd:
				v, ok := w.s.m.Get(tx, op.Key)
				v += op.Val
				w.s.m.Put(tx, op.Key, v)
				r = kv.Result{Val: v, Ok: ok}
			default:
				continue
			}
			if res != nil {
				res[i] = r
			}
		}
		return nil
	}
	if readOnly {
		return w.s.stm.ReadTx(body)
	}
	return w.s.stm.WriteTx(body)
}

// ------------------------------------------------------------------ TDSL

// TDSLSystem benchmarks the TDSL skiplist. The library itself keeps no
// counters, so each worker counts commits and aborts in its own padded
// shard and TxStats folds them — the same no-shared-hot-word discipline as
// core.TxManager.
type TDSLSystem struct {
	sl      *tdsl.Skiplist
	mu      sync.Mutex
	workers []*tdslWorker
}

// NewTDSL creates the TDSL benchmark system.
func NewTDSL() *TDSLSystem { return &TDSLSystem{sl: tdsl.New()} }

// Name implements System.
func (s *TDSLSystem) Name() string { return "TDSL-skip" }

// TxStats implements TxStatser by summing the per-worker shards.
func (s *TDSLSystem) TxStats() (commits, aborts uint64) {
	s.mu.Lock()
	workers := s.workers
	s.mu.Unlock()
	for _, w := range workers {
		commits += w.commits.Load()
		aborts += w.aborts.Load()
	}
	return commits, aborts
}

// Start implements System.
func (s *TDSLSystem) Start() (stop func()) { return func() {} }

// Preload implements System.
func (s *TDSLSystem) Preload(keys []uint64) {
	for i := 0; i < len(keys); i += 64 {
		part := keys[i:min(i+64, len(keys))]
		_ = tdsl.RunRetry(func(tx *tdsl.Tx) error {
			for _, k := range part {
				tx.Put(s.sl, k, k)
			}
			return nil
		})
	}
}

type tdslWorker struct {
	s               *TDSLSystem
	tx              *tdsl.Tx
	commits, aborts atomic.Uint64
	_               [112]byte // keep worker shards on distinct cache lines
}

// NewExecutor implements System.
func (s *TDSLSystem) NewExecutor() kv.Executor {
	w := &tdslWorker{s: s, tx: tdsl.NewTx()}
	s.mu.Lock()
	s.workers = append(s.workers, w)
	s.mu.Unlock()
	return w
}

// ExecBatch implements kv.Executor: the batch as one TDSL transaction,
// retried while it aborts. It fills no results: the engine passes nil, and
// no TDSL system is served.
func (w *tdslWorker) ExecBatch(ops []kv.Op, _ []kv.Result) error {
	for {
		w.tx.Reset()
		for _, op := range ops {
			switch op.Kind {
			case OpGet:
				w.tx.Get(w.s.sl, op.Key)
			case OpInsert:
				w.tx.Put(w.s.sl, op.Key, op.Val)
			case OpRemove:
				w.tx.Remove(w.s.sl, op.Key)
			case OpRange:
				// TDSL has no transactional scan; the structure's
				// non-transactional Range stands in, like Len.
				n := int(op.Val)
				w.s.sl.Range(func(_, _ uint64) bool { n--; return n > 0 })
			}
		}
		err := w.tx.Commit()
		if err == nil {
			w.commits.Add(1)
			return nil
		}
		if !errors.Is(err, tdsl.ErrAborted) {
			return err
		}
		w.aborts.Add(1)
	}
}

// ------------------------------------------------------------------ LFTT

// LFTTSystem benchmarks the LFTT skiplist (static transactions).
type LFTTSystem struct{ sl *lftt.Skiplist }

// NewLFTT creates the LFTT benchmark system.
func NewLFTT() *LFTTSystem { return &LFTTSystem{sl: lftt.New()} }

// Name implements System.
func (s *LFTTSystem) Name() string { return "LFTT-skip" }

// TxStats implements TxStatser from the skiplist's counters.
func (s *LFTTSystem) TxStats() (commits, aborts uint64) { return s.sl.Stats() }

// Start implements System.
func (s *LFTTSystem) Start() (stop func()) { return func() {} }

// Preload implements System.
func (s *LFTTSystem) Preload(keys []uint64) {
	for _, k := range keys {
		s.sl.Insert(k, k)
	}
}

type lfttWorker struct {
	s   *LFTTSystem
	buf []lftt.Op
}

// NewExecutor implements System.
func (s *LFTTSystem) NewExecutor() kv.Executor { return &lfttWorker{s: s} }

// ExecBatch implements kv.Executor: the batch as one static LFTT
// transaction. It fills no results: the engine passes nil, and no LFTT
// system is served.
func (w *lfttWorker) ExecBatch(ops []kv.Op, _ []kv.Result) error {
	w.buf = w.buf[:0]
	for _, op := range ops {
		k := lftt.OpGet
		switch op.Kind {
		case OpInsert:
			k = lftt.OpInsert
		case OpRemove:
			k = lftt.OpRemove
		case OpRange:
			// Static transactions cannot express scans; run the
			// structure's non-transactional Range alongside.
			n := int(op.Val)
			w.s.sl.Range(func(_, _ uint64) bool { n--; return n > 0 })
			continue
		}
		w.buf = append(w.buf, lftt.Op{Kind: k, Key: op.Key, Val: op.Val})
	}
	if len(w.buf) > 0 {
		w.s.sl.Execute(w.buf)
	}
	return nil
}
