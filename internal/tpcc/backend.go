package tpcc

import (
	"time"

	"medley/internal/core"
	"medley/internal/kv"
	"medley/internal/montage"
	"medley/internal/onefile"
	"medley/internal/structures/fraserskip"
	"medley/internal/tdsl"
)

// Ctx is the per-transaction view of the database handed to transaction
// bodies: get/put/insert/remove of row handles on the numbered tables.
type Ctx interface {
	Get(table int, key uint64) (uint64, bool)
	Put(table int, key uint64, handle uint64)
	Insert(table int, key uint64, handle uint64) bool
	Remove(table int, key uint64) bool
}

// Worker is a per-goroutine execution context.
type Worker interface {
	// Run executes body atomically, retrying on concurrency-control
	// aborts. A non-nil error from body aborts without retry and is
	// returned — if the reads it was derived from still validate; an
	// error from reads a concurrent commit has since overwritten is an
	// abort, and is retried.
	Run(body func(Ctx) error) error
	// Writer is this worker's arena lane.
	Writer() *ArenaWriter
}

// StatsWorker is implemented by workers whose backend can attribute
// transaction commits and aborts to this worker alone; consecutive
// snapshots can be differenced to charge retries to individual driver
// steps.
type StatsWorker interface {
	TxStats() core.Stats
}

// Backend is one concurrency-control system under test.
type Backend interface {
	Name() string
	NewWorker() Worker
	Arena() *Arena
}

// ------------------------------------------------- Medley (any kv.TxMap)

// KVBackend runs TPC-C on any registry structure: one kv.TxMap per table,
// all under a single TxManager, so every TPC-C transaction is one Medley
// transaction whatever the structure choice — including hash-partitioned
// tables, whose cross-shard reads and writes stay strictly serializable
// for free.
type KVBackend struct {
	name   string
	mgr    *core.TxManager
	tables [NumTables]kv.TxMap
	arena  *Arena
}

// NewKVBackend creates a backend whose tables are the named registry
// structure, partitioned over shards instances per table when shards > 1.
func NewKVBackend(name, structure string, shards int) (*KVBackend, error) {
	b := &KVBackend{name: name, mgr: core.NewTxManager(), arena: NewArena()}
	for i := range b.tables {
		s, err := kv.NewShardedNamed(structure, shards, kv.Options{Mgr: b.mgr, Buckets: 1 << 16})
		if err != nil {
			return nil, err
		}
		if s.ShardCount() == 1 {
			b.tables[i] = s.Shard(0)
		} else {
			b.tables[i] = s
		}
	}
	return b, nil
}

// NewMedleyBackend creates the paper's Figure 9 Medley configuration
// (NBTC-transformed Fraser skiplists), expressed through the registry.
func NewMedleyBackend() *KVBackend {
	b, err := NewKVBackend("Medley", "skip", 1)
	if err != nil {
		panic(err) // static registry name; cannot fail
	}
	return b
}

// Name implements Backend.
func (b *KVBackend) Name() string { return b.name }

// Arena implements Backend.
func (b *KVBackend) Arena() *Arena { return b.arena }

// Manager exposes the TxManager for statistics.
func (b *KVBackend) Manager() *core.TxManager { return b.mgr }

type kvTpccWorker struct {
	tx     *core.Tx
	tables [NumTables]kv.TxMap // bound per worker
	arena  *Arena
	aw     *ArenaWriter
}

// NewWorker implements Backend.
func (b *KVBackend) NewWorker() Worker {
	w := &kvTpccWorker{tx: b.mgr.Register(), arena: b.arena, aw: b.arena.Writer()}
	for i := range b.tables {
		w.tables[i] = kv.Bind(b.tables[i], w.tx)
	}
	return w
}

func (w *kvTpccWorker) Writer() *ArenaWriter { return w.aw }

func (w *kvTpccWorker) Run(body func(Ctx) error) error {
	return w.tx.RunRetry(func() error { return body(w) })
}

func (w *kvTpccWorker) Get(t int, key uint64) (uint64, bool) {
	return w.tables[t].Get(w.tx, key)
}
func (w *kvTpccWorker) Put(t int, key uint64, h uint64) {
	w.tables[t].Put(w.tx, key, h)
}
func (w *kvTpccWorker) Insert(t int, key uint64, h uint64) bool {
	return w.tables[t].Insert(w.tx, key, h)
}
func (w *kvTpccWorker) Remove(t int, key uint64) bool {
	_, ok := w.tables[t].Remove(w.tx, key)
	return ok
}

// TxStats implements StatsWorker.
func (w *kvTpccWorker) TxStats() core.Stats { return w.tx.ShardStats() }

// -------------------------------------------------------------- txMontage

// MontageBackend runs TPC-C on txMontage persistent stores over skiplist
// indices (Figure 9's txMontage line).
type MontageBackend struct {
	mgr    *core.TxManager
	sys    *montage.System
	tables [NumTables]*montage.PStore[uint64]
	arena  *Arena
}

// NewMontageBackend creates the txMontage configuration over the given
// montage system.
func NewMontageBackend(sys *montage.System) *MontageBackend {
	b := &MontageBackend{mgr: core.NewTxManager(), sys: sys, arena: NewArena()}
	for i := range b.tables {
		idx := fraserskip.New[montage.Entry[uint64]](b.mgr)
		b.tables[i] = montage.NewPStore[uint64](sys, idx, montage.U64Codec())
	}
	return b
}

// Name implements Backend.
func (b *MontageBackend) Name() string { return "txMontage" }

// Arena implements Backend.
func (b *MontageBackend) Arena() *Arena { return b.arena }

// Manager exposes the TxManager for statistics.
func (b *MontageBackend) Manager() *core.TxManager { return b.mgr }

// StartAdvancer launches the montage epoch advancer for the duration of a
// benchmark run; the returned function stops it.
func (b *MontageBackend) StartAdvancer(every time.Duration) (stop func()) {
	return b.sys.StartAdvancer(every)
}

type montageWorker struct {
	b  *MontageBackend
	h  *montage.Handle
	aw *ArenaWriter
}

// NewWorker implements Backend.
func (b *MontageBackend) NewWorker() Worker {
	tx := b.mgr.Register()
	return &montageWorker{b: b, h: b.sys.Wrap(tx), aw: b.arena.Writer()}
}

func (w *montageWorker) Writer() *ArenaWriter { return w.aw }

func (w *montageWorker) Run(body func(Ctx) error) error {
	return w.h.Tx().RunRetry(func() error { return body(w) })
}

func (w *montageWorker) Get(t int, key uint64) (uint64, bool) {
	return w.b.tables[t].Get(w.h, key)
}
func (w *montageWorker) Put(t int, key uint64, h uint64) {
	w.b.tables[t].Put(w.h, key, h)
}
func (w *montageWorker) Insert(t int, key uint64, h uint64) bool {
	return w.b.tables[t].Insert(w.h, key, h)
}
func (w *montageWorker) Remove(t int, key uint64) bool {
	_, ok := w.b.tables[t].Remove(w.h, key)
	return ok
}

// TxStats implements StatsWorker.
func (w *montageWorker) TxStats() core.Stats { return w.h.Tx().ShardStats() }

// ---------------------------------------------------------------- OneFile

// OneFileBackend runs TPC-C on OneFile STM skiplists (transient OneFile in
// Figure 9; pass onefile.NewPersistent(...).STM for POneFile).
type OneFileBackend struct {
	stm    *onefile.STM
	tables [NumTables]*onefile.Skiplist
	arena  *Arena
	name   string
}

// NewOneFileBackend creates the OneFile configuration.
func NewOneFileBackend(stm *onefile.STM, name string) *OneFileBackend {
	b := &OneFileBackend{stm: stm, arena: NewArena(), name: name}
	for i := range b.tables {
		b.tables[i] = onefile.NewSkiplist(stm)
	}
	return b
}

// Name implements Backend.
func (b *OneFileBackend) Name() string { return b.name }

// Arena implements Backend.
func (b *OneFileBackend) Arena() *Arena { return b.arena }

type onefileWorker struct {
	b  *OneFileBackend
	aw *ArenaWriter
	tx *onefile.Tx // valid during Run
}

// NewWorker implements Backend.
func (b *OneFileBackend) NewWorker() Worker {
	return &onefileWorker{b: b, aw: b.arena.Writer()}
}

func (w *onefileWorker) Writer() *ArenaWriter { return w.aw }

func (w *onefileWorker) Run(body func(Ctx) error) error {
	return w.b.stm.WriteTx(func(tx *onefile.Tx) error {
		w.tx = tx
		return body(w)
	})
}

func (w *onefileWorker) Get(t int, key uint64) (uint64, bool) {
	return w.b.tables[t].Get(w.tx, key)
}
func (w *onefileWorker) Put(t int, key uint64, h uint64) {
	w.b.tables[t].Put(w.tx, key, h)
}
func (w *onefileWorker) Insert(t int, key uint64, h uint64) bool {
	return w.b.tables[t].Insert(w.tx, key, h)
}
func (w *onefileWorker) Remove(t int, key uint64) bool {
	_, ok := w.b.tables[t].Remove(w.tx, key)
	return ok
}

// ------------------------------------------------------------------ TDSL

// TDSLBackend runs TPC-C on TDSL transactional skiplists (Figure 9's TDSL
// line).
type TDSLBackend struct {
	tables [NumTables]*tdsl.Skiplist
	arena  *Arena
}

// NewTDSLBackend creates the TDSL configuration.
func NewTDSLBackend() *TDSLBackend {
	b := &TDSLBackend{arena: NewArena()}
	for i := range b.tables {
		b.tables[i] = tdsl.New()
	}
	return b
}

// Name implements Backend.
func (b *TDSLBackend) Name() string { return "TDSL" }

// Arena implements Backend.
func (b *TDSLBackend) Arena() *Arena { return b.arena }

type tdslWorker struct {
	b  *TDSLBackend
	aw *ArenaWriter
	tx *tdsl.Tx
}

// NewWorker implements Backend.
func (b *TDSLBackend) NewWorker() Worker {
	return &tdslWorker{b: b, aw: b.arena.Writer()}
}

func (w *tdslWorker) Writer() *ArenaWriter { return w.aw }

func (w *tdslWorker) Run(body func(Ctx) error) error {
	return tdsl.RunRetry(func(tx *tdsl.Tx) error {
		w.tx = tx
		return body(w)
	})
}

func (w *tdslWorker) Get(t int, key uint64) (uint64, bool) {
	return w.tx.Get(w.b.tables[t], key)
}
func (w *tdslWorker) Put(t int, key uint64, h uint64) {
	w.tx.Put(w.b.tables[t], key, h)
}
func (w *tdslWorker) Insert(t int, key uint64, h uint64) bool {
	return w.tx.Insert(w.b.tables[t], key, h)
}
func (w *tdslWorker) Remove(t int, key uint64) bool {
	_, ok := w.tx.Remove(w.b.tables[t], key)
	return ok
}
