package tpcc

import (
	"time"

	"medley/internal/core"
	"medley/internal/ebr"
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
}

// StatsWorker is implemented by workers whose backend can attribute
// transaction commits and aborts to this worker alone; consecutive
// snapshots can be differenced to charge retries to individual driver
// steps.
type StatsWorker interface {
	TxStats() core.Stats
}

// Backend is one concurrency-control system under test: the tables, and
// nothing else (the rows live in the DB).
type Backend interface {
	NewWorker() Worker
}

// DB is a database on a backend: its tables plus the one row arena.
type DB struct {
	b    Backend
	rows arena
}

// NewDB creates an empty database on b.
func NewDB(b Backend) *DB { return &DB{b: b} }

// Conn is one goroutine's session on a DB: a backend worker plus its
// append position in the row arena.
type Conn struct {
	Worker
	aw arenaWriter
}

// Conn opens a session for one goroutine. It claims no arena space until
// it writes a row.
func (db *DB) Conn() *Conn {
	return &Conn{Worker: db.b.NewWorker(), aw: arenaWriter{a: &db.rows}}
}

// row resolves a handle to its row.
func (cn *Conn) row(h uint64) Row { return cn.aw.a.get(h) }

// put appends a row and returns its handle.
func (cn *Conn) put(r Row) uint64 { return cn.aw.put(r) }

// ------------------------------------------- Medley (any kv.TxMap), txMontage

// KVBackend runs TPC-C on any registry structure: one kv.TxMap per table,
// all under a single TxManager, so every TPC-C transaction is one Medley
// transaction whatever the structure choice — including hash-partitioned
// tables, whose cross-shard reads and writes stay strictly serializable
// for free.
//
// Workers hold EBR handles, so the tables reuse the node slots they
// unlink and each worker the read sets it publishes.
type KVBackend struct {
	mgr    *core.TxManager
	smr    *ebr.Manager
	tables [NumTables]kv.TxMap
}

// NewKVBackend creates a backend whose tables are the named registry
// structure, partitioned over shards instances per table when shards > 1.
func NewKVBackend(structure string, shards int) (*KVBackend, error) {
	b := &KVBackend{mgr: core.NewTxManager(), smr: ebr.New(256)}
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
	b, err := NewKVBackend("skip", 1)
	if err != nil {
		panic(err) // static registry name; cannot fail
	}
	return b
}

// Manager exposes the TxManager for statistics.
func (b *KVBackend) Manager() *core.TxManager { return b.mgr }

// NewWorker implements Backend.
func (b *KVBackend) NewWorker() Worker {
	w := &kvWorker{tx: b.mgr.Register(), h: b.smr.Register()}
	w.tx.SetSMR(w.h)
	for i := range b.tables {
		w.tables[i] = kv.Bind(b.tables[i], w.tx)
	}
	return w
}

// kvWorker runs TPC-C transactions as Medley transactions over tables
// bound to its Tx: a KVBackend's, or a MontageBackend's through one epoch
// handle.
type kvWorker struct {
	tx     *core.Tx
	h      *ebr.Handle
	tables [NumTables]kv.TxMap
}

func (w *kvWorker) Run(body func(Ctx) error) error {
	w.h.Enter()
	defer w.h.Exit()
	return w.tx.RunRetry(func() error { return body(w) })
}

func (w *kvWorker) Get(t int, key uint64) (uint64, bool) {
	return w.tables[t].Get(w.tx, key)
}
func (w *kvWorker) Put(t int, key uint64, h uint64) {
	w.tables[t].Put(w.tx, key, h)
}
func (w *kvWorker) Insert(t int, key uint64, h uint64) bool {
	return w.tables[t].Insert(w.tx, key, h)
}
func (w *kvWorker) Remove(t int, key uint64) bool {
	_, ok := w.tables[t].Remove(w.tx, key)
	return ok
}

// TxStats implements StatsWorker.
func (w *kvWorker) TxStats() core.Stats { return w.tx.ShardStats() }

// MontageBackend runs TPC-C on txMontage persistent stores over skiplist
// indices (Figure 9's txMontage line).
type MontageBackend struct {
	mgr    *core.TxManager
	smr    *ebr.Manager // grace periods for the skiplists' node slots
	sys    *montage.System
	tables [NumTables]*kv.MontageMap
}

// NewMontageBackend creates the txMontage configuration over the given
// montage system.
func NewMontageBackend(sys *montage.System) *MontageBackend {
	b := &MontageBackend{mgr: core.NewTxManager(), smr: ebr.New(256), sys: sys}
	for i := range b.tables {
		idx := fraserskip.New[montage.Entry[uint64]](b.mgr)
		b.tables[i] = kv.NewMontageMap(sys, montage.NewPStore[uint64](sys, idx, montage.U64Codec()))
	}
	return b
}

// Manager exposes the TxManager for statistics.
func (b *MontageBackend) Manager() *core.TxManager { return b.mgr }

// StartAdvancer launches the montage epoch advancer for the duration of a
// benchmark run; the returned function stops it.
func (b *MontageBackend) StartAdvancer(every time.Duration) (stop func()) {
	return b.sys.StartAdvancer(every)
}

// NewWorker implements Backend: the Medley worker, with an EBR handle
// entered around each transaction as a KVBackend's, its tables bound
// through one epoch handle.
func (b *MontageBackend) NewWorker() Worker {
	w := &kvWorker{tx: b.mgr.Register(), h: b.smr.Register()}
	w.tx.SetSMR(w.h)
	h := b.sys.Wrap(w.tx)
	for i := range b.tables {
		w.tables[i] = b.tables[i].BindHandle(h)
	}
	return w
}

// ---------------------------------------------------------------- OneFile

// OneFileBackend runs TPC-C on OneFile STM skiplists (transient OneFile in
// Figure 9; pass onefile.NewPersistent(...).STM for POneFile).
type OneFileBackend struct {
	stm    *onefile.STM
	tables [NumTables]*onefile.Skiplist
}

// NewOneFileBackend creates the OneFile configuration.
func NewOneFileBackend(stm *onefile.STM) *OneFileBackend {
	b := &OneFileBackend{stm: stm}
	for i := range b.tables {
		b.tables[i] = onefile.NewSkiplist(stm)
	}
	return b
}

type onefileWorker struct {
	b  *OneFileBackend
	tx *onefile.Tx // valid during Run
}

// NewWorker implements Backend.
func (b *OneFileBackend) NewWorker() Worker { return &onefileWorker{b: b} }

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
}

// NewTDSLBackend creates the TDSL configuration.
func NewTDSLBackend() *TDSLBackend {
	b := &TDSLBackend{}
	for i := range b.tables {
		b.tables[i] = tdsl.New()
	}
	return b
}

type tdslWorker struct {
	b  *TDSLBackend
	tx *tdsl.Tx
}

// NewWorker implements Backend.
func (b *TDSLBackend) NewWorker() Worker { return &tdslWorker{b: b} }

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
