package kv

import (
	"medley/internal/core"
	"medley/internal/montage"
)

// MontageMap adapts a txMontage persistent store to TxMap. PStore
// operations run on a per-goroutine epoch Handle rather than a bare Tx,
// so the unbound map cannot execute operations: workers must Bind first
// (kv.Bind does this transparently). One Handle serves every store of the
// same montage System, so a ShardedStore whose shards wrap stores of one
// System pays a single epoch read-check per transaction after binding.
type MontageMap struct {
	sys   *montage.System
	store *montage.PStore[uint64]
}

// NewMontageMap wraps store, which must belong to sys.
func NewMontageMap(sys *montage.System, store *montage.PStore[uint64]) *MontageMap {
	return &MontageMap{sys: sys, store: store}
}

// Store returns the wrapped persistent store.
func (m *MontageMap) Store() *montage.PStore[uint64] { return m.store }

// Bind implements Binder: wrap tx into an epoch handle once per worker.
func (m *MontageMap) Bind(tx *core.Tx) TxMap {
	return boundMontageMap{store: m.store, h: m.sys.Wrap(tx)}
}

// BindHandle returns the view over an existing handle. Callers that
// manage handles themselves bind this way: store (transient-on-NVM
// variants, one handle shared across shards) and tpcc (one handle shared
// across a worker's tables).
func (m *MontageMap) BindHandle(h *montage.Handle) TxMap {
	return boundMontageMap{store: m.store, h: h}
}

func (m *MontageMap) unboundPanic() {
	panic("kv: MontageMap must be bound to a Tx (kv.Bind) before use")
}

// Get implements TxMap (unbound: refuse, the handle is mandatory).
func (m *MontageMap) Get(*core.Tx, uint64) (uint64, bool) { m.unboundPanic(); return 0, false }

// Put implements TxMap.
func (m *MontageMap) Put(*core.Tx, uint64, uint64) (uint64, bool) { m.unboundPanic(); return 0, false }

// Insert implements TxMap.
func (m *MontageMap) Insert(*core.Tx, uint64, uint64) bool { m.unboundPanic(); return false }

// Remove implements TxMap.
func (m *MontageMap) Remove(*core.Tx, uint64) (uint64, bool) { m.unboundPanic(); return 0, false }

// Range implements TxMap; reads come from the DRAM index, no handle
// needed.
func (m *MontageMap) Range(fn func(key, val uint64) bool) { m.store.Range(fn) }

// Len implements Lener.
func (m *MontageMap) Len() int { return m.store.Len() }

type boundMontageMap struct {
	store *montage.PStore[uint64]
	h     *montage.Handle
}

func (b boundMontageMap) Get(_ *core.Tx, key uint64) (uint64, bool) {
	return b.store.Get(b.h, key)
}
func (b boundMontageMap) Put(_ *core.Tx, key, val uint64) (uint64, bool) {
	return b.store.Put(b.h, key, val)
}
func (b boundMontageMap) Insert(_ *core.Tx, key, val uint64) bool {
	return b.store.Insert(b.h, key, val)
}
func (b boundMontageMap) Remove(_ *core.Tx, key uint64) (uint64, bool) {
	return b.store.Remove(b.h, key)
}
func (b boundMontageMap) Range(fn func(key, val uint64) bool) { b.store.Range(fn) }
func (b boundMontageMap) Len() int                            { return b.store.Len() }
