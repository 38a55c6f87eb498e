// Package tpcc implements TPC-C over the repository's transactional
// structures. The paper evaluates the subset of Section 6.1 — the newOrder
// and payment transactions in a 1:1 ratio, following Yu et al.'s DBx1000
// methodology — and that mix remains available (PaperMix). The full
// five-transaction set (delivery, orderStatus, stockLevel in addition) runs
// in the standard 45/43/4/4/4 ratio (FullMix) for the tpcc-full harness
// scenario, with Consistency-check identities from the TPC-C specification
// (clause 3.3.2) verifiable at any quiescent point via Check.
//
// Tables are ordered maps from packed uint64 keys to row handles, and a
// Backend is nothing but those tables. Rows are immutable [4]uint64 records
// in one lock-free append-only arena per DB, outside every backend, so
// each backend (Medley, txMontage, OneFile, TDSL) pays the same indirection
// and the comparison isolates concurrency control, as in the paper's
// setup. Row updates replace the handle transactionally.
package tpcc

import "sync/atomic"

// Table indices.
const (
	TWarehouse = iota
	TDistrict
	TCustomer
	TItem
	TStock
	TOrder
	TNewOrder
	TOrderLine
	// TCustOrder maps a customer key to their most recent order id — the
	// index orderStatus needs (TPC-C finds a customer's last order; with
	// packed-key maps that lookup must be materialized at newOrder time).
	TCustOrder
	NumTables
)

// Key packing: fields are small per TPC-C scale rules.
// warehouse: w
// district:  w<<8 | d
// customer:  w<<24 | d<<16 | c
// item:      i
// stock:     w<<32 | i
// order:     w<<40 | d<<32 | o
// orderline: w<<48 | d<<40 | o<<8 | ol

// WarehouseKey packs a warehouse id.
func WarehouseKey(w uint64) uint64 { return w }

// DistrictKey packs (warehouse, district).
func DistrictKey(w, d uint64) uint64 { return w<<8 | d }

// CustomerKey packs (warehouse, district, customer).
func CustomerKey(w, d, c uint64) uint64 { return w<<24 | d<<16 | c }

// ItemKey packs an item id.
func ItemKey(i uint64) uint64 { return i }

// StockKey packs (warehouse, item).
func StockKey(w, i uint64) uint64 { return w<<32 | i }

// OrderKey packs (warehouse, district, order).
func OrderKey(w, d, o uint64) uint64 { return w<<40 | d<<32 | o }

// OrderLineKey packs (warehouse, district, order, line).
func OrderLineKey(w, d, o, ol uint64) uint64 { return w<<48 | d<<40 | o<<8 | ol }

// Row is a fixed-width immutable record; field meaning depends on table:
//
//	warehouse: [ytd, tax‰, 0, 0]
//	district:  [ytd, tax‰, nextOID, nextDeliveryOID]
//	customer:  [balance, ytdPayment, paymentCnt, deliveryCnt]
//	item:      [price, imID, 0, 0]
//	stock:     [quantity, ytd, orderCnt, remoteCnt]
//	order:     [customer, olCnt, entryDate, carrier]
//	neworder:  [0, 0, 0, 0]
//	orderline: [item, quantity, amount, supplyW]
//	custorder: [lastOID, 0, 0, 0]
//
// Monetary amounts are in cents. Customer balances wrap modulo 2^64
// (payments subtract, deliveries add); consistency checks compare them
// modulo 2^64 as well, matching unsigned arithmetic.
type Row [4]uint64

const (
	arenaChunkBits = 14
	arenaChunkSize = 1 << arenaChunkBits
	arenaMaxChunks = 1 << 16
)

type arenaChunk [arenaChunkSize]Row

// arena is a lock-free append-only row store. A writer appends to a chunk
// it alone claimed, claiming the next free one when it fills; any session
// may read any handle. Publication happens-before is provided by the
// transactional table stores that carry handles.
type arena struct {
	chunks  [arenaMaxChunks]atomic.Pointer[arenaChunk]
	claimed atomic.Int64
}

// get resolves a handle to its row.
func (a *arena) get(h uint64) Row {
	return a.chunks[h>>arenaChunkBits].Load()[h&(arenaChunkSize-1)]
}

// arenaWriter is one session's append position.
type arenaWriter struct {
	a     *arena
	chunk *arenaChunk
	next  uint64 // handle of the next row; on a chunk boundary, claim first
}

// put appends a row and returns its handle.
func (w *arenaWriter) put(r Row) uint64 {
	if w.next&(arenaChunkSize-1) == 0 {
		ci := w.a.claimed.Add(1) - 1
		if ci >= arenaMaxChunks {
			panic("tpcc: row arena full")
		}
		w.chunk = new(arenaChunk)
		w.a.chunks[ci].Store(w.chunk)
		w.next = uint64(ci) << arenaChunkBits
	}
	h := w.next
	w.chunk[h&(arenaChunkSize-1)] = r
	w.next++
	return h
}
