package service

import (
	"sync"
	"sync/atomic"
	"time"

	"medley/internal/kv"
)

// This file is the idempotency layer of the service: a bounded window of
// request outcomes keyed by client-chosen request ID. A client that loses
// a connection mid-request cannot tell whether the server executed it; the
// window lets it retry with the same ID and receive the original results
// instead of executing twice — turning a non-idempotent batch (a transfer
// is two fetch-and-adds) into an exactly-once operation across retries,
// for as long as the original outcome stays inside the window.
//
// The window is a ring + map: the map answers lookups, the ring is the
// FIFO eviction order that bounds memory. Entries are published in two
// steps — claimed at admission (in-flight), settled at completion — so a
// retry that races the original in flight parks on the entry and wakes
// with the original's outcome rather than re-executing. Requests that
// were never executed (shed, expired, closed) abandon their claim: the
// entry leaves the map so a later retry registers fresh, and any parked
// waiters get the disposition error (they will retry and re-register).
// A claim makes no channel: the first retry that parks on an unsettled
// entry makes it, so a request nobody retries costs its entry alone.

// dedupEntry is one request ID's slot in the window.
type dedupEntry struct {
	id string

	// Under the window's mu: settled once the outcome is published, and
	// done, made by the first waiter on an unsettled entry and closed when
	// it settles.
	settled bool
	done    chan struct{}

	// Written once before the entry settles; read only after. res is a
	// copy of the request's results, in inline when they fit: the service
	// mix's batches carry one to four ops.
	res      []kv.Result
	inline   [4]kv.Result
	err      error
	executed bool // false when the claim was abandoned without executing
}

// dedupWindow remembers the outcomes of the last cap requests that
// carried an ID.
type dedupWindow struct {
	mu   sync.Mutex
	cap  int
	m    map[string]*dedupEntry
	ring []*dedupEntry
	head int // next eviction slot once the ring is full

	// Lifecycle counters, exported as svc_dedup_* in GET /metrics.
	claims    atomic.Uint64 // fresh IDs that entered the window
	hits      atomic.Uint64 // claims answered by a prior entry (settled or in flight)
	abandons  atomic.Uint64 // claims released unexecuted (shed/expired/closed)
	evictions atomic.Uint64 // entries pushed out by the FIFO bound
	completes atomic.Uint64 // claims settled with an executed outcome
}

func newDedupWindow(n int) *dedupWindow {
	return &dedupWindow{cap: n, m: make(map[string]*dedupEntry)}
}

// claim registers id as in-flight. It returns (entry, nil) when this call
// owns the execution, or (nil, prior) when the ID is already known —
// settled or still in flight — and the caller must await prior instead of
// executing. Registering may evict the window's oldest entry, settled or
// not: a retry arriving after its original was evicted re-executes, which
// is the documented bound of the window (size it above the product of
// retry horizon and throughput).
func (w *dedupWindow) claim(id string) (mine, prior *dedupEntry) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e, ok := w.m[id]; ok {
		w.hits.Add(1)
		return nil, e
	}
	e := &dedupEntry{id: id}
	if len(w.ring) < w.cap {
		w.ring = append(w.ring, e)
	} else {
		old := w.ring[w.head]
		// The slot's id may already be gone (abandoned); only remove the
		// mapping if it still points at the evicted entry.
		if cur, ok := w.m[old.id]; ok && cur == old {
			delete(w.m, old.id)
			w.evictions.Add(1)
		}
		w.ring[w.head] = e
		w.head = (w.head + 1) % w.cap
	}
	w.m[id] = e
	w.claims.Add(1)
	return e, nil
}

// complete settles e with an executed request's outcome. res is copied:
// the caller's slice is reused by its owner after Submit returns.
func (w *dedupWindow) complete(e *dedupEntry, res []kv.Result, err error) {
	if len(res) > 0 {
		e.res = append(e.inline[:0:len(e.inline)], res...)
	}
	e.err = err
	e.executed = true
	w.mu.Lock()
	e.settleLocked()
	w.mu.Unlock()
	w.completes.Add(1)
}

// abandon settles e for a request that was never executed (shed, expired,
// service closed): the ID leaves the map so a later retry claims fresh,
// and parked waiters wake with the disposition error.
func (w *dedupWindow) abandon(e *dedupEntry, err error) {
	e.err = err
	w.mu.Lock()
	if cur, ok := w.m[e.id]; ok && cur == e {
		delete(w.m, e.id)
	}
	e.settleLocked()
	w.mu.Unlock()
	w.abandons.Add(1)
}

// settleLocked publishes e's outcome, written before the call, and wakes
// its waiters if any parked. The caller holds the window's mu.
func (e *dedupEntry) settleLocked() {
	e.settled = true
	if e.done != nil {
		close(e.done)
	}
}

// await parks on a prior claim e of the same ID and returns its outcome,
// copying the original results into res when the prior executed (hit
// true). stop aborts the wait (service shutdown); a non-zero deadline
// aborts it at the retry's own deadline with kv.ErrExpired.
func (w *dedupWindow) await(e *dedupEntry, res []kv.Result, stop <-chan struct{}, deadline time.Time) (hit bool, err error) {
	w.mu.Lock()
	settled := e.settled
	if !settled && e.done == nil {
		e.done = make(chan struct{})
	}
	done := e.done
	w.mu.Unlock()
	if !settled {
		var timeout <-chan time.Time
		if !deadline.IsZero() {
			t := time.NewTimer(time.Until(deadline))
			defer t.Stop()
			timeout = t.C
		}
		select {
		case <-done:
		case <-stop:
			return false, ErrClosed
		case <-timeout:
			return false, kv.ErrExpired
		}
	}
	if !e.executed {
		return false, e.err
	}
	if res != nil {
		copy(res, e.res)
	}
	return true, e.err
}
