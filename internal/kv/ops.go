package kv

import (
	"errors"

	"medley/internal/core"
)

// This file is the first-class batch request API of the kv seam: a wire-
// and server-friendly Op/Result pair plus one Apply routine that every
// batch consumer — the network service's tick executor (internal/service),
// the harness worker loop (internal/harness), and tests — runs through.
// A batch runs in request order: ops[i] executes after ops[i-1] and into
// res[i], on whatever TxMap it is handed. A ShardedStore is just such a
// map — each keyed operation routes itself by its key — so there is no
// second, store-specific way to run a batch.

// OpKind enumerates batch request operations.
type OpKind uint8

// Batch operation kinds. Get/Put/Delete are the transactional point
// operations; Scan rides along non-transactionally (the structures' native
// best-effort Range, exactly like TxMap.Range); Add is a read-modify-write
// (fetch-and-add with uint64 wraparound) — two Adds with opposite deltas
// express an atomic transfer without the request carrying read-dependent
// values.
const (
	OpGet OpKind = iota
	OpPut
	OpDelete
	// OpScan visits up to Val entries of the structure's native Range
	// iteration; Key is unused. Scans are not part of the read set, and
	// Executor implementations run them outside the batch's transaction:
	// Range's raw loads finalize pending descriptors, so a scan inside the
	// transaction that wrote the same structure would abort its own
	// speculation on every retry.
	OpScan
	// OpAdd stores Get(Key)+Val back under Key (missing keys read as 0)
	// and reports the new value. Deltas are uint64 wraparound, so a
	// debit is Add(key, -amount).
	OpAdd
)

// String names the kind as the wire protocol spells it.
func (k OpKind) String() string {
	switch k {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpScan:
		return "scan"
	case OpAdd:
		return "add"
	}
	return "unknown"
}

// Op is one operation of a batch request. The whole batch executes as one
// atomic transaction when applied under an open *core.Tx.
type Op struct {
	Kind OpKind
	Key  uint64
	Val  uint64
}

// Result is one operation's outcome: the value read (Get), the previous
// value (Put/Delete), the entries visited (Scan), or the new value (Add);
// Ok reports key presence (for Scan it is always true).
type Result struct {
	Val uint64
	Ok  bool
}

// Executor runs batch requests, each as one atomic transaction, retrying
// conflict aborts internally until commit. An implementation carries a
// *core.Tx and its SMR handle, so it is used by one goroutine at a time;
// a channel hand-off orders it. The network service's tick workers, a
// follower's replay and the harness's driver sessions all execute
// through this interface.
type Executor interface {
	// ExecBatch applies ops, in request order, as one atomic transaction.
	// res may be nil; otherwise len(res) must equal len(ops) and res[i]
	// is ops[i]'s outcome. A non-nil error means the batch did not commit
	// (executor shut down, not a conflict — conflicts retry internally).
	ExecBatch(ops []Op, res []Result) error
}

// Session is an Executor seen from a client that may be a network away:
// one sender goroutine's stream of batch requests to a store, which may
// refuse one unexecuted. The harness's in-process driver and the service's
// HTTP client both hand these out; the open-loop engine and the chaos
// senders only ever talk to this interface.
type Session interface {
	// Do executes ops as one atomic transaction, filling res[i] per op
	// when res is non-nil (len(res) must equal len(ops) then). It returns
	// ErrOverload or ErrExpired when the request was refused, an error
	// wrapping ErrInDoubt when it may or may not have executed, any other
	// non-nil error for transport or server failures.
	Do(ops []Op, res []Result) error
	// Close releases the session.
	Close() error
}

// ErrOverload is the sentinel a Session returns when the service shed the
// request at admission (bounded txpool full; HTTP 429 on the wire).
var ErrOverload = errors.New("session: request shed by admission control")

// ErrExpired is the sentinel a Session returns when the request's deadline
// passed before the service executed it (HTTP 504 on the wire, or the
// client giving up before sending). The server guarantees an expired
// request never ran.
var ErrExpired = errors.New("session: request deadline expired before execution")

// ErrInDoubt marks an outcome where the request may or may not have
// executed: an attempt reached the network and died without a definitive
// answer. A session wraps the final cause with it (errors.Is still finds
// the cause), and a verifier must treat the request's effects as neither
// committed nor absent.
var ErrInDoubt = errors.New("session: request may have executed")

// Apply executes ops[i] against m under tx into res[i], in request order
// (res may be nil when the caller discards outcomes; otherwise len(res)
// must equal len(ops)). It is the single batch-execution routine shared
// by every consumer of the request API, and the same loop for every map:
// on a ShardedStore each keyed operation routes by its key and a scan
// runs store-wide where it stands.
//
// Callers running Apply inside an open transaction must not include OpScan
// alongside writes: see OpScan. Executors hoist scans out of the
// transaction instead.
func Apply(tx *core.Tx, m TxMap, ops []Op, res []Result) {
	for i := range ops {
		r := ApplyOne(tx, m, ops[i])
		if res != nil {
			res[i] = r
		}
	}
}

// ApplyOne executes a single operation against m under tx.
func ApplyOne(tx *core.Tx, m TxMap, op Op) Result {
	switch op.Kind {
	case OpGet:
		v, ok := m.Get(tx, op.Key)
		return Result{Val: v, Ok: ok}
	case OpPut:
		prev, existed := m.Put(tx, op.Key, op.Val)
		return Result{Val: prev, Ok: existed}
	case OpDelete:
		v, ok := m.Remove(tx, op.Key)
		return Result{Val: v, Ok: ok}
	case OpScan:
		n := int(op.Val)
		seen := uint64(0)
		if n > 0 {
			m.Range(func(_, _ uint64) bool {
				seen++
				n--
				return n > 0
			})
		}
		return Result{Val: seen, Ok: true}
	case OpAdd:
		v, ok := m.Get(tx, op.Key)
		v += op.Val
		m.Put(tx, op.Key, v)
		return Result{Val: v, Ok: ok}
	}
	return Result{}
}
