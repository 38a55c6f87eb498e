package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"medley/internal/cdc"
	"medley/internal/core"
	"medley/internal/ebr"
	"medley/internal/kv"
	"medley/internal/service"
	"medley/internal/structures/mhash"
)

// The ladder replays one seeded stream of service-mix transactions,
// single client, through ten rungs on fresh identical stores. Nothing
// contends, so rungs are additive: because transaction i is the same ops
// on every rung, rung k's self time is the median over i of
// dur(k, i) − dur(k−1, i). The additive chain starts at r1; r0 (an empty
// Begin/End) is a part of r1 measured on its own.
//
// r0–r5 cost microseconds per transaction and replay the whole stream;
// r6–r9 wait for the 1 ms tick on every call and replay only a prefix,
// and pairing uses the common prefix.

type ladderSize struct {
	fast, slow int // transactions replayed on r0–r5 and on r6–r9
	warm       int // unmeasured transactions replayed first, every rung the same
}

var (
	fullLadder  = ladderSize{fast: 50_000, slow: 2000, warm: 200}
	smokeLadder = ladderSize{fast: 1000, slow: 40, warm: 20}
)

// rung is one level of the ladder.
type rung struct {
	name  string
	slow  bool
	build func(ks keySpace) (*rungInstance, error)
}

// rungInstance is a built rung: call is what gets timed. scaffold, when
// set, repeats only the part of call that is the benchmark's own
// scaffolding (r7's in-memory request and recorder), so that its
// allocations can be counted apart and subtracted. Its time stays in the
// span: every slow rung's caller waits for the next tick, so untimed work
// before a call would come off the measured wait.
type rungInstance struct {
	call     doFunc
	scaffold func(ops []kv.Op)
	close    func()
}

// r0BatchSize empty Begin/End pairs share one span: a pair costs about
// as much as reading the clock.
const r0BatchSize = 64

// bareTx is what r1–r3 share: a TxManager with pooling on, an EBR domain
// and one registered Tx, wired exactly as harness.KVSystem wires its
// workers.
type bareTx struct {
	mgr *core.TxManager
	tx  *core.Tx
	h   *ebr.Handle

	ops  []kv.Op
	res  []kv.Result
	body func() error
}

func newBareTx() *bareTx {
	b := &bareTx{mgr: core.NewTxManager()}
	b.mgr.EnablePooling()
	b.h = ebr.New(256).Register()
	return b
}

// register must follow the structure's construction only in that the Tx
// is bound to the calling goroutine.
func (b *bareTx) register(body func() error) {
	b.tx = b.mgr.Register()
	b.tx.SetSMR(b.h)
	b.body = body
}

func (b *bareTx) do(ops []kv.Op, res []kv.Result) error {
	b.ops, b.res = ops, res
	b.h.Enter()
	err := b.tx.RunRetry(b.body)
	b.h.Exit()
	return err
}

// totalBuckets gives a single map the bucket count the 8-shard store has
// in total, so chains are equally long on r1–r2 and r3+.
const totalBuckets = storeShards * buckets

func preloadMap(ks keySpace, put func(k uint64)) {
	for _, k := range ks.preloadKeys() {
		put(k)
	}
}

func stackRung(kind stackKind, client func(st *stack) (*rungInstance, error)) func(keySpace) (*rungInstance, error) {
	return func(ks keySpace) (*rungInstance, error) {
		st, err := buildStack(kind, ks)
		if err != nil {
			return nil, err
		}
		ri, err := client(st)
		if err != nil {
			st.close()
			return nil, err
		}
		ri.close = st.close
		return ri, nil
	}
}

func topClient(st *stack) (*rungInstance, error) {
	do, err := st.newClient()
	return &rungInstance{call: do}, err
}

var rungs = []rung{
	{name: "r0.core.begin_end", build: func(keySpace) (*rungInstance, error) {
		b := newBareTx()
		b.register(nil)
		return &rungInstance{call: func([]kv.Op, []kv.Result) error {
			b.h.Enter()
			for i := 0; i < r0BatchSize; i++ {
				b.tx.Begin()
				if err := b.tx.End(); err != nil {
					return err
				}
			}
			b.h.Exit()
			return nil
		}}, nil
	}},
	{name: "r1.structures.mhash", build: func(ks keySpace) (*rungInstance, error) {
		b := newBareTx()
		m := mhash.NewMap[uint64](b.mgr, totalBuckets)
		preloadMap(ks, func(k uint64) { m.Put(nil, k, k) })
		b.register(func() error {
			for i, op := range b.ops {
				var r kv.Result
				switch op.Kind {
				case kv.OpGet:
					r.Val, r.Ok = m.Get(b.tx, op.Key)
				case kv.OpPut:
					r.Val, r.Ok = m.Put(b.tx, op.Key, op.Val)
				case kv.OpDelete:
					r.Val, r.Ok = m.Remove(b.tx, op.Key)
				case kv.OpAdd:
					r.Val, r.Ok = m.Get(b.tx, op.Key)
					r.Val += op.Val
					m.Put(b.tx, op.Key, r.Val)
				}
				b.res[i] = r
			}
			return nil
		})
		return &rungInstance{call: b.do}, nil
	}},
	{name: "r2.kv.txmap", build: func(ks keySpace) (*rungInstance, error) {
		b := newBareTx()
		m, err := kv.New("hash", kv.Options{Mgr: b.mgr, Buckets: totalBuckets})
		if err != nil {
			return nil, err
		}
		preloadMap(ks, func(k uint64) { m.Put(nil, k, k) })
		b.register(func() error {
			kv.Apply(b.tx, m, b.ops, b.res)
			return nil
		})
		return &rungInstance{call: b.do}, nil
	}},
	{name: "r3.kv.sharded", build: func(ks keySpace) (*rungInstance, error) {
		b := newBareTx()
		store, err := kv.NewShardedNamed("hash", storeShards, kv.Options{Mgr: b.mgr, Buckets: buckets})
		if err != nil {
			return nil, err
		}
		preloadMap(ks, func(k uint64) { store.Put(nil, k, k) })
		var m kv.TxMap
		b.register(func() error {
			kv.Apply(b.tx, m, b.ops, b.res)
			return nil
		})
		m = kv.Bind(store, b.tx)
		return &rungInstance{call: b.do}, nil
	}},
	{name: "r4.harness.exec", build: stackRung(stackLib, topClient)},
	{name: "r5.cdc.publish", build: stackRung(stackLib, func(st *stack) (*rungInstance, error) {
		ex := st.sys.NewExecutor()
		fa, ok := ex.(interface{ SetChangeFeed(*cdc.Feed) bool })
		if !ok || !fa.SetChangeFeed(cdc.New(feedShards, 0, nil)) {
			return nil, fmt.Errorf("benchmark: %T takes no change feed", ex)
		}
		return &rungInstance{call: ex.ExecBatch}, nil
	})},
	{name: "r6.service.submit", slow: true, build: stackRung(stackSvc, topClient)},
	{name: "r7.service.handler", slow: true, build: stackRung(stackSvc, func(st *stack) (*rungInstance, error) {
		h := st.leader.Handler()
		var body bytes.Buffer
		scaffold := func(ops []kv.Op) (*httptest.ResponseRecorder, *http.Request) {
			wire := service.BatchRequest{Ops: make([]service.WireOp, len(ops))}
			for i, op := range ops {
				wire.Ops[i] = service.WireOp{Op: op.Kind.String(), Key: op.Key, Val: op.Val}
			}
			body.Reset()
			_ = json.NewEncoder(&body).Encode(wire) // bytes.Buffer: cannot fail
			return httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body.Bytes()))
		}
		return &rungInstance{
			call: func(ops []kv.Op, _ []kv.Result) error {
				rec, req := scaffold(ops)
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					return fmt.Errorf("benchmark: handler answered %d: %s", rec.Code, rec.Body.String())
				}
				return nil
			},
			scaffold: func(ops []kv.Op) { scaffold(ops) },
		}, nil
	})},
	{name: "r8.service.http", slow: true, build: stackRung(stackHTTP, topClient)},
	{name: "r9.replica.leader_tax", slow: true, build: stackRung(stackRepl, topClient)},
}

// ladderRun is the raw outcome of one ladder replay.
type ladderRun struct {
	dur    [][]int64 // [rung][txn] ns; slow rungs hold only the prefix
	allocs []float64 // [rung] heap objects allocated per transaction
}

// ladderStream materializes the replayed transactions once; every rung
// sees these exact slices.
func ladderStream(seed uint64, ks keySpace, n int) [][]kv.Op {
	gen := newGenerator(streamService, ks, seed, 1<<20) // a client id no workload uses
	out := make([][]kv.Op, n)
	var buf []kv.Op
	for i := range out {
		buf = gen.next(buf)
		out[i] = append([]kv.Op(nil), buf...)
	}
	return out
}

func runLadder(seed uint64, ks keySpace, size ladderSize, tr *tracer) (*ladderRun, error) {
	warm := ladderStream(seed+1, ks, size.warm)
	txns := ladderStream(seed, ks, size.fast)
	run := &ladderRun{dur: make([][]int64, len(rungs)), allocs: make([]float64, len(rungs))}
	res := make([]kv.Result, 16)
	epoch := time.Now()
	for k, rg := range rungs {
		n := size.fast
		if rg.slow {
			n = size.slow
		}
		parent := ""
		if k+1 < len(rungs) {
			parent = rungs[k+1].name
		}
		id := tr.rung(rg.name, parent)
		settleHeap()
		ri, err := rg.build(ks)
		if err != nil {
			return nil, fmt.Errorf("benchmark: building %s: %w", rg.name, err)
		}
		dur := make([]int64, n)
		at := len(tr.spans)
		tr.spans = append(tr.spans, make([]span, n)...)
		err = func() error {
			if ri.close != nil {
				defer ri.close()
			}
			for _, ops := range warm {
				if err := ri.call(ops, res[:len(ops)]); err != nil {
					return err
				}
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i, ops := range txns[:n] {
				t0 := time.Now()
				err := ri.call(ops, res[:len(ops)])
				t1 := time.Now()
				if err != nil {
					return err
				}
				dur[i] = int64(t1.Sub(t0))
				tr.spans[at+i] = span{rung: id, seq: uint32(i), start: int64(t0.Sub(epoch)), end: int64(t1.Sub(epoch))}
			}
			runtime.ReadMemStats(&m1)
			mallocs := m1.Mallocs - m0.Mallocs
			if ri.scaffold != nil {
				for _, ops := range txns[:n] {
					ri.scaffold(ops)
				}
				runtime.ReadMemStats(&m0)
				mallocs -= m0.Mallocs - m1.Mallocs
			}
			run.allocs[k] = float64(mallocs) / float64(n)
			return nil
		}()
		if err != nil {
			return nil, fmt.Errorf("benchmark: replaying %s: %w", rg.name, err)
		}
		run.dur[k] = dur
	}
	return run, nil
}

// pairedSelf is the ladder's self-time definition: the median over the
// common prefix of upper[i] − lower[i].
func pairedSelf(upper, lower []int64) float64 {
	n := len(upper)
	if len(lower) < n {
		n = len(lower)
	}
	d := make([]float64, n)
	for i := range d {
		d[i] = float64(upper[i] - lower[i])
	}
	return median(d)
}

func medianOf(v []int64) float64 {
	f := make([]float64, len(v))
	for i, x := range v {
		f[i] = float64(x)
	}
	return median(f)
}

// metrics turns a replay into the ladder's per-layer metrics.
func (l *ladderRun) metrics() map[string]float64 {
	self := make([]float64, len(rungs)) // ns; self[1] is r1's whole duration
	self[1] = medianOf(l.dur[1])
	sum := self[1]
	for k := 2; k < len(rungs); k++ {
		self[k] = pairedSelf(l.dur[k], l.dur[k-1])
		sum += self[k]
	}
	top := medianOf(l.dur[len(rungs)-1])
	us := func(k int) float64 { return self[k] / 1e3 }
	da := func(k int) float64 { return l.allocs[k] - l.allocs[k-1] }
	return map[string]float64{
		"core.begin_end_ns":               medianOf(l.dur[0]) / r0BatchSize,
		"structures.mhash_txn_us":         us(1),
		"structures.mhash_allocs_per_txn": l.allocs[1],
		"kv.txmap_self_us":                us(2),
		"kv.sharded_self_us":              us(3),
		"harness.exec_self_us":            us(4),
		"harness.exec_allocs_per_txn":     da(4),
		"cdc.publish_self_us":             us(5),
		"cdc.publish_allocs_per_txn":      da(5),
		"service.submit_self_us":          us(6),
		"service.submit_allocs_per_txn":   da(6),
		"service.handler_self_us":         us(7),
		"service.handler_allocs_per_txn":  da(7),
		"service.http_self_us":            us(8),
		"service.http_allocs_per_txn":     da(8),
		"replica.leader_tax_us":           us(9),
		"ladder.top_rung_p50_us":          top / 1e3,
		"ladder.self_sum_share":           sum / top,
	}
}
