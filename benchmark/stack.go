package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"time"

	"medley/internal/harness"
	"medley/internal/kv"
	"medley/internal/service"
)

// Store and service sizing: cmd/medleyd's flag defaults, so the benchmark
// measures the daemon as shipped.
const (
	systemSpec  = "medley-hash@8"
	storeShards = 8
	buckets     = 1 << 16 // per shard
	poolSize    = 4096
	tick        = time.Millisecond
	dedupWindow = 4096
	feedShards  = 4
)

// stackKind says how much of the stack is stood up.
type stackKind int

const (
	stackLib  stackKind = iota // KVSystem only
	stackSvc                   // + in-process leader Node (feed attached, no sockets)
	stackHTTP                  // + loopback listener and an HTTPDriver
	stackRepl                  // + a follower Node behind its own listener
)

// stack is the system under test for one workload or ladder rung.
type stack struct {
	ks  keySpace
	sys *harness.KVSystem // the leader's (or only) store

	stopSys func() // stackLib: background maintenance stop

	leader    *service.Node
	leaderSrv *server
	driver    *service.HTTPDriver

	follower    *service.Node
	followerSys *harness.KVSystem
	followerSrv *server
	fdriver     *service.HTTPDriver // prober reads against the follower
	folClient   *http.Client
}

func newSystem() (*harness.KVSystem, error) {
	sys, err := harness.NewSystem(systemSpec, harness.SystemOpts{Buckets: buckets, KeyRange: 1 << 20})
	if err != nil {
		return nil, err
	}
	kvs, ok := sys.(*harness.KVSystem)
	if !ok {
		return nil, fmt.Errorf("benchmark: %s is a %T, not *harness.KVSystem", systemSpec, sys)
	}
	return kvs, nil
}

func serviceConfig() service.Config {
	return service.Config{PoolSize: poolSize, Tick: tick, DedupWindow: dedupWindow}
}

// server is one loopback listener serving a node's handler.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("benchmark: listen: %w", err)
	}
	s := &server{
		srv:  &http.Server{Handler: h, ReadTimeout: 30 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // always ErrServerClosed after close()
	}()
	return s, nil
}

func (s *server) close() {
	_ = s.srv.Close() // drops watch streams too; nothing to drain gracefully
	<-s.done
}

// buildStack constructs, preloads and starts everything kind asks for.
// Its duration is setup_s.
func buildStack(kind stackKind, ks keySpace) (st *stack, err error) {
	st = &stack{ks: ks}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	if st.sys, err = newSystem(); err != nil {
		return st, err
	}
	st.sys.Preload(ks.preloadKeys())
	if kind == stackLib {
		st.stopSys = st.sys.Start()
		return st, nil
	}
	st.leader, err = service.NewNode(service.NodeConfig{
		Backend: st.sys, Service: serviceConfig(), FeedShards: feedShards,
	})
	if err != nil || kind == stackSvc {
		return st, err
	}
	if st.leaderSrv, err = serve(st.leader.Handler()); err != nil {
		return st, err
	}
	if kind == stackRepl {
		if st.followerSys, err = newSystem(); err != nil {
			return st, err
		}
		st.folClient = &http.Client{Transport: &http.Transport{}}
		st.follower, err = service.NewNode(service.NodeConfig{
			Backend: st.followerSys, Service: serviceConfig(), FeedShards: feedShards,
			Follow: st.leaderSrv.url, Client: st.folClient,
		})
		if err != nil {
			return st, err
		}
		if st.followerSrv, err = serve(st.follower.Handler()); err != nil {
			return st, err
		}
		deadline := time.Now().Add(time.Minute)
		for !st.follower.Follower().Ready() {
			if time.Now().After(deadline) {
				return st, errors.New("benchmark: follower not ready after 1m")
			}
			time.Sleep(time.Millisecond)
		}
		st.fdriver = service.NewHTTPDriver(st.followerSrv.url)
		if err = st.fdriver.Start(); err != nil {
			return st, err
		}
	}
	st.driver = service.NewHTTPDriver(st.leaderSrv.url)
	err = st.driver.Start()
	return st, err
}

// close tears the stack down, clients first, leader last: closing the
// follower stops its replay before the leader's feed closes under it.
func (st *stack) close() {
	if st == nil {
		return
	}
	if st.driver != nil {
		_ = st.driver.Close()
	}
	if st.fdriver != nil {
		_ = st.fdriver.Close()
	}
	if st.follower != nil {
		st.follower.Close()
	}
	if st.followerSrv != nil {
		st.followerSrv.close()
	}
	if st.folClient != nil {
		st.folClient.CloseIdleConnections()
	}
	if st.leader != nil {
		st.leader.Close()
	}
	if st.leaderSrv != nil {
		st.leaderSrv.close()
	}
	if st.stopSys != nil {
		st.stopSys()
	}
}

// doFunc runs one transaction; the four workloads and ten rungs differ
// only in which one they time.
type doFunc func(ops []kv.Op, res []kv.Result) error

// newClient returns the top-rung call for this stack. It must be called
// on the goroutine that will use the result: executors and sessions are
// goroutine-bound.
func (st *stack) newClient() (doFunc, error) {
	switch {
	case st.driver != nil:
		s, err := st.driver.NewSession()
		if err != nil {
			return nil, err
		}
		return s.Do, nil
	case st.leader != nil:
		return st.leader.Service().Submit, nil
	default:
		return st.sys.NewExecutor().ExecBatch, nil
	}
}

// accountSum reads every account in 512-get transactions and returns the
// sum mod 2^64. Transfers conserve it.
func (st *stack) accountSum() (uint64, error) {
	do, err := st.newClient()
	if err != nil {
		return 0, err
	}
	const chunk = 512
	ops := make([]kv.Op, 0, chunk)
	res := make([]kv.Result, chunk)
	var sum uint64
	for i := uint64(0); i < st.ks.accounts(); {
		ops = ops[:0]
		for ; i < st.ks.accounts() && len(ops) < chunk; i++ {
			ops = append(ops, kv.Op{Kind: kv.OpGet, Key: st.ks.account(i)})
		}
		if err := do(ops, res[:len(ops)]); err != nil {
			return 0, fmt.Errorf("benchmark: reading accounts: %w", err)
		}
		for _, r := range res[:len(ops)] {
			sum += r.Val // a missing account reads as 0, as OpAdd treats it
		}
	}
	return sum, nil
}

type kvPair struct{ k, v uint64 }

func snapshotOf(sys *harness.KVSystem) []kvPair {
	var out []kvPair
	sys.StateSnapshot(func(k, v uint64) bool {
		out = append(out, kvPair{k, v})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	return out
}

// quiesce waits until the follower has applied every entry the leader's
// feed has admitted. Call it only once the clients have stopped.
func (st *stack) quiesce(timeout time.Duration) error {
	feed, fol := st.leader.Feed(), st.follower.Follower()
	deadline := time.Now().Add(timeout)
	for {
		behind := false
		for s, head := range feed.Heads() {
			if fol.Applied(s) < head {
				behind = true
			}
		}
		if !behind {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("benchmark: follower still behind after %v (lag %d)", timeout, fol.Lag())
		}
		time.Sleep(time.Millisecond)
	}
}

// replicaDiff compares full snapshots of both stores; it returns the
// number of differing keys and one example.
func (st *stack) replicaDiff() (int, string) {
	l, f := snapshotOf(st.sys), snapshotOf(st.followerSys)
	diffs, example := 0, ""
	note := func(format string, a ...any) {
		if diffs++; example == "" {
			example = fmt.Sprintf(format, a...)
		}
	}
	i, j := 0, 0
	for i < len(l) || j < len(f) {
		switch {
		case j == len(f) || (i < len(l) && l[i].k < f[j].k):
			note("key %d only on leader", l[i].k)
			i++
		case i == len(l) || f[j].k < l[i].k:
			note("key %d only on follower", f[j].k)
			j++
		default:
			if l[i].v != f[j].v {
				note("key %d: leader %d, follower %d", l[i].k, l[i].v, f[j].v)
			}
			i++
			j++
		}
	}
	return diffs, example
}
