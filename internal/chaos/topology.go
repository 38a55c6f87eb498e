package chaos

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"medley/internal/cdc"
	"medley/internal/faultnet"
	"medley/internal/harness"
	"medley/internal/kv"
	"medley/internal/service"
)

// topology is what differs between the deployments Run drives: where
// clients connect, what one fault event does, and how the state that
// survives is produced for verification.
type topology interface {
	// record seeds the run's report record: the system label reports carry
	// (the backend's name, or the spec for a replicated pair), the phase,
	// and the block this topology's faults and verdict fill in.
	record() harness.Record
	// endpoints returns the base URL that takes writes before any fault
	// (the preload target), the base URL the senders' driver starts on,
	// and the read-routing / failover candidates for that driver.
	endpoints() (direct, traffic string, replicas []string)
	// arm marks the end of setup: the store is loaded, chaos may begin.
	arm()
	// fault performs one scheduled fault event start to finish, recording
	// it in rec; keys whose acked writes it knowingly destroyed go to lost.
	fault(rec *harness.Record, lost *harness.WireJournal) error
	// settle runs once the senders have stopped and yields the quiescent
	// state to verify.
	settle(rec *harness.Record) (harness.Snapshotter, error)
	// close tears down whatever is still up; safe after any failure.
	close()
}

func deploy(cfg *Config) (topology, error) {
	if cfg.Restarts > 0 {
		return deployDaemon(cfg)
	}
	return deployPair(cfg)
}

// newBackend builds one fresh registry system as a service backend.
func newBackend(cfg *Config) (service.Backend, harness.Caps, error) {
	sys, err := harness.NewSystem(cfg.System, cfg.SystemOpts)
	if err != nil {
		return nil, harness.Caps{}, fmt.Errorf("chaos: %w", err)
	}
	be, ok := sys.(service.Backend)
	if !ok {
		return nil, harness.Caps{}, fmt.Errorf("chaos: system %q has no batch executor", cfg.System)
	}
	caps := harness.Capabilities(sys)
	if caps.Snapshot == nil {
		return nil, harness.Caps{}, fmt.Errorf("chaos: system %q cannot snapshot (needed for verification and follower bootstrap)", cfg.System)
	}
	return be, caps, nil
}

// host is one node incarnation behind a real TCP listener.
type host struct {
	addr string
	srv  *http.Server
	node *service.Node
}

// startNode builds a node over be and serves it on addr; follow "" starts a
// leader. The first bind may use ":0"; rebinding a dead incarnation's port
// retries briefly, because the old listener's close races the rebind.
func startNode(cfg *Config, be service.Backend, addr, follow string) (*host, error) {
	n, err := service.NewNode(service.NodeConfig{
		Backend:    be,
		Service:    cfg.Service,
		FeedShards: cfg.FeedShards,
		Follow:     follow,
		MaxLag:     cfg.MaxLag,
		MaxSilence: cfg.MaxSilence,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	var ln net.Listener
	for i := 0; i < 100; i++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		n.Close()
		return nil, fmt.Errorf("chaos: bind %s: %w", addr, err)
	}
	srv := &http.Server{Handler: n.Handler()}
	go func() { _ = srv.Serve(ln) }() // returns when kill closes srv
	return &host{addr: ln.Addr().String(), srv: srv, node: n}, nil
}

func (h *host) url() string { return "http://" + h.addr }

// kill tears the incarnation down the way a SIGKILL looks from outside:
// srv.Close resets every live connection mid-request (clients and watch
// streams get no answer), then the pipeline drains so the store — and a
// node's feed — is quiescent for what follows. The dedup window dies with
// the incarnation, as it would with a process. Idempotent, and a no-op on
// a host that never came up.
func (h *host) kill() {
	if h == nil {
		return
	}
	_ = h.srv.Close()
	h.node.Close()
}

// ------------------------------------------------------------ crash-restart
//
// "SIGKILL" here is the in-process equivalent of the real thing: the
// simulated pmem device lives in this process's DRAM, so the store cannot
// literally be killed as a subprocess. The wire-visible failure
// (connection resets, downtime, an empty dedup window afterwards) is
// identical, and the durable image crossing the crash is the same one a
// real restart would reload. CI separately smoke-tests a real medleyd
// process under kill -9 for the process-level half.

type daemonTopo struct {
	cfg   *Config
	be    service.Backend // survives every incarnation, as its durable image does
	caps  harness.Caps
	d     *host
	proxy *faultnet.Proxy // client path
}

func deployDaemon(cfg *Config) (topology, error) {
	be, caps, err := newBackend(cfg)
	if err != nil {
		return nil, err
	}
	if !caps.CanRecover() {
		return nil, fmt.Errorf("chaos: system %q is not durable (crash-restart needs a recoverable backend)", cfg.System)
	}
	t := &daemonTopo{cfg: cfg, be: be, caps: caps}
	if err := t.boot("127.0.0.1:0"); err != nil {
		return nil, err
	}
	if t.proxy, err = faultnet.New("127.0.0.1:0", t.d.addr); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// boot starts a fresh incarnation over the surviving backend.
func (t *daemonTopo) boot(addr string) error {
	d, err := startNode(t.cfg, t.be, addr, "")
	if err == nil {
		t.d = d
	}
	return err
}

// crash kills the incarnation and puts the store through the crash
// machinery of the engine's crash phases: Persist barrier, simulated
// device crash, timed recovery.
func (t *daemonTopo) crash(rec *harness.Record) {
	t.d.kill()
	t.caps.Recovery.Persist()
	begin := time.Now()
	t.caps.Recovery.CrashAndRecover()
	rec.Recovery.RecoveryNs += int64(time.Since(begin))
}

func (t *daemonTopo) record() harness.Record {
	return harness.Record{System: t.be.Name(), PhaseResult: harness.PhaseResult{Phase: "chaos"},
		Recovery: &harness.RecoveryResult{Recoverable: true}}
}

func (t *daemonTopo) endpoints() (string, string, []string) {
	return t.d.url(), "http://" + t.proxy.Addr(), nil
}

func (t *daemonTopo) arm() { t.proxy.Set(t.cfg.Faults) }

func (t *daemonTopo) fault(rec *harness.Record, _ *harness.WireJournal) error {
	begin := time.Now()
	t.proxy.CutConnections()
	t.crash(rec)
	if err := t.boot(t.d.addr); err != nil {
		return err
	}
	rec.Service.DowntimeNs += int64(time.Since(begin))
	rec.Service.Restarts++
	return nil
}

// settle crashes once more: the verification target is the RECOVERED
// state, so the last incarnation goes down the way the mid-run ones did.
func (t *daemonTopo) settle(rec *harness.Record) (harness.Snapshotter, error) {
	t.crash(rec)
	return t.caps.Snapshot, nil
}

func (t *daemonTopo) close() {
	t.d.kill()
	if t.proxy != nil {
		t.proxy.Close()
	}
}

// --------------------------------------------------------------- replicated
//
// Failover: the leader is killed mid-traffic, the follower is promoted,
// and a FRESH follower (empty backend, snapshot bootstrap) starts on the
// dead leader's address following the new leader. Acked writes the
// follower had not replayed at promotion are lost by design in an
// asynchronous protocol; they are enumerated from the dead leader's feed
// suffix and tainted, so the final check measures the loss instead of
// hiding it — and everything OUTSIDE the taint set must match exactly.
//
// Partition: a faultnet proxy sits on the follower's replication path.
// Each episode stalls the feed, replay lag builds past MaxLag, and follower
// reads must be rejected as stale (the driver falls back to the leader and
// counts the rejection); Heal cuts the stalled stream and the follower
// reconnects from its cursor and catches up. Nothing is ever lost in this
// mode — the final check demands zero divergence with zero tainted keys.

type pairTopo struct {
	cfg   *Config
	proxy *faultnet.Proxy // replication path; partition runs only

	mu               sync.Mutex // the fault loop rotates the pair under the sampler
	leader, follower *host

	maxLag      atomic.Uint64
	samplerStop chan struct{}
	stopOnce    sync.Once
	samplerWG   sync.WaitGroup
}

func deployPair(cfg *Config) (topology, error) {
	t := &pairTopo{cfg: cfg, samplerStop: make(chan struct{})}
	var err error
	if t.leader, err = startFresh(cfg, "127.0.0.1:0", ""); err != nil {
		return nil, err
	}
	follow := t.leader.url()
	if cfg.Partitions > 0 {
		if t.proxy, err = faultnet.New("127.0.0.1:0", t.leader.addr); err != nil {
			t.close()
			return nil, err
		}
		follow = "http://" + t.proxy.Addr()
	}
	if t.follower, err = startFresh(cfg, "127.0.0.1:0", follow); err != nil {
		t.close()
		return nil, err
	}
	// Offer no load before the follower's bootstrap, bounded.
	for deadline := time.Now().Add(10 * time.Second); !t.follower.node.Follower().Ready(); {
		if time.Now().After(deadline) {
			t.close()
			return nil, fmt.Errorf("chaos: follower never bootstrapped")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return t, nil
}

// startFresh serves a node over a fresh backend. The backend is fresh per
// incarnation — a killed leader's state dies with it, and its replacement
// bootstraps over the wire like any follower.
func startFresh(cfg *Config, addr, follow string) (*host, error) {
	be, _, err := newBackend(cfg)
	if err != nil {
		return nil, err
	}
	return startNode(cfg, be, addr, follow)
}

func (t *pairTopo) pair() (leader, follower *host) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.leader, t.follower
}

// replayLag is the TRUE replay lag of the current pair — the leader's feed
// heads minus the follower's applied cursors, the largest shard gap. The
// follower's own Lag() cannot see a partition (its known heads freeze with
// the feed) and reads zero whenever its known head is stale; the runner
// holds both nodes, so it measures what an outside observer would. Cursors
// advance only after a batch is applied locally, so lag 0 means the
// follower's state is complete. ready is false while the follower
// bootstraps (its cursors are not yet anchored in the leader's sequences).
func (t *pairTopo) replayLag() (lag uint64, ready bool) {
	l, f := t.pair()
	fol := f.node.Follower()
	if fol == nil || !fol.Ready() {
		return 0, false
	}
	feed := l.node.Feed()
	for s := 0; s < feed.ShardCount(); s++ {
		if h, a := feed.Head(s), fol.Applied(s); h > a && h-a > lag {
			lag = h - a
		}
	}
	return lag, true
}

func (t *pairTopo) record() harness.Record {
	return harness.Record{System: t.cfg.System, PhaseResult: harness.PhaseResult{Phase: "replica-chaos"},
		Replica: &harness.ReplicaRecord{}}
}

// endpoints: the two ADDRESSES are stable for the whole run; roles rotate
// between them, and the driver's failover sweeps follow the rotation.
func (t *pairTopo) endpoints() (string, string, []string) {
	l, f := t.leader.url(), t.follower.url()
	return l, l, []string{l, f}
}

// arm starts the replay-lag sampler (after preload, whose burst is not the
// lag under test).
func (t *pairTopo) arm() {
	t.samplerWG.Add(1)
	go func() {
		defer t.samplerWG.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-t.samplerStop:
				return
			case <-tick.C:
				if lag, ready := t.replayLag(); ready && lag > t.maxLag.Load() {
					t.maxLag.Store(lag) // single writer
				}
			}
		}
	}()
}

func (t *pairTopo) stopSampler() {
	t.stopOnce.Do(func() { close(t.samplerStop) })
	t.samplerWG.Wait()
}

func (t *pairTopo) fault(rec *harness.Record, lost *harness.WireJournal) error {
	if t.cfg.Partitions > 0 {
		t.proxy.Set(faultnet.Faults{Partition: true})
		time.Sleep(t.cfg.PartitionDur)
		t.proxy.Heal()
		rec.Replica.Partitions++
		return nil
	}
	// Promotion happens the instant the connections die — a real SIGKILL
	// does not wait for the victim to drain; the drain only exists so the
	// dead feed holds every acked write for the lost-suffix accounting,
	// and it must not stretch the unavailability window.
	begin := time.Now()
	dead, heir := t.pair()
	_ = dead.srv.Close()
	heir.node.Promote()
	dead.node.Close()
	ops, err := lostSuffix(dead.node, heir.node)
	if err != nil {
		return err
	}
	lost.Taint(ops)
	rec.Replica.LostWrites += len(ops)
	fresh, err := startFresh(t.cfg, dead.addr, heir.url())
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.leader, t.follower = heir, fresh
	t.mu.Unlock()
	rec.Service.DowntimeNs += int64(time.Since(begin))
	rec.Replica.Failovers++
	return nil
}

// lostSuffix enumerates the feed entries of a killed-and-drained leader
// that follower fol never applied: per shard, everything past the
// follower's replay cursor up to the leader's head. The feed's rings stay
// readable after Close precisely for this accounting.
func lostSuffix(dead, fol *service.Node) ([]kv.Op, error) {
	var ops []kv.Op
	buf := make([]cdc.Entry, 0, 512)
	feed := dead.Feed()
	for shard := 0; shard < feed.ShardCount(); shard++ {
		from := fol.Follower().Applied(shard) + 1
		for head := feed.Head(shard); from <= head; {
			var err error
			if buf, err = feed.ReadFrom(shard, from, buf[:0]); err != nil {
				return nil, fmt.Errorf("chaos: lost-suffix shard %d from %d: %w (the feed ring is too small for the run's write volume)", shard, from, err)
			}
			if len(buf) == 0 {
				break
			}
			for _, e := range buf {
				ops = append(ops, kv.Op{Kind: kv.OpPut, Key: e.Key})
			}
			from = buf[len(buf)-1].Seq + 1
		}
	}
	return ops, nil
}

// settle waits for the final follower to catch up: replication is
// asynchronous, and the divergence check targets the caught-up replica.
func (t *pairTopo) settle(rec *harness.Record) (harness.Snapshotter, error) {
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		lag, ready := t.replayLag()
		if ready && lag == 0 {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("chaos: follower never caught up (replay lag %d)", lag)
		}
	}
	t.stopSampler()
	rec.Replica.MaxReplayLag = t.maxLag.Load()
	_, f := t.pair()
	// newBackend vetted the capability when the node was built.
	return f.node.Service().Backend().(harness.Snapshotter), nil
}

func (t *pairTopo) close() {
	t.stopSampler()
	l, f := t.pair()
	l.kill()
	f.kill()
	if t.proxy != nil {
		t.proxy.Close()
	}
}
