// Command medleyd serves the stack's transactional stores (internal/store)
// over HTTP as one service.Node: POST /v1/batch executes a multi-key
// transaction through the service pipeline (coalescing txpool, tick-batch
// execution, admission control, a request-ID dedup window), GET /metrics
// exports the stack's counters, GET /healthz reports liveness and role.
//
// Whether a node is followable is decided by the system, not by a flag.
// Over a system whose executors can publish one, the node carries a
// commit-ordered change feed: GET /v1/watch streams committed writes per
// shard and GET /v1/snapshot serves bootstrap state (a JSON header, binary
// frames of key/value pairs, a JSON trailer; replica/wire.go), so another
// medleyd can follow this one. A system that cannot publish a feed (plain-skip,
// txoff-skip) is served by a leader without one — no /v1/watch, no
// feed_shards on /healthz — and the start-up log says so; -follow with
// such a system is refused.
// With -follow the process starts as a follower of the leader
// at that URL: it replays the leader's feed on executors of its own
// store (beside its request pipeline, so replay waits for no tick),
// rejects writes with 503 "not leader", serves bounded-staleness reads
// (409 once replay lag exceeds -max-lag or the feed has been silent
// past -max-silence), and promotes itself — manually via POST
// /v1/promote, or automatically after -promote-after consecutive failed
// leader round trips. See internal/service and internal/replica.
//
// -system takes the one spec grammar, base{-nopool|-nofast|-persistoff}[@N],
// over the bases the stack itself builds — medley-*, txmontage-*, plain-skip,
// txoff-skip; -list prints each with the suffixes it accepts. The competitor
// STMs the harness measures them against (lftt, tdsl, onefile-*, ponefile-*)
// are not linked into the daemon. medley-bench -target drives them
// in-process with no pipeline; only the chaos runner puts one (POneFile)
// behind the same pipeline, in-process.
//
// Usage:
//
//	medleyd -listen :7654 -system medley-hash@8 -pool 4096 -tick 1ms
//	medleyd -listen :7655 -system medley-hash@8 -follow http://127.0.0.1:7654 -promote-after 5
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"medley/internal/service"
	"medley/internal/store"
)

func main() {
	// Serve until SIGINT/SIGTERM, then drain: in-flight transactions
	// finish, new ones get connection refused.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatalf("medleyd: %v", err)
	}
}

// run is the daemon: parse args, build the store and its pipeline, serve
// until ctx is cancelled, drain. Every refusal is a returned error.
func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("medleyd", flag.ContinueOnError)
	var (
		listen   = fs.String("listen", ":7654", "address to serve on")
		system   = fs.String("system", "medley-hash@8", "system spec: base{-suffix}[@N] over the bases -list prints")
		list     = fs.Bool("list", false, "list the systems medleyd serves with the suffixes each accepts and exit")
		buckets  = fs.Int("buckets", 1<<16, "hash buckets for hash-structured systems")
		keyRange = fs.Uint64("keyrange", 1<<20, "key range hint (sizes simulated NVM regions)")
		pool     = fs.Int("pool", 4096, "txpool bound; arrivals beyond it are shed with 429")
		tick     = fs.Duration("tick", time.Millisecond, "batch tick period")
		workers  = fs.Int("workers", 0, "executor goroutines per tick (0 = GOMAXPROCS)")
		dedup    = fs.Int("dedup", 4096,
			"idempotency window: how many request-ID outcomes are remembered to answer retries")
		follow = fs.String("follow", "",
			"start as a follower replaying the leader at this base URL (the system must publish a change feed)")
		maxLag = fs.Uint64("max-lag", 4096,
			"follower staleness bound: reads answer 409 while replay lag exceeds this many entries")
		maxSilence = fs.Duration("max-silence", time.Second,
			"follower staleness bound a partition cannot fool: reads answer 409 once the leader has been silent this long (negative disables)")
		promoteAfter = fs.Int("promote-after", 0,
			"auto-promote the follower to leader after this many consecutive failed leader round trips (0 = manual POST /v1/promote only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, line := range store.Systems.Usage() {
			fmt.Println(line)
		}
		return nil
	}
	be, err := store.New(*system, store.Opts{Buckets: *buckets, KeyRange: *keyRange})
	if err != nil {
		return err
	}
	node, err := service.NewNode(service.NodeConfig{
		Backend: be,
		Service: service.Config{
			PoolSize:    *pool,
			Tick:        *tick,
			Workers:     *workers,
			DedupWindow: *dedup,
		},
		Follow:       *follow,
		MaxLag:       *maxLag,
		MaxSilence:   *maxSilence,
		PromoteAfter: *promoteAfter,
	})
	if err != nil {
		return err
	}
	defer node.Close()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:     node.Handler(),
		ReadTimeout: 30 * time.Second,
		// No write timeout: /v1/watch streams hold their response open for
		// the life of the follower. Batch responses are bounded by the
		// pipeline's own deadlines.
		WriteTimeout: 0,
	}
	feed := "no change feed: not followable"
	if f := node.Feed(); f != nil {
		feed = fmt.Sprintf("feed-shards=%d", f.ShardCount())
		// Shutdown waits for connections to go idle and a watch stream never
		// does on its own: end the streams first. Publishing to the closed
		// feed still works, so admitted batches finish and are answered.
		srv.RegisterOnShutdown(f.Close)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	cfg := node.Service().Config()
	log.Printf("medleyd: serving %s on %s as %s (pool=%d tick=%v workers=%d dedup=%d, %s)",
		be.Name(), ln.Addr(), node.Role(), cfg.PoolSize, cfg.Tick, cfg.Workers, cfg.DedupWindow, feed)
	if *follow != "" {
		log.Printf("medleyd: following %s (max-lag=%d max-silence=%v promote-after=%d)",
			*follow, *maxLag, *maxSilence, *promoteAfter)
	}

	select {
	case err := <-errCh:
		return err // Serve never returns nil; nothing has shut it down yet
	case <-ctx.Done():
		log.Printf("medleyd: shutting down")
		shutCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Printf("medleyd: shutdown: %v", err)
		}
		<-errCh // Serve has returned http.ErrServerClosed
		return nil
	}
}
