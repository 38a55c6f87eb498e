package main

import (
	"bytes"
	"context"
	"io"
	"log"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// lockedBuffer is a log sink the daemon goroutine writes and the test
// goroutine polls.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestRunServesAndDrains boots the daemon on an ephemeral port the way an
// operator would, finds the bound address in its serving line, reads
// /healthz, and checks that cancelling the context (what SIGTERM does)
// drains and returns cleanly.
func TestRunServesAndDrains(t *testing.T) {
	var logs lockedBuffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-listen", "127.0.0.1:0", "-system", "medley-hash@2",
			"-buckets", "1024", "-keyrange", "1024"})
	}()

	serving := regexp.MustCompile(`serving Medley-hash-2shard on (127\.0\.0\.1:\d+) as leader`)
	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; time.Sleep(5 * time.Millisecond) {
		if m := serving.FindStringSubmatch(logs.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run returned before serving: %v\n%s", err, logs.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no serving line:\n%s", logs.String())
		}
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"role":"leader"`) {
		t.Fatalf("/healthz = %d %q, %v", resp.StatusCode, body, err)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel = %v, want a clean return", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after its context was cancelled")
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("listener still accepting after run returned")
	}
}

// TestRunRefusals pins the start-up refusals as returned errors: a follower
// without a feed, an unknown system, a store that cannot execute batches,
// an unusable address.
func TestRunRefusals(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-follow", "http://127.0.0.1:1", "-cdc-shards", "0"}, "-follow requires -cdc-shards > 0"},
		{[]string{"-system", "no-such-system"}, "unknown system"},
		{[]string{"-system", "lftt"}, "does not support batch execution"},
		{[]string{"-listen", "256.0.0.1:1", "-buckets", "1024"}, "listen"},
	} {
		err := run(context.Background(), c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) = %v, want an error containing %q", c.args, err, c.want)
		}
	}
}
