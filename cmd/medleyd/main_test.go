package main

import (
	"bufio"
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

	"medley/internal/store"
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

// boot runs the daemon on an ephemeral port the way an operator would and
// finds the bound address in its serving line, which must name system and
// role. It returns the address, the log so far, and the channel run's
// result arrives on once cancel (what SIGTERM does) is called.
func boot(t *testing.T, system, role string, args ...string) (addr string, logs *lockedBuffer, cancel func(), done chan error) {
	t.Helper()
	logs = &lockedBuffer{}
	log.SetOutput(logs)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	done = make(chan error, 1)
	go func() {
		done <- run(ctx, append([]string{"-listen", "127.0.0.1:0", "-buckets", "1024", "-keyrange", "1024"}, args...))
	}()

	serving := regexp.MustCompile(`serving ` + regexp.QuoteMeta(system) + ` on (127\.0\.0\.1:\d+) as ` + role)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if m := serving.FindStringSubmatch(logs.String()); m != nil {
			return m[1], logs, cancel, done
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
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestRunServesAndDrains boots the daemon, reads /healthz, and checks that
// cancelling the context drains and returns cleanly within a second even
// with a follower's watch stream open: the stream ends with a clean EOF, a
// batch admitted before the cancel is still answered, and the shutdown
// logs no error.
func TestRunServesAndDrains(t *testing.T) {
	// A long tick, so the batch below is still pooled when the cancel lands.
	addr, logs, cancel, done := boot(t, "Medley-hash-2shard", "leader", "-system", "medley-hash@2", "-tick", "250ms")
	base := "http://" + addr

	if code, body := get(t, base+"/healthz"); code != http.StatusOK ||
		!strings.Contains(body, `"role":"leader"`) || !strings.Contains(body, `"feed_shards":4`) {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	watch, err := http.Get(base + "/v1/watch?shard=0&from=1")
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Body.Close()
	stream := bufio.NewReader(watch.Body)
	if line, err := stream.ReadString('\n'); err != nil || !strings.Contains(line, `"hb":true`) {
		t.Fatalf("watch stream opened with %q, %v; want a heartbeat", line, err)
	}
	streamEnd := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, stream)
		streamEnd <- err
	}()

	batchCode := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/batch", "application/json",
			strings.NewReader(`{"ops":[{"op":"put","key":1,"val":42}]}`))
		if err != nil {
			t.Errorf("/v1/batch across shutdown: %v", err)
			batchCode <- 0
			return
		}
		resp.Body.Close()
		batchCode <- resp.StatusCode
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if _, body := get(t, base+"/metrics"); strings.Contains(body, `{"name":"svc_accepted","value":1}`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch never admitted")
		}
	}

	cancel()
	cancelled := time.Now()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel = %v, want a clean return", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after its context was cancelled")
	}
	if took := time.Since(cancelled); took >= time.Second {
		t.Errorf("run took %v to return with a watch stream open, want < 1s", took)
	}
	if err := <-streamEnd; err != nil {
		t.Errorf("watch stream ended with %v, want a clean EOF", err)
	}
	if code := <-batchCode; code != http.StatusOK {
		t.Errorf("batch admitted before the cancel answered %d, want 200", code)
	}
	if strings.Contains(logs.String(), "shutdown:") {
		t.Errorf("shutdown logged an error:\n%s", logs.String())
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still accepting after run returned")
	}
}

// TestRunServesFeedlessSystemUnfollowable pins the dead-feed fix at the
// daemon: a system whose executors cannot publish a change feed is served
// by a leader without one — batches execute, the log says the node is not
// followable, and nothing advertises or serves a feed a follower could
// attach to.
func TestRunServesFeedlessSystemUnfollowable(t *testing.T) {
	addr, logs, _, _ := boot(t, "Original-skip", "leader", "-system", "plain-skip")
	base := "http://" + addr

	if !strings.Contains(logs.String(), "no change feed: not followable") {
		t.Errorf("log does not say the node is not followable:\n%s", logs.String())
	}
	resp, err := http.Post(base+"/v1/batch", "application/json",
		strings.NewReader(`{"ops":[{"op":"put","key":1,"val":42},{"op":"get","key":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"val":42`) {
		t.Errorf("/v1/batch = %d %q", resp.StatusCode, body)
	}
	if code, body := get(t, base+"/healthz"); code != http.StatusOK ||
		!strings.Contains(body, `"role":"leader"`) || strings.Contains(body, "feed_shards") {
		t.Errorf("/healthz = %d %q, want 200, role leader and no feed_shards", code, body)
	}
	if code, _ := get(t, base+"/v1/watch?shard=0"); code != http.StatusNotFound {
		t.Errorf("/v1/watch = %d, want 404", code)
	}
}

// TestRunRefusals pins the start-up refusals as returned errors: a follower
// over a system that cannot publish a change feed, an unknown system, a competitor STM the daemon does not link (refused
// with the list of what it serves), an unusable address.
func TestRunRefusals(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-follow", "http://127.0.0.1:1", "-system", "plain-skip"}, "cannot publish a change feed"},
		{[]string{"-system", "no-such-system"}, "unknown system"},
		{[]string{"-system", "onefile-hash"}, `unknown system "onefile-hash" (known: medley-bst, medley-hash, `},
		{[]string{"-system", "lftt"}, "txmontage-skip, txoff-skip; suffixes:"},
		{[]string{"-system", "tdsl"}, "unknown system"},
		{[]string{"-system", "ponefile-skip"}, "unknown system"},
		{[]string{"-listen", "256.0.0.1:1", "-buckets", "1024"}, "listen"},
	} {
		err := run(context.Background(), c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) = %v, want an error containing %q", c.args, err, c.want)
		}
	}
}

// TestListPrintsOnlyServableSpecs pins -list to the daemon's own registry:
// every line is a base -system accepts, and no competitor STM is offered.
func TestListPrintsOnlyServableSpecs(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	err = run(context.Background(), []string{"-list"})
	os.Stdout = stdout
	w.Close()
	if err != nil {
		t.Fatalf("run(-list) = %v", err)
	}
	out, _ := io.ReadAll(r)
	lines := strings.Fields(string(out))
	if len(lines) != len(store.Systems) {
		t.Fatalf("-list printed %d lines for %d servable bases:\n%s", len(lines), len(store.Systems), out)
	}
	for _, line := range lines {
		base, _, _ := strings.Cut(strings.TrimSuffix(line, "[@N]"), "{")
		if _, ok := store.Systems[base]; !ok {
			t.Errorf("-list offers %q, which -system refuses", line)
		}
	}
}
