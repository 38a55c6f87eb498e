package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// span is one timed call into a layer, recorded from outside it: the
// benchmark's own files bracket the public function, nothing inside the
// program is instrumented. Times are ns since the tracer's epoch.
//
// On the ladder every rung replays the same transactions, so the span of
// (rung k, txn i) has the span of (rung k-1, txn i) as its child even
// though the two ran in separate replays: parent names the rung one
// level up, and a rung's self time is its span minus that child.
type span struct {
	rung       uint8 // index into tracer.names
	seq        uint32
	start, end int64
}

// spanRing keeps the last len(buf) spans of one recording slot. Workload
// clients record at up to millions of spans a second; the ring bounds
// memory while every call still pays the recording cost being priced.
type spanRing struct {
	mu  sync.Mutex
	buf []span
	n   uint64
}

func (r *spanRing) add(s span) {
	r.mu.Lock()
	r.buf[r.n%uint64(len(r.buf))] = s
	r.n++
	r.mu.Unlock()
}

func (r *spanRing) spans() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n <= uint64(len(r.buf)) {
		return r.buf[:r.n]
	}
	at := r.n % uint64(len(r.buf))
	return append(append([]span(nil), r.buf[at:]...), r.buf[:at]...)
}

// tracer accumulates spans in memory and writes them once, at exit.
type tracer struct {
	names   []string // rung names; parent of names[i] is parents[i]
	parents []string
	spans   []span
}

func (t *tracer) rung(name, parent string) uint8 {
	t.names = append(t.names, name)
	t.parents = append(t.parents, parent)
	return uint8(len(t.names) - 1)
}

// write emits one JSON object per span:
// {"rung","txn_seq","start_ns","end_ns","parent"}.
func (t *tracer) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for _, s := range t.spans {
		line = append(line[:0], `{"rung":`...)
		line = strconv.AppendQuote(line, t.names[s.rung])
		line = append(line, `,"txn_seq":`...)
		line = strconv.AppendUint(line, uint64(s.seq), 10)
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendQuote(line, t.parents[s.rung])
		line = append(line, "}\n"...)
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return w.Flush()
}
