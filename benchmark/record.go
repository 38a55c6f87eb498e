package main

import (
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Latency samples are kept as log-linear histograms, one per (slot,
// window): lib-read completes ~3M txn/s, so raw samples for one run would
// be hundreds of MB of benchmark-owned heap inside heap_peak_mb. Values
// below 64 ns are exact; above, a bucket is 1/64 of its power of two
// (≤ 1.6% wide) and quantiles interpolate inside the bucket.
const (
	histSub     = 64
	histBuckets = histSub * 36 // covers up to 2^41 ns ≈ 36 min
)

type hist [histBuckets]atomic.Uint32

func bucketOf(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	shift := bits.Len64(ns) - 7
	b := histSub + shift*histSub + int(ns>>uint(shift)) - histSub
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketBounds returns the [lo, hi) value range of bucket b.
func bucketBounds(b int) (lo, hi float64) {
	if b < histSub {
		return float64(b), float64(b + 1)
	}
	shift := uint(b/histSub - 1)
	m := uint64(b%histSub + histSub)
	return float64(m << shift), float64((m + 1) << shift)
}

// counts is a merged, non-atomic histogram.
type counts struct {
	b [histBuckets]uint64
	n uint64
}

func (c *counts) add(h *hist) {
	for i := range h {
		if v := uint64(h[i].Load()); v != 0 {
			c.b[i] += v
			c.n += v
		}
	}
}

func (c *counts) merge(o *counts) {
	for i, v := range o.b {
		c.b[i] += v
	}
	c.n += o.n
}

// quantile returns the q-quantile in ns (0 when empty).
func (c *counts) quantile(q float64) float64 {
	if c.n == 0 {
		return 0
	}
	rank := q * float64(c.n)
	var cum float64
	for i, v := range c.b {
		if v == 0 {
			continue
		}
		if cum+float64(v) >= rank {
			lo, hi := bucketBounds(i)
			return lo + (hi-lo)*(rank-cum)/float64(v)
		}
		cum += float64(v)
	}
	_, hi := bucketBounds(histBuckets - 1)
	return hi
}

// recorder collects per-transaction latencies over the measured interval
// [start, start+windows*window). Clients call add with their own slot;
// slots exist so that the C lib-* clients never share a cache line and
// the 512 svc-saturate submitters share only a few.
type recorder struct {
	start   time.Time
	window  time.Duration
	windows int
	slots   [][]hist // [slot][window]
}

const maxSlots = 8

func newRecorder(clients int, start time.Time, window time.Duration, windows int) *recorder {
	n := clients
	if n > maxSlots {
		n = maxSlots
	}
	r := &recorder{start: start, window: window, windows: windows, slots: make([][]hist, n)}
	for i := range r.slots {
		r.slots[i] = make([]hist, windows)
	}
	return r
}

// windowOf returns the index of the window a call returning at end falls
// into, or -1 outside the measured interval (warm-up, drain).
func (r *recorder) windowOf(end time.Time) int {
	off := end.Sub(r.start)
	if off < 0 || off >= time.Duration(r.windows)*r.window {
		return -1
	}
	return int(off / r.window)
}

// add records one call of duration d in window w (from windowOf, not -1).
func (r *recorder) add(client, w int, d time.Duration) {
	if d < 0 {
		d = 0
	}
	r.slots[client%len(r.slots)][w][bucketOf(uint64(d))].Add(1)
}

// perWindow merges the slots of each window.
func (r *recorder) perWindow() []*counts {
	out := make([]*counts, r.windows)
	for w := range out {
		c := new(counts)
		for s := range r.slots {
			c.add(&r.slots[s][w])
		}
		out[w] = c
	}
	return out
}

// minP99Samples is how many samples a window needs before its p99 is read:
// at least 10 then lie beyond the percentile.
const minP99Samples = 1000

// windowedP99 is the p99 definition: the median over the run's windows of
// each window's p99, a window being widened by the ones after it until it
// holds minP99Samples (a trailing remainder that never gets there is left
// out). One scheduler hiccup on a shared box then moves one window, not the
// metric.
func windowedP99(ws []*counts) float64 {
	var p99s []float64
	cur := new(counts)
	for _, w := range ws {
		cur.merge(w)
		if cur.n >= minP99Samples {
			p99s = append(p99s, cur.quantile(0.99))
			cur = new(counts)
		}
	}
	if len(p99s) == 0 {
		return cur.quantile(0.99) // one short window, or none at all
	}
	return median(p99s)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileOf returns the q-quantile of raw samples by nearest rank.
func quantileOf(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// settleHeap collects until the heap stops shrinking. One cycle is not
// enough after a stack closes: what its server and watcher goroutines still
// hold as close returns — a whole store, about 100 MB — is freed only by
// the next cycle, and would otherwise sit inside the next set-up's
// heap_peak_mb as often as not.
func settleHeap() {
	prev := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if m.HeapAlloc+1<<20 >= prev {
			return
		}
		prev = m.HeapAlloc
		time.Sleep(10 * time.Millisecond)
	}
}

// heapSampler tracks the maximum heap in use (objects + unused spans, the
// runtime/metrics spelling of MemStats.HeapInuse) every 100 ms without
// stopping the world.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64() + s[1].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// close stops the sampler (once) and returns the peak in MB.
func (h *heapSampler) close() float64 {
	h.once.Do(func() { close(h.stop) })
	h.wg.Wait()
	return float64(h.peak.Load()) / (1 << 20)
}
