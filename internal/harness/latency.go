package harness

import (
	"cmp"
	"math/rand"
	"slices"
	"time"
)

// reservoirSamples bounds every latency reservoir: each closed-loop
// worker's, each open-loop sender's and each chaos sender's.
const reservoirSamples = 4096

// Reservoir is one goroutine's bounded latency sample (Vitter's
// algorithm R): the first reservoirSamples observations are kept, later
// ones replace a kept one with probability reservoirSamples/seen, so the
// sample stays uniform over everything offered regardless of the run's
// length. Single-writer, like the stat shards that embed it.
type Reservoir struct {
	Samples []int64 // ns
	seen    int64
	r       *rand.Rand
}

// NewReservoir seeds a reservoir's replacement choices.
func NewReservoir(seed int64) Reservoir {
	return Reservoir{r: rand.New(rand.NewSource(seed))}
}

// Record offers one observation to the reservoir.
func (v *Reservoir) Record(d time.Duration) {
	v.seen++
	if len(v.Samples) < reservoirSamples {
		v.Samples = append(v.Samples, int64(d))
		return
	}
	if j := v.r.Int63n(v.seen); j < reservoirSamples {
		v.Samples[j] = int64(d)
	}
}

// weightedSample is one latency sample and the number of transactions it
// stands for.
type weightedSample struct {
	ns int64
	w  float64
}

// weightedDigest sorts samples in place and returns their weighted mean
// and p50/p99/p99.9, all zero when there is no weight. A quantile is the
// smallest sample whose cumulative weight reaches its share of the total:
// with unit weights, nearest rank. Every latency quantile in a report
// comes from here.
func weightedDigest(samples []weightedSample) (avg, p50, p99, p999 float64) {
	slices.SortFunc(samples, func(a, b weightedSample) int { return cmp.Compare(a.ns, b.ns) })
	var total, sum float64
	for _, s := range samples {
		total += s.w
		sum += float64(s.ns) * s.w
	}
	if total == 0 {
		return
	}
	quantile := func(permille float64) float64 {
		target, cum := permille*total/1000, 0.0
		for _, s := range samples {
			if cum += s.w; cum >= target {
				return float64(s.ns)
			}
		}
		return float64(samples[len(samples)-1].ns)
	}
	return sum / total, quantile(500), quantile(990), quantile(999)
}

// LatencyDigest is weightedDigest over samples that each stand for one
// transaction: their mean and nearest-rank p50/p99/p99.9.
func LatencyDigest(samples []int64) (avg, p50, p99, p999 float64) {
	ws := make([]weightedSample, len(samples))
	for i, ns := range samples {
		ws[i] = weightedSample{ns: ns, w: 1}
	}
	return weightedDigest(ws)
}
