package harness

import (
	"math/rand"
	"slices"
	"time"
)

// Reservoir is one goroutine's bounded latency sample (Vitter's
// algorithm R): the first max observations are kept, later ones replace
// a kept one with probability max/seen, so the sample stays uniform over
// everything offered. Single-writer, like the stat shards that embed it.
type Reservoir struct {
	Samples []int64 // ns
	seen    int64
	r       *rand.Rand
}

// NewReservoir seeds a reservoir's replacement choices.
func NewReservoir(seed int64) Reservoir {
	return Reservoir{r: rand.New(rand.NewSource(seed))}
}

// Record offers one observation to a reservoir bounded at max samples.
func (v *Reservoir) Record(d time.Duration, max int) {
	v.seen++
	if len(v.Samples) < max {
		v.Samples = append(v.Samples, int64(d))
		return
	}
	if j := v.r.Int63n(v.seen); j < int64(max) {
		v.Samples[j] = int64(d)
	}
}

// Quantile is nearest-rank over a sorted slice, p in tenths of a percent
// (500 = median, 999 = p99.9); 0 for an empty slice. Every per-phase
// latency quantile in a report comes from here (the cross-phase aggregate
// weighs samples by transaction count: weightedPercentile).
func Quantile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 999) / 1000 // ceil(p/1000 * n)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// LatencyDigest sorts samples in place and returns their mean and
// nearest-rank p50/p99/p99.9, all zero when there are no samples.
func LatencyDigest(samples []int64) (avg, p50, p99, p999 float64) {
	if len(samples) == 0 {
		return
	}
	slices.Sort(samples)
	var sum int64
	for _, s := range samples {
		sum += s
	}
	return float64(sum) / float64(len(samples)),
		float64(Quantile(samples, 500)), float64(Quantile(samples, 990)), float64(Quantile(samples, 999))
}
