// Package telemetry is the engine-wide metric layer: a typed, labeled
// registry of counters, gauges, and log2 histograms sampled on the
// simulated clock into ring-buffered time series. It is the single home
// for the percentile math shared by the per-template query statistics
// (metrics.QueryStats) and the harness CDF reports, and it is what the
// exporter (harness.Emitter series records) reads from.
//
// Everything here follows the engine's zero-cost-when-off discipline:
// all hot-path mutators are nil-receiver safe and allocation-free, so a
// subsystem holds a possibly-nil *Hist and pays a single branch when
// telemetry is disarmed. Nothing in this package ever reads
// the host clock or mutates simulation state, so armed and disarmed
// runs produce bit-identical measured results.
package telemetry

import (
	"math"
	"math/bits"

	"repro/internal/sim"
)

// HistBuckets is the number of log2 latency buckets: bucket i counts
// observations in [2^(i-1), 2^i) nanoseconds (bucket 0 is [0, 1)).
const HistBuckets = 64

// Histogram is a log2-bucketed latency histogram. Buckets double in width,
// so it covers nanoseconds to hours in 64 fixed slots with bounded error;
// quantiles interpolate linearly inside a bucket. The zero value is ready
// to use, and merging is element-wise addition.
type Histogram struct {
	Counts [HistBuckets]int64
	N      int64
	SumNs  int64
	MaxNs  int64
}

// Observe records one latency.
func (h *Histogram) Observe(d sim.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.Counts[bits.Len64(uint64(ns))]++
	h.N++
	h.SumNs += ns
	if ns > h.MaxNs {
		h.MaxNs = ns
	}
}

// Merge adds o's observations into h.
func (h *Histogram) Merge(o Histogram) {
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.N += o.N
	h.SumNs += o.SumNs
	if o.MaxNs > h.MaxNs {
		h.MaxNs = o.MaxNs
	}
}

// Mean returns the mean latency in ns, or 0 when empty.
func (h Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.SumNs) / float64(h.N)
}

// Quantile returns the q-th quantile (q in [0,1]) in nanoseconds by linear
// interpolation within the containing bucket, or 0 when empty. The upper
// edge of the topmost populated bucket is clamped to the observed maximum.
func (h Histogram) Quantile(q float64) float64 {
	if h.N == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.N)
	cum := int64(0)
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo, hi := bucketBounds(i)
			if hi > float64(h.MaxNs) {
				hi = float64(h.MaxNs)
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - float64(cum)) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return float64(h.MaxNs)
}

// bucketBounds returns bucket i's [lo, hi) range in ns.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	return math.Exp2(float64(i - 1)), math.Exp2(float64(i))
}

// PercentileSorted returns the p-th percentile (p in [0,100]) of an
// ascending-sorted sample by linear interpolation between neighbours —
// the exact-sample dual of Histogram.Quantile, shared by the harness CDF
// reports and the series summaries. Returns 0 on an empty slice.
func PercentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + (sorted[lo+1]-sorted[lo])*frac
}

// MeanOf returns the arithmetic mean of a sample, 0 when empty.
func MeanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
