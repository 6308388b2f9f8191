package opt

import (
	"sort"

	"repro/internal/storage"
)

// Histogram is an equi-depth histogram over an int64 column — the
// statistics object a real optimizer builds with CREATE STATISTICS and
// reads for cardinality estimation.
type Histogram struct {
	// Bounds[i] is the upper bound (inclusive) of bucket i; buckets hold
	// roughly equal row counts.
	Bounds []int64
	Counts []int64
	Total  int64

	Min, Max int64
}

// BuildHistogram collects an equi-depth histogram with the given number
// of buckets from a column sample.
func BuildHistogram(vals []int64, buckets int) *Histogram {
	h := &Histogram{}
	n := len(vals)
	if n == 0 {
		return h
	}
	if buckets < 1 {
		buckets = 1
	}
	s := append([]int64(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	h.Total = int64(n)
	h.Min, h.Max = s[0], s[n-1]

	per := n / buckets
	if per < 1 {
		per = 1
	}
	for i := per - 1; i < n; i += per {
		// Extend the bucket to the end of a run of equal values so a
		// value never straddles buckets.
		j := i
		for j+1 < n && s[j+1] == s[j] {
			j++
		}
		count := int64(j + 1)
		if len(h.Bounds) > 0 {
			var prev int64
			for _, c := range h.Counts {
				prev += c
			}
			count -= prev
		}
		if count <= 0 {
			i = j
			continue
		}
		h.Bounds = append(h.Bounds, s[j])
		h.Counts = append(h.Counts, count)
		i = j
	}
	// Ensure the last value is covered.
	var covered int64
	for _, c := range h.Counts {
		covered += c
	}
	if covered < int64(n) {
		h.Bounds = append(h.Bounds, s[n-1])
		h.Counts = append(h.Counts, int64(n)-covered)
	}
	return h
}

// SelLE estimates the fraction of rows with value <= v.
func (h *Histogram) SelLE(v int64) float64 {
	if h.Total == 0 {
		return 0
	}
	if v < h.Min {
		return 0
	}
	if v >= h.Max {
		return 1
	}
	var acc int64
	lo := h.Min
	for i, b := range h.Bounds {
		if v >= b {
			acc += h.Counts[i]
			lo = b
			continue
		}
		// Linear interpolation within the bucket.
		span := float64(b - lo)
		if span <= 0 {
			span = 1
		}
		frac := float64(v-lo) / span
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return (float64(acc) + frac*float64(h.Counts[i])) / float64(h.Total)
	}
	return 1
}

// SelRange estimates the fraction of rows with lo <= value <= hi.
func (h *Histogram) SelRange(lo, hi int64) float64 {
	if hi < lo {
		return 0
	}
	s := h.SelLE(hi) - h.SelLE(lo-1)
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	return s
}

// ColRange is a declarative range predicate for cardinality estimation:
// Lo <= col <= Hi (math.MinInt64 / MaxInt64 for open ends).
type ColRange struct {
	Col    int
	Lo, Hi int64
}

// TableStats carries per-column histograms for one table.
type TableStats struct {
	Table *storage.Table
	Cols  map[int]*Histogram
}

// CollectStats builds histograms for the given columns of a table
// (default 64 buckets), sampling every actual row.
func CollectStats(t *storage.Table, cols []int, buckets int) *TableStats {
	if buckets <= 0 {
		buckets = 64
	}
	ts := &TableStats{Table: t, Cols: make(map[int]*Histogram, len(cols))}
	for _, c := range cols {
		ts.Cols[c] = BuildHistogram(t.Col(c), buckets)
	}
	return ts
}

// SelOfRanges estimates combined selectivity of conjunctive range
// predicates using attribute-independence (the standard assumption).
// Columns without statistics contribute a default factor.
func (ts *TableStats) SelOfRanges(ranges []ColRange) float64 {
	sel := 1.0
	for _, r := range ranges {
		h := ts.Cols[r.Col]
		if h == nil {
			sel *= 0.3
			continue
		}
		sel *= h.SelRange(r.Lo, r.Hi)
	}
	if sel < 0 {
		sel = 0
	}
	return sel
}
