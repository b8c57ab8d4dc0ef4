package main

import (
	"math/bits"
	"sort"
)

// histSub is the number of linear sub-buckets per power of two: 32 gives
// buckets at most 1/32 ≈ 3 % wide, and quantiles interpolate inside one.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) * histSub
)

// hist is a fixed-size log-linear histogram of nanosecond values.  It takes
// no memory per sample, so a client can keep one per slice and kind.
type hist struct {
	n      uint64
	counts [histBuckets]uint32
}

func histBucket(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // v in [2^e, 2^(e+1))
	sub := int(uint64(v)>>(e-histSubBits)) & (histSub - 1)
	return (e-histSubBits+1)*histSub + sub
}

// histBounds returns the inclusive lower bound and the width of bucket i.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := i/histSub + histSubBits - 1
	sub := i % histSub
	w := uint64(1) << (e - histSubBits)
	return float64((uint64(histSub) + uint64(sub)) * w), float64(w)
}

func (h *hist) observe(ns int64) {
	h.counts[histBucket(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) in nanoseconds, interpolated
// linearly inside the bucket that holds it; 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= target {
			lo, w := histBounds(i)
			return lo + w*(target-seen)/float64(c)
		}
		seen += float64(c)
	}
	lo, w := histBounds(histBuckets - 1)
	return lo + w
}

// summary is how a metric is reported.  Value is the best quartile of the
// per-slice values — the first for a metric that is better lower, the third
// for one that is better higher: what the box does to a slice (a log segment
// that landed on a slow stretch of the shared disk, a neighbour's burst) only
// ever makes it worse, so the better quartile is the steadier estimate of what
// the program costs.  The median, the extremes and the slice count go with it.
type summary struct {
	Value   float64 `json:"value"`
	Median  float64 `json:"median"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Samples int     `json:"samples"`
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is also
// how the driver computes a metric's spread over runs.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.75)
}

func summarize(v []float64, higherBetter bool) summary {
	if len(v) == 0 {
		return summary{}
	}
	s := summary{Median: median(v), Min: v[0], Max: v[0], Samples: len(v)}
	for _, x := range v {
		s.Min = min(s.Min, x)
		s.Max = max(s.Max, x)
	}
	q1, q3 := quartiles(v)
	s.Value = q1
	if higherBetter {
		s.Value = q3
	}
	return s
}
