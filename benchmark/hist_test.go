package main

import (
	"math"
	"testing"
)

func TestHistBucketsAreContiguous(t *testing.T) {
	prevHi := 0.0
	for i := 0; i < histBuckets; i++ {
		lo, w := histBounds(i)
		if lo != prevHi {
			t.Fatalf("bucket %d starts at %v, previous ended at %v", i, lo, prevHi)
		}
		prevHi = lo + w
	}
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 1000, 123456789, 1 << 40} {
		lo, w := histBounds(histBucket(v))
		if float64(v) < lo || float64(v) >= lo+w {
			t.Errorf("value %d filed under [%v, %v)", v, lo, lo+w)
		}
		if v >= histSub && w/lo > 1.0/histSub {
			t.Errorf("bucket of %d is %v wide at %v: more than 1/%d", v, w, lo, histSub)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 10000; v++ { // uniform on 1..10000 ns
		h.observe(v)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 5000}, {0.9, 9000}, {0.99, 9900}} {
		if got := h.quantile(c.q); math.Abs(got-c.want)/c.want > 0.02 {
			t.Errorf("quantile(%v) = %v, want %v within 2%%", c.q, got, c.want)
		}
	}
	var a, b hist
	a.observe(100)
	b.observe(300)
	a.merge(&b)
	if a.n != 2 || a.quantile(1) < 300 {
		t.Errorf("merge lost a sample: n=%d max=%v", a.n, a.quantile(1))
	}
	if (&hist{}).quantile(0.5) != 0 {
		t.Error("empty histogram's quantile is not 0")
	}
}

func TestSummarize(t *testing.T) {
	v := []float64{7, 1, 9, 3, 10, 2, 8, 4, 6, 5}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	lower, higher := summarize(v, false), summarize(v, true)
	if lower.Value != 2.75 || higher.Value != 8.25 {
		t.Errorf("best quartile: lower-better %v, higher-better %v", lower.Value, higher.Value)
	}
	if lower.Median != 5.5 || lower.Min != 1 || lower.Max != 10 || lower.Samples != 10 {
		t.Errorf("summary = %+v", lower)
	}
	if one := summarize([]float64{4}, false); one.Value != 4 || one.Median != 4 {
		t.Errorf("single sample: %+v", one)
	}
	if median([]float64{3, 1, 2}) != 2 || median(nil) != 0 {
		t.Error("median")
	}
}
