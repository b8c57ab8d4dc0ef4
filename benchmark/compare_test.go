package main

import "testing"

func TestVerdict(t *testing.T) {
	lower := boundedMetric{Name: "txn_p50_us", Better: "lower", Bound: 0.10}
	higher := boundedMetric{Name: "txns_per_s", Better: "higher", Bound: 0.10}
	cases := []struct {
		a, b setStat
		m    boundedMetric
		want string
	}{
		{setStat{median: 100}, setStat{median: 105}, lower, "unchanged"},
		{setStat{median: 100}, setStat{median: 115}, lower, "worse"},
		{setStat{median: 100}, setStat{median: 85}, lower, "better"},
		{setStat{median: 100}, setStat{median: 85}, higher, "worse"},
		{setStat{median: 100}, setStat{median: 115}, higher, "better"},
		{setStat{median: 100, spread: 0.2}, setStat{median: 150}, lower, "unresolved"},
		{setStat{median: 100}, setStat{median: 150, spread: 0.11}, lower, "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}
