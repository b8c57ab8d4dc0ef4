package main

import "testing"

func TestSelfTime(t *testing.T) {
	span := interval{100, 200}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child inside", []interval{{120, 150}}, 70},
		{"children overlapping each other on another goroutine", []interval{{110, 150}, {140, 170}}, 40},
		{"child straddling the start", []interval{{50, 130}}, 70},
		{"child straddling the end", []interval{{180, 400}}, 80},
		{"child covering everything", []interval{{0, 1000}}, 0},
		{"children outside", []interval{{0, 100}, {200, 300}}, 100},
		{"unsorted, nested and adjacent", []interval{{160, 170}, {110, 140}, {120, 130}, {140, 150}}, 50},
	}
	for _, c := range cases {
		if got := selfTime(span, mergeIntervals(c.children)); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTracerSpansAreContiguous(t *testing.T) {
	now := int64(0)
	tr := newTracer("client0", func() int64 { now += 10; return now })
	txn := tr.beginTxn()
	tr.call(callBegin, txn)
	tr.call(callUpdate, txn)
	tr.call(callCommit, txn)
	tr.endTxn(txn)
	if len(tr.spans) != 4 {
		t.Fatalf("%d spans, want 4", len(tr.spans))
	}
	var sum int64
	for i, s := range tr.spans[1:] {
		if s.Parent != txn || s.Txn != tr.spans[txn].Txn {
			t.Errorf("span %d: parent %d txn %d", i+1, s.Parent, s.Txn)
		}
		prevEnd := tr.spans[i].End
		if i == 0 {
			prevEnd = tr.spans[txn].Start // the first call starts with its transaction
		}
		if s.Start != prevEnd {
			t.Errorf("span %d starts at %d, want %d", i+1, s.Start, prevEnd)
		}
		sum += s.End - s.Start
	}
	if whole := tr.spans[txn].End - tr.spans[txn].Start; sum != whole {
		t.Errorf("calls cover %d of the transaction's %d", sum, whole)
	}
	var off *tracer // the timed pass
	off.call(callBegin, off.beginTxn())
	off.endTxn(-1)
}
