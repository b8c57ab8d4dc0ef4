package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
)

// spanKind names what a span covers.  The first numCallKinds values are the
// API calls, in callKind order.
type spanKind uint8

const (
	spanTxn spanKind = spanKind(numCallKinds) + iota
	spanDeviceSync
	spanDeviceWrite
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	callBegin: "api.begin", callUpdate: "api.update", callRead: "api.read",
	callIncrement: "api.increment", callDelegateAll: "api.delegate",
	callCommit: "api.commit", callAbort: "api.abort",
	callBillCommit: "api.bill_commit", callBillAbort: "api.bill_abort",
	spanTxn: "txn", spanDeviceSync: "device.sync", spanDeviceWrite: "device.write",
}

// span is one traced interval.  Spans of one transaction share Txn; Parent
// is the index of the enclosing span in the same tracer, -1 for none.
type span struct {
	Kind       spanKind
	Parent     int32
	Txn        uint32
	Start, End int64 // ns since the run's clock started
}

// maxSpans bounds one tracer's memory (32 B per span); spans past it are
// counted, not kept.
const maxSpans = 4 << 20

// tracer is an in-memory span buffer.  Each client owns one and uses it
// without locking; the device wrapper's is shared by whichever goroutines
// flush, so it goes through addShared.  A nil tracer records nothing: that
// is the timed pass.
type tracer struct {
	source  string // "client0", "device", ...
	clock   func() int64
	spans   []span
	txns    uint32
	now     int64 // when the last span of the current transaction ended
	dropped int64
	mu      sync.Mutex // addShared only
}

func newTracer(source string, clock func() int64) *tracer {
	return &tracer{source: source, clock: clock, spans: make([]span, 0, 1<<20)}
}

func (t *tracer) add(s span) int32 {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

func (t *tracer) addShared(kind spanKind, start, end int64) {
	t.mu.Lock()
	t.add(span{Kind: kind, Parent: -1, Start: start, End: end})
	t.mu.Unlock()
}

// A transaction's spans are contiguous: each call's span starts where the
// one before it ended, so the clock is read once per boundary and the tracer
// never leaves a gap of its own between two calls.

// beginTxn opens the span of a transaction and returns its index.
func (t *tracer) beginTxn() int32 {
	if t == nil {
		return -1
	}
	t.txns++
	t.now = t.clock()
	return t.add(span{Kind: spanTxn, Parent: -1, Txn: t.txns, Start: t.now})
}

func (t *tracer) endTxn(i int32) {
	if t != nil && i >= 0 {
		t.spans[i].End = t.now
	}
}

// call closes the span of the call that just returned, under the
// transaction span parent.
func (t *tracer) call(kind callKind, parent int32) {
	if t != nil {
		start := t.now
		t.now = t.clock()
		t.add(span{Kind: spanKind(kind), Parent: parent, Txn: t.txns, Start: start, End: t.now})
	}
}

// interval is a half-open time range.
type interval struct{ start, end int64 }

// mergeIntervals returns the union of ivs as disjoint intervals in order.
func mergeIntervals(ivs []interval) []interval {
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	out := s[:0]
	for _, iv := range s {
		if n := len(out); n > 0 && iv.start <= out[n-1].end {
			if iv.end > out[n-1].end {
				out[n-1].end = iv.end
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// selfTime is a span's duration minus the part of it that child spans
// cover.  cover must come from mergeIntervals; the children may have run on
// any goroutine and may overlap each other and the span's edges.
func selfTime(s interval, cover []interval) int64 {
	self := s.end - s.start
	i := sort.Search(len(cover), func(i int) bool { return cover[i].end > s.start })
	for ; i < len(cover) && cover[i].start < s.end; i++ {
		lo, hi := cover[i].start, cover[i].end
		if lo < s.start {
			lo = s.start
		}
		if hi > s.end {
			hi = s.end
		}
		self -= hi - lo
	}
	return self
}

// writeSpans writes every tracer's spans to path as JSON lines.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Source string `json:"source"`
		ID     int    `json:"id"`
		Name   string `json:"name"`
		Parent int32  `json:"parent"`
		Txn    uint32 `json:"txn"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	for _, t := range tracers {
		for i, s := range t.spans {
			if err := enc.Encode(line{t.source, i, spanNames[s.Kind], s.Parent, s.Txn, s.Start, s.End}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
