package main

import (
	"fmt"
	"time"

	"ariesrh/internal/wal"
)

// The traced pass measures the same traffic as the timed pass with the
// benchmark's instruments attached: a span around every public call, the
// wal.Dir wrapper under the log, counter deltas, and afterwards the probes.
// Its own numbers are not the end-to-end ones — the first third of its
// seconds runs with the spans off, the rest with them on, and the ratio of
// the two medians is reported as the tracing overhead.

// tracedPhases runs the untraced phase and then the traced one on r.db.
func (r *run) tracedPhases(seconds float64, tracers []*tracer) *layerInputs {
	third := time.Duration(seconds / 3 * float64(time.Second))
	in := &layerInputs{shards: r.w.shards, dirs: r.dirs, rate: r.w.rate}
	in.untraced = r.traffic(1, third, 0)[0]
	for i, c := range r.clients {
		c.tr = tracers[i]
	}
	for _, d := range r.dirs {
		in.dirsFrom = append(in.dirsFrom, d.stats())
	}
	in.traced = r.traffic(1, 2*third, 0)[0]
	for _, c := range r.clients {
		c.tr = nil
	}
	in.spans = summarizeSpans(tracers, r.dev, in.traced.from.t, in.traced.to.t)
	return in
}

func (r *run) newTracers() []*tracer {
	tracers := make([]*tracer, len(r.clients))
	for i := range tracers {
		tracers[i] = newTracer(fmt.Sprintf("client%d", i), r.clock)
	}
	return tracers
}

// finishTraced adds the probes to the inputs and turns them into a report.
func (r *run) finishTraced(in *layerInputs, cfg config, tracers []*tracer, calls []call, recs []*wal.Record, losers int) (*measured, error) {
	ops := probeOps
	if cfg.smoke {
		ops /= 50
	}
	probes, err := runProbes(calls, recs, losers, ops)
	if err != nil {
		return nil, err
	}
	in.probes = probes
	in.attempted, in.failed = r.attempted, r.failed
	if in.spans.dropped > 0 {
		r.errs = append(r.errs, fmt.Sprintf("%d spans dropped past the tracer's capacity", in.spans.dropped))
	}
	if cfg.traceOut != "" {
		all := tracers
		if r.dev != nil {
			all = append(append([]*tracer(nil), tracers...), r.dev)
		}
		if err := writeSpans(cfg.traceOut, all); err != nil {
			return nil, err
		}
	}
	v := values{}
	for name, x := range layerMetrics(in) {
		v.add(name, x)
	}
	return r.measured(perLayer, v, true), nil
}

// runTracedTraffic is the traced pass of a traffic workload.
func runTracedTraffic(w *workload, cfg config, tm timing, tmp string) (*measured, error) {
	clock := monoClock()
	r := &run{w: w, seed: cfg.seed, k: cfg.k, clock: clock, tmp: tmp, dev: newTracer("device", clock)}
	if _, err := r.setup(); err != nil {
		return nil, err
	}
	restart, _, err := r.restartCycle()
	if err != nil {
		return nil, err
	}
	rec := recovered{trace: r.db.LastRecoveryTrace(), restart: restart}
	r.traffic(1, tm.warmup, 0)
	tracers := r.newTracers()
	in := r.tracedPhases(cfg.seconds, tracers)
	in.rec = []recovered{rec}
	if err := r.oracle(); err != nil {
		return nil, err
	}
	if err := r.closeDB(); err != nil {
		return nil, err
	}
	calls, recs, err := sampleMix(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	return r.finishTraced(in, cfg, tracers, calls, recs, 0)
}
