package main

import (
	"fmt"
	"os"
	"time"
)

// The sweep looks for metering's saturation knee: the same events at a few
// fixed rates around the gated one.  It stays out of the gated command
// because a step metric near its knee does not repeat from run to run.
var sweepFactors = []float64{0.25, 0.5, 0.75, 1.0, 1.25, 2.0, 3.0}

const (
	sweepSeconds  = 5 * time.Second
	sweepLimitP99 = 2 * time.Millisecond // the latency limit a rate must meet
	// A backlog is bounded when it never exceeds this much arrival time.
	sweepBacklogWindow = 50 * time.Millisecond
)

func runSweep(cfg config) error {
	base := findWorkload("metering")
	tmp, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	fmt.Printf("%10s %12s %12s %12s %12s %10s  %s\n", "rate 1/s", "p50 us", "p99 us", "late p99 us", "backlog max", "failed", "meets limit")
	var best float64
	for _, f := range sweepFactors {
		w := *base
		w.rate = base.rate * f
		r := &run{w: &w, seed: cfg.seed, k: cfg.k, clock: monoClock(), tmp: tmp}
		if _, err := r.setup(); err != nil {
			return err
		}
		r.traffic(1, time.Second, 0)
		s := r.traffic(1, sweepSeconds, 0)[0]
		if err := r.oracle(); err != nil {
			return err
		}
		if err := r.closeDB(); err != nil {
			return err
		}
		p99 := s.txn.quantile(0.99)
		bounded := float64(s.backlogMax) <= w.rate*sweepBacklogWindow.Seconds()
		meets := r.failed == 0 && bounded && p99 < float64(sweepLimitP99)
		if meets && w.rate > best {
			best = w.rate
		}
		fmt.Printf("%10.0f %12.1f %12.1f %12.1f %12d %10d  %v\n", w.rate, s.txn.quantile(0.5)/1e3, p99/1e3,
			s.late.quantile(0.99)/1e3, s.backlogMax, r.failed, meets)
	}
	fmt.Printf("highest rate with p99 (from due time) under %v and a bounded backlog: %.0f events/s\n", sweepLimitP99, best)
	return nil
}
