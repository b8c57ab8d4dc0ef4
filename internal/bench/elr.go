package bench

import (
	"fmt"
	"sync"
	"time"

	"ariesrh/internal/core"
	"ariesrh/internal/wal"
)

// e12Row is one E12 measurement cell.
type e12Row struct {
	committers int
	mode       string
	commits    uint64
	waits      uint64
	waitTotal  time.Duration
	violations uint64
	elapsed    time.Duration
}

// runE12Cell runs committers goroutines over a SHARED hot object set —
// unlike E11's disjoint ranges, every transaction contends — with early
// lock release on or off.  Each transaction updates updatesPer
// consecutive objects from the hot set in ascending ID order (a global
// acquisition order, so the workload is deadlock-free) and commits
// through the group flusher, whose sync costs syncDelay.
func runE12Cell(committers, txnsPer, updatesPer, hotObjects int, syncDelay time.Duration, elr bool) (e12Row, error) {
	store := newSyncDelayDir(syncDelay)
	eng, err := core.New(core.Options{
		PoolSize:         4096,
		LogDir:           store,
		EarlyLockRelease: elr,
	})
	if err != nil {
		return e12Row{}, err
	}
	val := []byte("elr-contended-payload-0123456789")

	var wg sync.WaitGroup
	errs := make(chan error, committers)
	start := time.Now()
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txnsPer; i++ {
				tx, err := eng.Begin()
				if err != nil {
					errs <- err
					return
				}
				// Slide a window over the hot set: consecutive ascending
				// IDs keep the global lock order while guaranteeing
				// overlap between workers.
				base := (w*7 + i) % (hotObjects - updatesPer + 1)
				for j := 0; j < updatesPer; j++ {
					obj := wal.ObjectID(1 + base + j)
					if err := eng.Update(tx, obj, val); err != nil {
						errs <- err
						return
					}
				}
				if err := eng.Commit(tx); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		if err != nil {
			return e12Row{}, err
		}
	}

	snap := eng.Metrics()
	wait := snap.Histogram("lock.wait_ns")
	mode := "on"
	if !elr {
		mode = "off"
	}
	return e12Row{
		committers: committers,
		mode:       mode,
		commits:    uint64(committers * txnsPer),
		waits:      wait.Count,
		waitTotal:  time.Duration(wait.Sum),
		violations: snap.Counter("elr.violations"),
		elapsed:    elapsed,
	}, nil
}

// E12EarlyLockRelease measures what controlled lock violation buys on a
// contended commit path.  Without ELR a committer holds its write locks
// across the commit-record flush, so under contention every competitor
// queues behind the device sync and lock wait grows with the committer
// count.  With ELR the locks are released the moment the commit record is
// appended; competitors run inside the pre-durable window (passing the
// released locks' stamps, counted as violations) and the sync latency
// drops out of the lock hold time.
func E12EarlyLockRelease(committerCounts []int, txnsPer, updatesPer, hotObjects int, syncDelay time.Duration) (*Table, error) {
	t := &Table{
		ID:    "E12",
		Title: "early lock release: lock wait and commit throughput vs contending committers",
		Claim: "releasing write locks at commit-record append instead of commit-record durability removes the device sync from the contention critical path: lock wait per commit drops and throughput rises with committer count",
		Headers: []string{"committers", "elr", "commits", "waits", "wait-total-ms",
			"wait/commit-us", "violations", "commits/s", "us/commit"},
	}
	// The verdict compares the highest-contention cell pair.
	var lastOn, lastOff e12Row
	for _, n := range committerCounts {
		for _, elr := range []bool{false, true} {
			row, err := runE12Cell(n, txnsPer, updatesPer, hotObjects, syncDelay, elr)
			if err != nil {
				return nil, err
			}
			if elr {
				lastOn = row
			} else {
				lastOff = row
			}
			waitPerCommit := float64(row.waitTotal.Nanoseconds()) / float64(row.commits) / 1e3
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", row.committers),
				row.mode,
				fmt.Sprintf("%d", row.commits),
				fmt.Sprintf("%d", row.waits),
				fmt.Sprintf("%.1f", float64(row.waitTotal.Nanoseconds())/1e6),
				fmt.Sprintf("%.1f", waitPerCommit),
				fmt.Sprintf("%d", row.violations),
				fmt.Sprintf("%.0f", float64(row.commits)/row.elapsed.Seconds()),
				fmt.Sprintf("%.1f", float64(row.elapsed.Nanoseconds())/float64(row.commits)/1e3),
			})
		}
	}

	onRate := float64(lastOn.commits) / lastOn.elapsed.Seconds()
	offRate := float64(lastOff.commits) / lastOff.elapsed.Seconds()
	onWait := float64(lastOn.waitTotal.Nanoseconds()) / float64(lastOn.commits)
	offWait := float64(lastOff.waitTotal.Nanoseconds()) / float64(lastOff.commits)
	// A zero on-side wait (locks never contended under ELR) is the best
	// possible outcome; cap the reported ratio rather than dividing by 0.
	waitCut := fmt.Sprintf("%.0fus -> %.0fus", offWait/1e3, onWait/1e3)
	materially := onWait == 0 && offWait > 0
	if onWait > 0 && offWait/onWait >= 1.5 {
		materially = true
		waitCut = fmt.Sprintf("%.1fx, %s", offWait/onWait, waitCut)
	}
	switch {
	case lastOn.violations == 0:
		t.Verdict = "FAILS: no lock violation formed; the workload never opened the ELR window"
	case onRate > offRate && materially:
		t.Verdict = fmt.Sprintf("HOLDS: at %d committers ELR cuts lock wait per commit (%s) and lifts throughput %.2fx (%.0f -> %.0f commits/s)",
			lastOn.committers, waitCut, onRate/offRate, offRate, onRate)
	case onRate > offRate:
		t.Verdict = fmt.Sprintf("PARTIAL: throughput up %.2fx but lock wait only improved from %.0fus to %.0fus per commit at %d committers",
			onRate/offRate, offWait/1e3, onWait/1e3, lastOn.committers)
	default:
		t.Verdict = fmt.Sprintf("FAILS: ELR did not raise throughput at %d committers (%.0f vs %.0f commits/s)",
			lastOn.committers, onRate, offRate)
	}
	return t, nil
}
