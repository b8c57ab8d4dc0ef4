package bench

import (
	"fmt"
	"net"
	"sync"
	"time"

	"ariesrh/internal/core"
	"ariesrh/internal/repl"
	"ariesrh/internal/wal"
)

// e11Row is one E11 measurement cell.
type e11Row struct {
	committers   int
	commits      uint64
	elapsed      time.Duration
	shippedRecs  uint64
	shippedBytes uint64
	ackBatches   uint64
	ackP50       time.Duration
	ackP99       time.Duration
	catchup      time.Duration
}

// runE11Cell runs committers goroutines, each committing txnsPer
// transactions of updatesPer updates on a private object range, against a
// primary whose log sits on a delayed device, with a live replica
// attached over an in-process pipe for the whole run, and measures the
// replication-lag series alongside commit throughput.
func runE11Cell(committers, txnsPer, updatesPer int, syncDelay time.Duration) (e11Row, error) {
	store := newSyncDelayDir(syncDelay)
	eng, err := core.New(core.Options{PoolSize: 4096, LogDir: store})
	if err != nil {
		return e11Row{}, err
	}
	feed, err := repl.NewPrimary(eng)
	if err != nil {
		return e11Row{}, err
	}
	follower, err := core.New(core.Options{PoolSize: 4096, Follower: true})
	if err != nil {
		return e11Row{}, err
	}
	rep, err := repl.NewReplica(follower)
	if err != nil {
		return e11Row{}, err
	}
	c1, c2 := net.Pipe()
	serveDone := make(chan error, 1)
	go func() { serveDone <- feed.Serve(c1) }()
	followDone := make(chan error, 1)
	go func() { followDone <- rep.Follow(c2) }()

	val := []byte("group-commit-payload-0123456789")
	var wg sync.WaitGroup
	errs := make(chan error, committers)
	start := time.Now()
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := wal.ObjectID(1 + w*1024)
			for i := 0; i < txnsPer; i++ {
				tx, err := eng.Begin()
				if err != nil {
					errs <- err
					return
				}
				for j := 0; j < updatesPer; j++ {
					obj := base + wal.ObjectID((i*updatesPer+j)%512)
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
			return e11Row{}, err
		}
	}

	// Catch-up: how long after the last commit until the replica has
	// replayed AND acknowledged everything the primary flushed.
	if err := eng.Log().Flush(eng.Log().Head()); err != nil {
		return e11Row{}, err
	}
	target := eng.Log().FlushedLSN()
	catchStart := time.Now()
	deadline := catchStart.Add(30 * time.Second)
	for follower.ReplayedLSN() < target || feed.AckedLSN() < target {
		if time.Now().After(deadline) {
			return e11Row{}, fmt.Errorf("replica stuck: replayed %d, acked %d, want %d",
				follower.ReplayedLSN(), feed.AckedLSN(), target)
		}
		time.Sleep(50 * time.Microsecond)
	}
	catchup := time.Since(catchStart)

	snap := eng.Metrics()
	c2.Close()
	<-serveDone
	<-followDone
	feed.Close()

	h := snap.Histogram("repl.ack_lag_ns")
	return e11Row{
		committers:   committers,
		commits:      uint64(committers * txnsPer),
		elapsed:      elapsed,
		shippedRecs:  snap.Counter("repl.shipped_records"),
		shippedBytes: snap.Counter("repl.shipped_bytes"),
		ackBatches:   h.Count,
		ackP50:       time.Duration(h.Quantile(0.50)),
		ackP99:       time.Duration(h.Quantile(0.99)),
		catchup:      catchup,
	}, nil
}

// E11ReplicationLag measures what a hot standby costs — and what it
// inherits from group commit.  A replica is attached for the whole run;
// every cell must end with the replica fully caught up and acknowledged.
// One committer gives the flusher nothing to coalesce, so the stream is
// one tiny batch per commit and the ack round-trip is paid per commit
// record.  With many committers the leader's coalesced flush publishes
// whole batches at once, so the stream ships fewer, larger messages —
// records per acked batch grows with the committer count while the ack
// latency stays in the same band, i.e. replication lag is bounded by
// device latency, not by offered load.
func E11ReplicationLag(committerCounts []int, txnsPer, updatesPer int, syncDelay time.Duration) (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: "replication lag vs committers: a standby rides the coalesced flush",
		Claim: "a live standby does not forfeit the group-commit win: commit throughput still scales with committers while the stream stays fully acknowledged, shipping fewer, larger batches (records per acked batch grows with the committer count) at no worse ack latency",
		Headers: []string{"committers", "commits", "commits/s", "shipped-recs",
			"ship-KB", "ack-batches", "recs/batch", "ack-p50-us", "ack-p99-us", "catchup-us"},
	}
	recsPerBatch := make([]float64, len(committerCounts))
	for i, n := range committerCounts {
		row, err := runE11Cell(n, txnsPer, updatesPer, syncDelay)
		if err != nil {
			return nil, err
		}
		if row.ackBatches > 0 {
			recsPerBatch[i] = float64(row.shippedRecs) / float64(row.ackBatches)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.committers),
			fmt.Sprintf("%d", row.commits),
			fmt.Sprintf("%.0f", float64(row.commits)/row.elapsed.Seconds()),
			fmt.Sprintf("%d", row.shippedRecs),
			fmt.Sprintf("%.1f", float64(row.shippedBytes)/1024),
			fmt.Sprintf("%d", row.ackBatches),
			fmt.Sprintf("%.1f", recsPerBatch[i]),
			fmt.Sprintf("%.1f", float64(row.ackP50.Nanoseconds())/1e3),
			fmt.Sprintf("%.1f", float64(row.ackP99.Nanoseconds())/1e3),
			fmt.Sprintf("%.1f", float64(row.catchup.Nanoseconds())/1e3),
		})
	}
	first, last := recsPerBatch[0], recsPerBatch[len(recsPerBatch)-1]
	minN, maxN := committerCounts[0], committerCounts[len(committerCounts)-1]
	switch {
	case last > first*2:
		t.Verdict = fmt.Sprintf("HOLDS: the stream ships %.1f records/batch at %d committers vs %.1f at %d — the standby rides the coalesced flush; every cell ended fully acknowledged",
			last, maxN, first, minN)
	case last > first:
		t.Verdict = fmt.Sprintf("PARTIAL: batching grows with committers (%.1f records/batch at %d vs %.1f at %d) but by less than 2x",
			last, maxN, first, minN)
	default:
		t.Verdict = fmt.Sprintf("FAILS: more committers did not batch the stream (%.1f records/batch at %d vs %.1f at %d)",
			last, maxN, first, minN)
	}
	return t, nil
}
