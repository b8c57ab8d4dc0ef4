package torture

import (
	"context"
	"fmt"
	"net"
	"time"

	"ariesrh/internal/core"
	"ariesrh/internal/repl"
	"ariesrh/internal/wal"
)

// ReplResult aggregates a replication promote-under-crash sweep.
type ReplResult struct {
	// Boundaries is the number of distinct crash points enumerated;
	// Promotions is how many were crashed and promoted (equal unless
	// MaxBoundaries capped the sweep).
	Boundaries int
	Promotions int
	// TornCrashes counts boundaries where the primary's device kept a
	// torn prefix of its unsynced tail — records the replica, which only
	// ever receives flushed records, must NOT have.
	TornCrashes int
	// UnshippedRecords is the cumulative count of records durable on the
	// crashed primary's device but absent from the replica (torn-tail
	// records that were never flushed, hence never shipped).
	UnshippedRecords int
	// Winners and Losers are cumulative transaction classifications as
	// judged from the REPLICA's durable log; Records is the cumulative
	// count of records the replicas had made durable at promotion time;
	// UndoVisits is the cumulative number of records promotion's backward
	// pass visited.
	Winners, Losers int
	Records         int
	UndoVisits      int
}

// ReplRun executes the replication sweep: for every sync boundary of the
// trace, run a primary that freezes its device after sync k with a live
// replica attached over an in-process pipe, crash the primary once the
// schedule fires, wait for the replica to drain the flushed prefix,
// sever the stream, and promote the replica.
//
// Promotion is judged exactly like recovery, but against the replica's
// own durable log: only flushed records ever ship, so the replica's log
// must be a (possibly strict) prefix of the primary's post-crash device
// image, and the promoted object state must equal the log oracle's
// verdict over that prefix.  The backward pass must hold the same
// invariants as crash recovery — every record visited at most once, in
// strictly decreasing LSN order.
func ReplRun(cfg Config) (ReplResult, error) {
	cfg = cfg.withDefaults()
	// Replication never touches the primary's device, so the sync
	// boundaries are the same pure function of the trace as in Run.
	t, _, err := cfg.replaySweep("repl", false, func(rt *replayTarget) (target, error) {
		follower, err := core.New(core.Options{Follower: true, PoolSize: cfg.PoolSize})
		if err != nil {
			return nil, err
		}
		return &replTarget{replayTarget: rt, follower: follower}, nil
	}).run()
	return ReplResult{
		Boundaries:       t.boundaries,
		Promotions:       t.crashes,
		TornCrashes:      t.torn,
		UnshippedRecords: t.unshipped,
		Winners:          t.winners,
		Losers:           t.losers,
		Records:          t.records,
		UndoVisits:       t.undoVisits,
	}, err
}

// replTarget is a replaying primary with a follower that outlives it.
// A boundary inside the primary's log initialization never gets this
// far: nothing was ever shipped and there is no replica to promote.
type replTarget struct {
	*replayTarget
	follower *core.Engine
}

func (t *replTarget) engines() []*core.Engine { return []*core.Engine{t.follower, t.eng} }

// workload replays on the primary while the stream ships live to the
// replica over an in-process pipe, waits for the replica to drain the
// flushed prefix, and severs the stream: the primary is lost.
func (t *replTarget) workload(ctx context.Context) error {
	feed, err := repl.NewPrimary(t.eng)
	if err != nil {
		return err
	}
	defer feed.Close()
	rep, err := repl.NewReplica(t.follower)
	if err != nil {
		return err
	}
	c1, c2 := net.Pipe()
	serveDone := make(chan error, 1)
	followDone := make(chan error, 1)
	go func() { serveDone <- feed.Serve(c1) }()
	go func() { followDone <- rep.Follow(c2) }()
	defer func() {
		c2.Close()
		<-serveDone
		<-followDone
	}()
	if err := t.replayTarget.workload(ctx); err != nil {
		return err
	}
	// Drain: everything the primary flushed must reach the replica.  The
	// flushed horizon is final here — the device is frozen (or the trace
	// is over), so no further record can become shippable.  A replica
	// that never gets there runs into the driver's hang deadline.
	for target := t.eng.Log().FlushedLSN(); t.follower.ReplayedLSN() < target; {
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// judge holds the replica's durable log to be a prefix of the primary's
// post-crash device image — only flushed records ship, and flushed
// records are exactly the stable (pre-torn-tail) image — and expects the
// oracle's verdict over the REPLICA's log: records in the primary's torn
// tail were never flushed, never shipped, and must not influence the
// promoted state.
func (t *replTarget) judge(b *boundary) (verdict, error) {
	primaryRecs := b.durable[0]
	var replicaRecs []*wal.Record
	err := t.follower.Log().Scan(1, wal.NilLSN, func(rec *wal.Record) (bool, error) {
		replicaRecs = append(replicaRecs, rec)
		return true, nil
	})
	if err != nil {
		return verdict{}, err
	}
	if len(replicaRecs) > len(primaryRecs) {
		return verdict{}, fmt.Errorf("replica has %d records, primary device only %d",
			len(replicaRecs), len(primaryRecs))
	}
	for i, rec := range replicaRecs {
		if same, err := sameBytes(rec, primaryRecs[i]); err != nil {
			return verdict{}, err
		} else if !same {
			return verdict{}, fmt.Errorf("replica record %d (LSN %d) diverges from primary image", i, rec.LSN)
		}
	}
	b.records = len(replicaRecs)
	b.unshipped = len(primaryRecs) - len(replicaRecs)
	return verdict{expect: [][]*wal.Record{replicaRecs}, began: len(t.r.IDs())}, nil
}

// comeBack does not bring the primary back: the replica is promoted.
func (t *replTarget) comeBack(*boundary) error {
	if err := t.eng.Crash(); err != nil {
		return err
	}
	return t.follower.Promote()
}
