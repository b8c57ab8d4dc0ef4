package torture

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"ariesrh/internal/core"
	"ariesrh/internal/fault"
	"ariesrh/internal/obs"
	"ariesrh/internal/repl"
	"ariesrh/internal/sim"
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
	trace := sim.Generate(cfg.simConfig())

	// Probe: replication never touches the primary's device, so the sync
	// boundaries are the same pure function of the trace as in Run.
	probe := fault.NewDir(fault.Plan{})
	eng, err := core.New(core.Options{
		LogDir:   probe,
		PoolSize: cfg.PoolSize,
	})
	if err != nil {
		return ReplResult{}, err
	}
	if err := sim.NewReplayer(sim.CoreTarget{Engine: eng}, trace).RunTo(-1); err != nil {
		return ReplResult{}, fmt.Errorf("torture: repl probe replay: %w", err)
	}
	boundaries := int(probe.Syncs())

	res := ReplResult{Boundaries: boundaries}
	sweep := boundaries
	if cfg.MaxBoundaries > 0 && sweep > cfg.MaxBoundaries {
		sweep = cfg.MaxBoundaries
	}

	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for k := 1; k <= sweep; k++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(k int) {
			defer wg.Done()
			defer func() { <-sem }()
			b, err := cfg.runReplBoundary(trace, uint64(k))
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("torture: repl seed %d boundary %d: %w", cfg.Seed, k, err)
				}
				return
			}
			res.Promotions++
			res.TornCrashes += b.torn
			res.UnshippedRecords += b.unshipped
			res.Winners += b.winners
			res.Losers += b.losers
			res.Records += b.records
			res.UndoVisits += b.undoVisits
		}(k)
	}
	wg.Wait()
	if firstErr != nil {
		return res, firstErr
	}
	return res, nil
}

type replBoundaryStats struct {
	torn       int
	unshipped  int
	winners    int
	losers     int
	records    int
	undoVisits int
}

// runReplBoundary runs one primary+replica pair with the primary's device
// frozen after sync k, crashes the primary, promotes the replica and
// judges the promoted state.
func (cfg Config) runReplBoundary(trace []sim.Action, k uint64) (replBoundaryStats, error) {
	var bs replBoundaryStats
	plan := fault.Plan{
		Seed:        cfg.Seed ^ int64(uint64(k)*0x9E3779B97F4A7C15),
		CrashAtSync: k,
		TornTail:    cfg.TornEvery > 0 && k%uint64(cfg.TornEvery) == 0,
	}
	store := fault.NewDir(plan)
	mkPrimary := func() (*core.Engine, error) {
		return core.New(core.Options{
			LogDir:   store,
			PoolSize: cfg.PoolSize,
		})
	}
	primary, err := mkPrimary()
	if err != nil {
		if !isCrashSignal(err) {
			return bs, err
		}
		// The boundary fired inside log initialization: the primary never
		// came up, nothing was ever shipped, and there is no replica to
		// promote.  Settle it as a crash over the partial bootstrap.
		torn, err := initCrashRecovery(store, mkPrimary)
		if err != nil {
			return bs, err
		}
		if torn {
			bs.torn = 1
		}
		return bs, nil
	}
	feed, err := repl.NewPrimary(primary)
	if err != nil {
		return bs, err
	}
	follower, err := core.New(core.Options{Follower: true, PoolSize: cfg.PoolSize})
	if err != nil {
		return bs, err
	}
	rep, err := repl.NewReplica(follower)
	if err != nil {
		return bs, err
	}
	c1, c2 := net.Pipe()
	serveDone := make(chan error, 1)
	followDone := make(chan error, 1)
	go func() { serveDone <- feed.Serve(c1) }()
	go func() { followDone <- rep.Follow(c2) }()

	// Replay until the crash schedule surfaces (or the trace ends, for
	// the boundary at the last sync) while the stream ships live.
	r := sim.NewReplayer(sim.CoreTarget{Engine: primary}, trace)
	for {
		ok, err := r.Step()
		if err != nil {
			if !isCrashSignal(err) {
				return bs, fmt.Errorf("unexpected replay error: %w", err)
			}
			break
		}
		if !ok {
			break
		}
	}

	// Drain: everything the primary flushed must reach the replica.  The
	// flushed horizon is final here — the device is frozen (or the trace
	// is over), so no further record can become shippable.
	target := primary.Log().FlushedLSN()
	deadline := time.Now().Add(30 * time.Second)
	for follower.ReplayedLSN() < target {
		if time.Now().After(deadline) {
			return bs, fmt.Errorf("replica stuck at %d, want %d", follower.ReplayedLSN(), target)
		}
		time.Sleep(100 * time.Microsecond)
	}

	// The primary is lost: sever the stream, materialize the crash.
	c2.Close()
	<-serveDone
	<-followDone
	feed.Close()
	tornBytes, err := store.CrashNow()
	if err != nil {
		return bs, err
	}
	if tornBytes > 0 {
		bs.torn = 1
	}
	if err := primary.Crash(); err != nil {
		return bs, err
	}

	// The replica's durable log must be a prefix of the primary's
	// post-crash device image: only flushed records ship, and flushed
	// records are exactly the stable (pre-torn-tail) image.
	primaryRecs, err := decodeStable(store)
	if err != nil {
		return bs, fmt.Errorf("decode primary durable log: %w", err)
	}
	var replicaRecs []*wal.Record
	follower.Log().ResetReadCursor()
	err = follower.Log().Scan(1, wal.NilLSN, func(rec *wal.Record) (bool, error) {
		replicaRecs = append(replicaRecs, rec)
		return true, nil
	})
	if err != nil {
		return bs, err
	}
	if len(replicaRecs) > len(primaryRecs) {
		return bs, fmt.Errorf("replica has %d records, primary device only %d",
			len(replicaRecs), len(primaryRecs))
	}
	for i, rec := range replicaRecs {
		want, err := wal.EncodeRecord(primaryRecs[i])
		if err != nil {
			return bs, err
		}
		got, err := wal.EncodeRecord(rec)
		if err != nil {
			return bs, err
		}
		if !bytes.Equal(got, want) {
			return bs, fmt.Errorf("replica record %d (LSN %d) diverges from primary image", i, rec.LSN)
		}
	}
	bs.records = len(replicaRecs)
	bs.unshipped = len(primaryRecs) - len(replicaRecs)

	// Expected state: the oracle over the REPLICA's durable log.  Records
	// in the primary's torn tail were never flushed, never shipped, and
	// must not influence the promoted state.
	oracle := newLogOracle()
	for _, rec := range replicaRecs {
		oracle.apply(rec)
	}
	oracle.crashUndo()
	winners := durableWinners(replicaRecs)
	bs.winners = len(winners)
	bs.losers = len(r.IDs()) - len(winners)

	// Promote, capturing the undo visit stream.
	var visits []wal.LSN
	follower.SetEventHook(func(ev obs.Event) {
		if ev.Name == "undo.visit" {
			visits = append(visits, wal.LSN(ev.LSN))
		}
	})
	err = follower.Promote()
	follower.SetEventHook(nil)
	if err != nil {
		return bs, fmt.Errorf("promote: %w", err)
	}
	bs.undoVisits = len(visits)

	// Promotion's backward pass is the recovery backward pass: one
	// monotone sweep, strictly decreasing LSNs, no record visited twice.
	seen := make(map[wal.LSN]bool, len(visits))
	for i, lsn := range visits {
		if seen[lsn] {
			return bs, fmt.Errorf("promotion undo visited LSN %d twice", lsn)
		}
		seen[lsn] = true
		if i > 0 && lsn >= visits[i-1] {
			return bs, fmt.Errorf("promotion undo visits not strictly decreasing: %d then %d", visits[i-1], lsn)
		}
	}

	// State check: the promoted engine must agree with the oracle on
	// every object and every counter.
	for obj := 1; obj <= cfg.Objects; obj++ {
		id := wal.ObjectID(obj)
		want := oracle.values[id]
		got, _, err := follower.ReadObject(id)
		if err != nil {
			return bs, err
		}
		if string(got) != string(want) {
			return bs, fmt.Errorf("object %d: promoted %q, oracle %q (winners %v)",
				obj, got, want, winners)
		}
	}
	for c := cfg.Objects + 1; c <= cfg.Objects+cfg.Counters; c++ {
		id := wal.ObjectID(c)
		got, err := follower.CounterValue(id)
		if err != nil {
			return bs, err
		}
		if want := oracle.counters[id]; got != want {
			return bs, fmt.Errorf("counter %d: promoted %d, oracle %d", c, got, want)
		}
	}
	return bs, nil
}
