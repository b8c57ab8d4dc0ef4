package torture

import (
	"fmt"
	"runtime"
	"sync"

	"ariesrh/internal/core"
	"ariesrh/internal/fault"
	"ariesrh/internal/obs"
	"ariesrh/internal/sim"
	"ariesrh/internal/wal"
)

// RunReadsDuringRecovery executes the crash-point sweep with the engine's
// parallel recovery pipeline (core.Options.ParallelRecovery) and, at
// every boundary, issues reads of every object and counter WHILE the
// pipeline is still running — Recover returns with recovery in flight,
// so the reads race the redo drain and the backward undo sweep.  Each
// read triggers on-demand redo of its object's chain and waits for the
// undo of the loser clusters covering it, so it must already return the
// fully recovered value; the reads are judged by the same durable-log
// oracle as the sequential sweep, and the post-WaitRecovered state is
// checked against it a second time.  The undo-visit stream must stay one
// strictly decreasing, duplicate-free sweep — the pipeline changes when
// redo happens, never the undo order.
func RunReadsDuringRecovery(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	trace := sim.Generate(cfg.simConfig())

	// Probe exactly as Run does: boundaries are a pure function of the
	// trace, independent of how recovery will later be performed.
	probe := fault.NewDir(fault.Plan{})
	eng, err := core.New(core.Options{
		LogDir:   probe,
		PoolSize: cfg.PoolSize,
	})
	if err != nil {
		return Result{}, err
	}
	if err := sim.NewReplayer(sim.CoreTarget{Engine: eng}, trace).RunTo(-1); err != nil {
		return Result{}, fmt.Errorf("torture: probe replay: %w", err)
	}
	boundaries := int(probe.Syncs())

	res := Result{Boundaries: boundaries}
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
			b, err := cfg.runBoundaryInstant(trace, uint64(k))
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("torture: reads-during-recovery seed %d boundary %d: %w", cfg.Seed, k, err)
				}
				return
			}
			res.Crashes++
			res.TornCrashes += b.torn
			res.AmbiguousWins += b.ambiguous
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

// checkOracleState compares the engine's visible state for every object
// and counter against the oracle; phase labels the error ("during
// recovery" vs "after recovery").
func (cfg Config) checkOracleState(eng *core.Engine, oracle *logOracle, phase string) error {
	for obj := 1; obj <= cfg.Objects; obj++ {
		id := wal.ObjectID(obj)
		got, _, err := eng.ReadObject(id)
		if err != nil {
			return fmt.Errorf("%s: read object %d: %w", phase, obj, err)
		}
		if want := oracle.values[id]; string(got) != string(want) {
			return fmt.Errorf("%s: object %d: engine %q, oracle %q", phase, obj, got, want)
		}
	}
	for c := cfg.Objects + 1; c <= cfg.Objects+cfg.Counters; c++ {
		id := wal.ObjectID(c)
		got, err := eng.CounterValue(id)
		if err != nil {
			return fmt.Errorf("%s: read counter %d: %w", phase, c, err)
		}
		if want := oracle.counters[id]; got != want {
			return fmt.Errorf("%s: counter %d: engine %d, oracle %d", phase, c, got, want)
		}
	}
	return nil
}

// runBoundaryInstant is runBoundary with the parallel pipeline: same
// plan, same oracle, but recovery is left in flight while concurrent
// readers check every object against the oracle mid-pipeline.
func (cfg Config) runBoundaryInstant(trace []sim.Action, k uint64) (boundaryStats, error) {
	var bs boundaryStats
	plan := fault.Plan{
		Seed:        cfg.Seed ^ int64(uint64(k)*0x9E3779B97F4A7C15),
		CrashAtSync: k,
		TornTail:    cfg.TornEvery > 0 && k%uint64(cfg.TornEvery) == 0,
	}
	store := fault.NewDir(plan)
	mk := func() (*core.Engine, error) {
		return core.New(core.Options{
			LogDir:           store,
			PoolSize:         cfg.PoolSize,
			ParallelRecovery: true,
		})
	}
	eng, err := mk()
	if err != nil {
		if !isCrashSignal(err) {
			return bs, err
		}
		torn, err := initCrashRecovery(store, mk)
		if err != nil {
			return bs, err
		}
		if torn {
			bs.torn = 1
		}
		return bs, nil
	}
	r := sim.NewReplayer(sim.CoreTarget{Engine: eng}, trace)

	failedIdx := -1
	for {
		ok, err := r.Step()
		if err != nil {
			if !isCrashSignal(err) {
				return bs, fmt.Errorf("unexpected replay error: %w", err)
			}
			failedIdx = r.Pos() - 1
			break
		}
		if !ok {
			break
		}
	}
	tornBytes, err := store.CrashNow()
	if err != nil {
		return bs, err
	}
	if tornBytes > 0 {
		bs.torn = 1
	}
	recs, err := decodeStable(store)
	if err != nil {
		return bs, fmt.Errorf("decode durable log: %w", err)
	}
	bs.records = len(recs)
	winners := durableWinners(recs)

	oracle := newLogOracle()
	for _, rec := range recs {
		oracle.apply(rec)
	}
	oracle.crashUndo()

	ids := r.IDs()
	bs.winners = len(winners)
	bs.losers = len(ids) - len(winners)
	if failedIdx >= 0 && trace[failedIdx].Kind == sim.ActCommit && winners[ids[trace[failedIdx].Tx]] {
		bs.ambiguous++
	}

	if err := eng.Crash(); err != nil {
		return bs, err
	}
	var visitMu sync.Mutex
	var visits []wal.LSN
	eng.SetEventHook(func(ev obs.Event) {
		if ev.Name == "undo.visit" {
			visitMu.Lock()
			visits = append(visits, wal.LSN(ev.LSN))
			visitMu.Unlock()
		}
	})
	// Recover returns with the pipeline still running...
	if err := eng.Recover(); err != nil {
		return bs, fmt.Errorf("recover: %w", err)
	}
	// ...and the mid-recovery readers race it: two goroutines split the
	// object space and check every value against the oracle while redo
	// and undo are (possibly) still in flight.
	var readerWG sync.WaitGroup
	readerErrs := make([]error, 2)
	for part := 0; part < 2; part++ {
		readerWG.Add(1)
		go func(part int) {
			defer readerWG.Done()
			for obj := 1; obj <= cfg.Objects+cfg.Counters; obj++ {
				if obj%2 != part {
					continue
				}
				id := wal.ObjectID(obj)
				if obj <= cfg.Objects {
					got, _, err := eng.ReadObject(id)
					if err != nil {
						readerErrs[part] = fmt.Errorf("mid-recovery read object %d: %w", obj, err)
						return
					}
					if want := oracle.values[id]; string(got) != string(want) {
						readerErrs[part] = fmt.Errorf("mid-recovery object %d: engine %q, oracle %q", obj, got, want)
						return
					}
				} else {
					got, err := eng.CounterValue(id)
					if err != nil {
						readerErrs[part] = fmt.Errorf("mid-recovery read counter %d: %w", obj, err)
						return
					}
					if want := oracle.counters[id]; got != want {
						readerErrs[part] = fmt.Errorf("mid-recovery counter %d: engine %d, oracle %d", obj, got, want)
						return
					}
				}
			}
		}(part)
	}
	readerWG.Wait()
	for _, rerr := range readerErrs {
		if rerr != nil {
			return bs, rerr
		}
	}
	if err := eng.WaitRecovered(); err != nil {
		return bs, fmt.Errorf("wait recovered: %w", err)
	}
	eng.SetEventHook(nil)
	bs.undoVisits = len(visits)

	// The pipeline must not change the undo order: one monotone sweep,
	// strictly decreasing, no duplicates.
	seen := make(map[wal.LSN]bool, len(visits))
	for i, lsn := range visits {
		if seen[lsn] {
			return bs, fmt.Errorf("undo visited LSN %d twice", lsn)
		}
		seen[lsn] = true
		if i > 0 && lsn >= visits[i-1] {
			return bs, fmt.Errorf("undo visits not strictly decreasing: %d then %d", visits[i-1], lsn)
		}
	}

	// Settled-state check: same judgment, after the pipeline completed.
	return bs, cfg.checkOracleState(eng, oracle, "after recovery")
}
