package sim

import (
	"sync"
	"testing"

	"ariesrh/internal/core"
	"ariesrh/internal/wal"
)

// TestConcurrentCommitMatchesOracle is the concurrency stress test for
// the commit path: several workers replay independent generated
// traces — objects shifted into disjoint ranges, so there are no lock
// conflicts and each worker's history is oracle-checkable in isolation —
// concurrently against ONE engine.  Committers from different workers
// race through Commit's append/unlatch/flush-wait/relatch dance and share
// leader flushes.  After the workers drain, the engine is crashed and
// recovered; every worker's objects must match its oracle under crash
// semantics (its still-live transactions are losers).
//
// Run under -race (the Makefile race target includes this package).
func TestConcurrentCommitMatchesOracle(t *testing.T) {
	const workers = 8
	const objStride = 1 << 16 // per-worker object ranges: disjoint by construction

	e, err := core.New(core.Options{PoolSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	target := CoreTarget{e}

	type workerResult struct {
		oracle *Oracle
		losers []int
		shift  wal.ObjectID
		cfg    Config
	}
	results := make([]workerResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cfg := defaultCfg(int64(9000 + w))
			cfg.Steps = 240
			trace := Generate(cfg)
			shift := wal.ObjectID(1 + w*objStride)
			for i := range trace {
				if trace[i].Obj != 0 {
					trace[i].Obj += shift
				}
			}
			oracle := NewOracle()
			rep := NewReplayer(target, trace)
			for _, a := range trace {
				if err := oracle.Apply(a); err != nil {
					errs[w] = err
					return
				}
				if _, err := rep.Step(); err != nil {
					errs[w] = err
					return
				}
			}
			results[w] = workerResult{oracle: oracle, losers: rep.LiveSlots(), shift: shift, cfg: cfg}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	// Quiesced crash: flush everything (so the oracle's durability view
	// matches), lose volatile state, recover.  Every transaction still
	// live at the crash — across all workers — is a loser.
	if err := target.FlushLog(); err != nil {
		t.Fatal(err)
	}
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}

	m := e.Metrics()
	if grouped, waiters := m.Counter("wal.grouped_flushes"), m.Counter("wal.flush_waiters"); waiters < grouped {
		t.Fatalf("grouped flushes (%d) exceed flush waiters (%d)", grouped, waiters)
	}

	for w := range results {
		r := results[w]
		r.oracle.CrashRecover(r.losers)
		for obj := r.shift; obj < r.shift+wal.ObjectID(r.cfg.Objects)+1; obj++ {
			want, wantOK := r.oracle.Value(obj)
			got, gotOK, err := target.ReadObject(obj)
			if err != nil {
				t.Fatalf("worker %d: read %d: %v", w, obj, err)
			}
			gotPresent := gotOK && len(got) > 0
			if wantOK != gotPresent || (wantOK && string(want) != string(got)) {
				t.Fatalf("worker %d object %d: engine=%q(%v) oracle=%q(%v)",
					w, obj, got, gotPresent, want, wantOK)
			}
		}
	}
}
