package torture

import (
	"errors"
	"testing"

	"ariesrh/internal/core"
	"ariesrh/internal/fault"
	"ariesrh/internal/sim"
	"ariesrh/internal/wal"
)

// TestCrashSweepEnumeratesBoundaries is the headline torture run: the
// default workload must expose at least 200 distinct crash points, and
// the engine must recover correctly at every single one — oracle
// agreement on all objects and counters, undo visits strictly decreasing
// and unique — with torn tails at every second boundary.
func TestCrashSweepEnumeratesBoundaries(t *testing.T) {
	cfg := Config{Seed: 1}
	if testing.Short() {
		cfg.MaxBoundaries = 40
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sweep: %+v", res)
	if res.Boundaries < 200 {
		t.Errorf("workload exposed %d crash points, want >= 200", res.Boundaries)
	}
	want := res.Boundaries
	if cfg.MaxBoundaries > 0 && want > cfg.MaxBoundaries {
		want = cfg.MaxBoundaries
	}
	if res.Crashes != want {
		t.Errorf("recovered at %d of %d boundaries", res.Crashes, want)
	}
	if res.TornCrashes == 0 {
		t.Error("no boundary produced a torn tail")
	}
	if res.Winners == 0 || res.Losers == 0 {
		t.Errorf("degenerate classification: %d winners, %d losers", res.Winners, res.Losers)
	}
	if res.UndoVisits == 0 {
		t.Error("no recovery ever visited a record in its backward pass")
	}
}

// TestCrashSweepSecondSeed re-runs a smaller sweep under a different
// seed, guarding against the headline test passing by seed luck.
func TestCrashSweepSecondSeed(t *testing.T) {
	res, err := Run(Config{Seed: 2, Steps: 500, MaxBoundaries: 80})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 || res.Losers == 0 {
		t.Fatalf("sweep did no useful work: %+v", res)
	}
}

// TestHealedForceSweep runs the base workload with a failed-then-healed
// force at every 8th sync boundary: one whole force fails past the WAL's
// retry budget, the device heals, the replay aborts what it has live and
// the crash comes after.  A commit whose force failed is in doubt, and
// only the log may decide it — the oracle rejects a CLR after a commit
// record, so a live rollback of it fails the sweep.
func TestHealedForceSweep(t *testing.T) {
	cfg := Config{Seed: 1}
	if testing.Short() {
		cfg.MaxBoundaries = 10
	}
	res, err := RunHealed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("healed sweep: %+v", res)
	if res.Crashes == 0 || res.Winners == 0 || res.Losers == 0 {
		t.Fatalf("sweep did no useful work: %+v", res)
	}
}

// TestDelegateAllCrashSweep runs the base sweep over a trace that also
// delegates whole Ob_Lists: each DelegateAll is one delegate-set record,
// so the freeze lands before and after set records, the torn tail cuts
// through them, and analysis, the record-level oracle and the undo sweep
// must all move every object of a set.
func TestDelegateAllCrashSweep(t *testing.T) {
	cfg := Config{Seed: 8, DelegateAllRate: 0.06}
	if testing.Short() {
		cfg.MaxBoundaries = 40
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("delegate-all sweep: %+v", res)
	want := res.Boundaries
	if cfg.MaxBoundaries > 0 && want > cfg.MaxBoundaries {
		want = cfg.MaxBoundaries
	}
	if res.Crashes != want || res.TornCrashes == 0 || res.Winners == 0 || res.Losers == 0 || res.UndoVisits == 0 {
		t.Fatalf("sweep did no useful work: %+v", res)
	}
	// The fault-free log must hold set records of more than one object,
	// or the sweep exercised only the single-object form.
	eng, err := core.New(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.NewReplayer(sim.CoreTarget{Engine: eng}, sim.Generate(cfg.withDefaults().simConfig())).RunTo(-1); err != nil {
		t.Fatal(err)
	}
	var sets, multi int
	if err := eng.Log().Scan(1, eng.Log().Head(), func(rec *wal.Record) (bool, error) {
		if rec.Type == wal.TypeDelegateSet {
			sets++
			if len(rec.Objects) > 1 {
				multi++
			}
		}
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	t.Logf("fault-free log: %d delegate-set records, %d of more than one object", sets, multi)
	if sets < 20 || multi < 10 {
		t.Fatalf("log holds %d delegate-set records (%d of several objects), want >= 20 (10)", sets, multi)
	}
}

// TestSweepDeterminism pins the reproducibility contract: one seed fully
// determines the sweep, so two runs must aggregate identically.
func TestSweepDeterminism(t *testing.T) {
	cfg := Config{Seed: 5, Steps: 300, MaxBoundaries: 40}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different sweeps:\n  %+v\n  %+v", a, b)
	}
}

// TestScopeAudit checks the Ob_List reconstruction invariant over a full
// trace: after every action, each live transaction's Op_List must equal
// the responsibility set derived from the raw durable log bytes.  The
// second trace also delegates whole Ob_Lists, so the audit reads
// delegate-set records.
func TestScopeAudit(t *testing.T) {
	for _, cfg := range []Config{{Seed: 3, Steps: 350}, {Seed: 3, Steps: 350, DelegateAllRate: 0.06}} {
		res, err := ScopeAudit(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("audit: %+v", res)
		if res.Checks == 0 || res.Records == 0 {
			t.Fatalf("audit did no useful work: %+v", res)
		}
	}
}

// TestTransientRetries verifies transient sync failures on the commit
// path are absorbed by the WAL's bounded-backoff retry: every commit in
// the run succeeds, the engine stays healthy, and the final state
// matches the oracle — while the counters prove faults really fired.
func TestTransientRetries(t *testing.T) {
	res, err := TransientRun(Config{Seed: 4, Steps: 400}, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("transient: %+v", res)
	if res.Injected == 0 {
		t.Fatal("no sync errors were injected; the run proved nothing")
	}
	if res.Retries == 0 {
		t.Fatal("injected sync errors but the WAL recorded no retries")
	}
}

// TestPersistentFailureDegradesMidTrace kills the device partway through
// a replay and verifies the engine lands in degraded read-only mode —
// errors surface, nothing wedges — and that a restart with a healed
// device recovers to a healthy, oracle-agreeing state.
func TestPersistentFailureDegradesMidTrace(t *testing.T) {
	cfg := Config{Seed: 6, Steps: 400}.withDefaults()
	trace := sim.Generate(cfg.simConfig())
	store := fault.NewDir(fault.Plan{Seed: cfg.Seed})
	eng, err := core.New(core.Options{
		LogDir:   store,
		PoolSize: cfg.PoolSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewReplayer(sim.CoreTarget{Engine: eng}, trace)
	if err := r.RunTo(len(trace) / 2); err != nil {
		t.Fatal(err)
	}
	store.SetFailAllSyncs(true)
	var stepErr error
	for stepErr == nil {
		ok, err := r.Step()
		if err != nil {
			stepErr = err
			break
		}
		if !ok {
			break
		}
	}
	if stepErr == nil {
		// Possible only if no remaining action forced the log; the
		// workload makes that astronomically unlikely.
		t.Fatal("no action surfaced the dead device")
	}
	if !errors.Is(stepErr, fault.ErrDeviceFailed) && !errors.Is(stepErr, core.ErrDegraded) {
		t.Fatalf("replay error = %v, want the device failure or ErrDegraded", stepErr)
	}
	if h := eng.Health(); h.State != core.StateDegraded {
		t.Fatalf("Health = %v, want degraded", h.State)
	}

	// Restart with a healed device: recovery must succeed and agree
	// with the oracle given the durable winners.
	store.SetFailAllSyncs(false)
	if _, err := store.CrashNow(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Recover(); err != nil {
		t.Fatal(err)
	}
	if h := eng.Health(); h.State != core.StateHealthy {
		t.Fatalf("Health after restart = %v, want healthy", h.State)
	}
	recs, err := decodeStable(store)
	if err != nil {
		t.Fatal(err)
	}
	oracle := newLogOracle()
	for _, rec := range recs {
		if err := oracle.apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	oracle.crashUndo()
	for obj := 1; obj <= cfg.Objects; obj++ {
		id := wal.ObjectID(obj)
		want := oracle.values[id]
		got, _, err := eng.ReadObject(id)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("object %d after restart: engine %q, oracle %q", obj, got, want)
		}
	}
}

// TestRotationArchiveCrashSweep crashes the device at every sync boundary
// of a workload that rotates segments constantly (tiny segment cap) and
// archives every few rounds, so the freeze lands inside rotations, inside
// archive's manifest commit, and between the manifest sync and the
// segment deletes.  Every boundary must recover to the state the capture
// oracle predicts, and every surviving durable record must be
// byte-identical to the capture — archive never rewrites live bytes.
func TestRotationArchiveCrashSweep(t *testing.T) {
	cfg := RotationConfig{Seed: 7}
	if testing.Short() {
		cfg.MaxBoundaries = 40
	}
	res, err := RotationRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("rotation sweep: %+v", res)
	if res.Rotations == 0 {
		t.Error("workload never rotated a segment; the sweep proved nothing")
	}
	if res.Archives == 0 || res.ArchivedBase == wal.NilLSN {
		t.Errorf("workload never archived (archives %d, base %d); the sweep proved nothing",
			res.Archives, res.ArchivedBase)
	}
	want := res.Boundaries
	if cfg.MaxBoundaries > 0 && want > cfg.MaxBoundaries {
		want = cfg.MaxBoundaries
	}
	if res.Crashes != want {
		t.Errorf("recovered at %d of %d boundaries", res.Crashes, want)
	}
	if res.TornCrashes == 0 {
		t.Error("no boundary produced a torn tail")
	}
	if res.Winners == 0 || res.Losers == 0 {
		t.Errorf("degenerate classification: %d winners, %d losers", res.Winners, res.Losers)
	}
}

// TestRotationSweepDeterminism pins reproducibility: the workload is
// serial and seeded, so two sweeps must aggregate identically.
func TestRotationSweepDeterminism(t *testing.T) {
	cfg := RotationConfig{Seed: 8, Rounds: 40, MaxBoundaries: 30}
	a, err := RotationRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RotationRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different sweeps:\n  %+v\n  %+v", a, b)
	}
}
