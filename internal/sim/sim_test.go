package sim

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"ariesrh/internal/core"
	"ariesrh/internal/rewrite"
	"ariesrh/internal/storage"
	"ariesrh/internal/wal"
)

func defaultCfg(seed int64) Config {
	return Config{
		Seed:           seed,
		Steps:          120,
		Objects:        24,
		MaxActive:      5,
		DelegationRate: 0.15,
		TerminateRate:  0.12,
		AbortFraction:  0.4,
	}
}

func newCoreTarget(t *testing.T) CoreTarget {
	t.Helper()
	e, err := core.New(core.Options{PoolSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	return CoreTarget{e}
}

func newRewriteTarget(t *testing.T, mode rewrite.Mode) RewriteTarget {
	t.Helper()
	e, err := rewrite.New(rewrite.Options{Mode: mode, PoolSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	return RewriteTarget{e}
}

// checkAgainstOracle compares every object the oracle has seen plus a
// sample of untouched IDs.
func checkAgainstOracle(t *testing.T, seed int64, target Target, oracle *Oracle, cfg Config) {
	t.Helper()
	for obj := wal.ObjectID(1); obj <= wal.ObjectID(cfg.Objects); obj++ {
		want, wantOK := oracle.Value(obj)
		got, gotOK, err := target.ReadObject(obj)
		if err != nil {
			t.Fatalf("seed %d: read %d: %v", seed, obj, err)
		}
		// Engines may report ok=true with an empty value for objects
		// whose updates were all undone; normalize.
		gotPresent := gotOK && len(got) > 0
		if wantOK != gotPresent || (wantOK && !bytes.Equal(want, got)) {
			t.Fatalf("seed %d: object %d: engine=%q(%v) oracle=%q(%v)",
				seed, obj, got, gotPresent, want, wantOK)
		}
	}
}

// TestGenerateDeterministic: identical seeds produce identical traces.
func TestGenerateDeterministic(t *testing.T) {
	a := Generate(defaultCfg(7))
	b := Generate(defaultCfg(7))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Tx != b[i].Tx || a[i].Tee != b[i].Tee ||
			a[i].Obj != b[i].Obj || !bytes.Equal(a[i].Val, b[i].Val) {
			t.Fatalf("step %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestGenerateLegal: traces satisfy the structural legality the replayer
// depends on (begins precede use, delegations are well-formed).
func TestGenerateLegal(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		trace := Generate(defaultCfg(seed))
		begun := map[int]bool{}
		live := map[int]bool{}
		responsible := map[int]map[wal.ObjectID]bool{}
		for i, a := range trace {
			switch a.Kind {
			case ActBegin:
				if begun[a.Tx] {
					t.Fatalf("seed %d step %d: double begin of %d", seed, i, a.Tx)
				}
				begun[a.Tx] = true
				live[a.Tx] = true
				responsible[a.Tx] = map[wal.ObjectID]bool{}
			case ActUpdate:
				if !live[a.Tx] {
					t.Fatalf("seed %d step %d: update by dead slot %d", seed, i, a.Tx)
				}
				responsible[a.Tx][a.Obj] = true
			case ActDelegate:
				if !live[a.Tx] || !live[a.Tee] || a.Tx == a.Tee {
					t.Fatalf("seed %d step %d: bad delegate %+v", seed, i, a)
				}
				if !responsible[a.Tx][a.Obj] {
					t.Fatalf("seed %d step %d: ill-formed delegate %+v", seed, i, a)
				}
				delete(responsible[a.Tx], a.Obj)
				responsible[a.Tee][a.Obj] = true
			case ActCommit, ActAbort:
				if !live[a.Tx] {
					t.Fatalf("seed %d step %d: terminate of dead slot %d", seed, i, a.Tx)
				}
				delete(live, a.Tx)
			}
		}
	}
}

// TestCoreMatchesOracleNoCrash settles each trace (aborting stragglers)
// and compares the final database with the oracle.
func TestCoreMatchesOracleNoCrash(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		cfg := defaultCfg(seed)
		trace := Generate(cfg)
		target := newCoreTarget(t)
		rep := NewReplayer(target, trace)
		oracle := NewOracle()
		for _, a := range trace {
			if err := oracle.Apply(a); err != nil {
				t.Fatal(err)
			}
		}
		if err := rep.RunTo(-1); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Settle: abort stragglers in both engine and oracle.
		for _, s := range rep.LiveSlots() {
			if err := oracle.Apply(Action{Kind: ActAbort, Tx: s}); err != nil {
				t.Fatal(err)
			}
		}
		if err := rep.AbortLive(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkAgainstOracle(t, seed, target, oracle, cfg)
	}
}

// TestCoreCrashRecoveryMatchesOracle is E7: randomized crash injection.
// For each seed the trace is cut at a random point, the log is flushed,
// the system crashes and recovers, and the database must match the
// oracle's crash semantics (active transactions are losers).
func TestCoreCrashRecoveryMatchesOracle(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	// SIM_SEEDS scales the sweep for long soak runs (e.g. SIM_SEEDS=5000).
	if env := os.Getenv("SIM_SEEDS"); env != "" {
		if n, err := strconv.Atoi(env); err == nil && n > 0 {
			seeds = n
		}
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		cfg := defaultCfg(seed)
		trace := Generate(cfg)
		rng := rand.New(rand.NewSource(seed * 31))
		cut := rng.Intn(len(trace) + 1)
		target := newCoreTarget(t)
		rep := NewReplayer(target, trace)
		oracle := NewOracle()
		for _, a := range trace[:cut] {
			if err := oracle.Apply(a); err != nil {
				t.Fatal(err)
			}
		}
		if err := rep.RunTo(cut); err != nil {
			t.Fatalf("seed %d cut %d: %v", seed, cut, err)
		}
		losers := rep.LiveSlots()
		if err := rep.CrashRecover(); err != nil {
			t.Fatalf("seed %d cut %d: recover: %v", seed, cut, err)
		}
		oracle.CrashRecover(losers)
		checkAgainstOracle(t, seed, target, oracle, cfg)
	}
}

// TestCoreDoubleCrashMatchesOracle re-crashes immediately after recovery:
// the second recovery must be a no-op semantically (CLR idempotency).
func TestCoreDoubleCrashMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		cfg := defaultCfg(seed)
		trace := Generate(cfg)
		cut := len(trace) / 2
		target := newCoreTarget(t)
		rep := NewReplayer(target, trace)
		oracle := NewOracle()
		for _, a := range trace[:cut] {
			if err := oracle.Apply(a); err != nil {
				t.Fatal(err)
			}
		}
		if err := rep.RunTo(cut); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		losers := rep.LiveSlots()
		if err := rep.CrashRecover(); err != nil {
			t.Fatal(err)
		}
		if err := rep.CrashRecover(); err != nil {
			t.Fatal(err)
		}
		if err := rep.CrashRecover(); err != nil {
			t.Fatal(err)
		}
		oracle.CrashRecover(losers)
		checkAgainstOracle(t, seed, target, oracle, cfg)
	}
}

// TestCrashWithCheckpointMatchesOracle inserts a checkpoint mid-trace.
func TestCrashWithCheckpointMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		cfg := defaultCfg(seed)
		trace := Generate(cfg)
		ckptAt := len(trace) / 3
		cut := 2 * len(trace) / 3
		target := newCoreTarget(t)
		rep := NewReplayer(target, trace)
		oracle := NewOracle()
		for _, a := range trace[:cut] {
			if err := oracle.Apply(a); err != nil {
				t.Fatal(err)
			}
		}
		if err := rep.RunTo(ckptAt); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := target.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := rep.RunTo(cut); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		losers := rep.LiveSlots()
		if err := rep.CrashRecover(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		oracle.CrashRecover(losers)
		checkAgainstOracle(t, seed, target, oracle, cfg)
	}
}

// TestDifferentialEnginesAgree replays the same trace — with the same
// crash point — against ARIES/RH and both rewriting baselines; all three
// must agree with the oracle (and hence with each other).
func TestDifferentialEnginesAgree(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		cfg := defaultCfg(seed)
		trace := Generate(cfg)
		cut := (len(trace) * 3) / 4
		oracle := NewOracle()
		for _, a := range trace[:cut] {
			if err := oracle.Apply(a); err != nil {
				t.Fatal(err)
			}
		}
		var losers []int
		targets := map[string]Target{
			"core":  newCoreTarget(t),
			"eager": newRewriteTarget(t, rewrite.Eager),
			"lazy":  newRewriteTarget(t, rewrite.Lazy),
		}
		for name, target := range targets {
			rep := NewReplayer(target, trace)
			if err := rep.RunTo(cut); err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			losers = rep.LiveSlots()
			if err := rep.CrashRecover(); err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
		}
		oracle.CrashRecover(losers)
		for name, target := range targets {
			t.Run(fmt.Sprintf("seed%d-%s", seed, name), func(t *testing.T) {
				checkAgainstOracle(t, seed, target, oracle, cfg)
			})
		}
	}
}

// TestSavepointWorkloadMatchesOracle mixes partial rollbacks into the
// histories (ARIES/RH only — the rewriting baselines have no savepoints)
// and checks both the settled state and the crash-recovered state against
// the oracle.
func TestSavepointWorkloadMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		cfg := defaultCfg(seed)
		cfg.SavepointRate = 0.10
		trace := Generate(cfg)
		t.Run(fmt.Sprintf("settled-seed%d", seed), func(t *testing.T) {
			target := newCoreTarget(t)
			rep := NewReplayer(target, trace)
			oracle := NewOracle()
			for _, a := range trace {
				if err := oracle.Apply(a); err != nil {
					t.Fatal(err)
				}
			}
			if err := rep.RunTo(-1); err != nil {
				t.Fatal(err)
			}
			for _, s := range rep.LiveSlots() {
				if err := oracle.Apply(Action{Kind: ActAbort, Tx: s}); err != nil {
					t.Fatal(err)
				}
			}
			if err := rep.AbortLive(); err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, seed, target, oracle, cfg)
		})
		t.Run(fmt.Sprintf("crash-seed%d", seed), func(t *testing.T) {
			cut := (len(trace) * 2) / 3
			target := newCoreTarget(t)
			rep := NewReplayer(target, trace)
			oracle := NewOracle()
			for _, a := range trace[:cut] {
				if err := oracle.Apply(a); err != nil {
					t.Fatal(err)
				}
			}
			if err := rep.RunTo(cut); err != nil {
				t.Fatal(err)
			}
			losers := rep.LiveSlots()
			if err := rep.CrashRecover(); err != nil {
				t.Fatal(err)
			}
			oracle.CrashRecover(losers)
			checkAgainstOracle(t, seed, target, oracle, cfg)
		})
	}
}

// checkCounters compares every counter against the oracle.
func checkCounters(t *testing.T, seed int64, target CoreTarget, oracle *Oracle, cfg Config) {
	t.Helper()
	for i := 1; i <= cfg.Counters; i++ {
		obj := wal.ObjectID(cfg.Objects + i)
		got, err := target.CounterValue(obj)
		if err != nil {
			t.Fatalf("seed %d: counter %d: %v", seed, obj, err)
		}
		if want := oracle.Counter(obj); got != want {
			t.Fatalf("seed %d: counter %d = %d, want %d", seed, obj, got, want)
		}
	}
}

// TestCounterWorkloadMatchesOracle mixes commutative increments (and their
// delegations) into the histories; final counters must match the oracle
// both settled and after crash recovery.
func TestCounterWorkloadMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		cfg := defaultCfg(seed)
		cfg.Counters = 6
		cfg.IncrementRate = 0.25
		trace := Generate(cfg)
		t.Run(fmt.Sprintf("settled-seed%d", seed), func(t *testing.T) {
			target := newCoreTarget(t)
			rep := NewReplayer(target, trace)
			oracle := NewOracle()
			for _, a := range trace {
				if err := oracle.Apply(a); err != nil {
					t.Fatal(err)
				}
			}
			if err := rep.RunTo(-1); err != nil {
				t.Fatal(err)
			}
			for _, s := range rep.LiveSlots() {
				if err := oracle.Apply(Action{Kind: ActAbort, Tx: s}); err != nil {
					t.Fatal(err)
				}
			}
			if err := rep.AbortLive(); err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, seed, target, oracle, cfg)
			checkCounters(t, seed, target, oracle, cfg)
		})
		t.Run(fmt.Sprintf("crash-seed%d", seed), func(t *testing.T) {
			cut := (len(trace) * 2) / 3
			target := newCoreTarget(t)
			rep := NewReplayer(target, trace)
			oracle := NewOracle()
			for _, a := range trace[:cut] {
				if err := oracle.Apply(a); err != nil {
					t.Fatal(err)
				}
			}
			if err := rep.RunTo(cut); err != nil {
				t.Fatal(err)
			}
			losers := rep.LiveSlots()
			if err := rep.CrashRecover(); err != nil {
				t.Fatal(err)
			}
			oracle.CrashRecover(losers)
			checkAgainstOracle(t, seed, target, oracle, cfg)
			checkCounters(t, seed, target, oracle, cfg)
		})
	}
}

// TestKitchenSinkWorkload enables everything at once: delegations,
// savepoints, increments, checkpoints, triple crash.
func TestKitchenSinkWorkload(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		cfg := defaultCfg(seed)
		cfg.Steps = 200
		cfg.Counters = 4
		cfg.IncrementRate = 0.15
		cfg.SavepointRate = 0.08
		trace := Generate(cfg)
		cut := (len(trace) * 3) / 4
		target := newCoreTarget(t)
		rep := NewReplayer(target, trace)
		oracle := NewOracle()
		for _, a := range trace[:cut] {
			if err := oracle.Apply(a); err != nil {
				t.Fatal(err)
			}
		}
		if err := rep.RunTo(cut / 2); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := target.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := rep.RunTo(cut); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		losers := rep.LiveSlots()
		for i := 0; i < 3; i++ {
			if err := rep.CrashRecover(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		oracle.CrashRecover(losers)
		checkAgainstOracle(t, seed, target, oracle, cfg)
		checkCounters(t, seed, target, oracle, cfg)
	}
}

// TestFileBackedCrashRecovery runs one full scenario over real files: the
// log, pages and master record live on disk, and recovery replays from
// them — the same stack a production deployment would use.
func TestFileBackedCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	logDir, err := wal.OpenFileDir(dir + "/wal")
	if err != nil {
		t.Fatal(err)
	}
	master, err := wal.OpenFileStore(dir + "/master")
	if err != nil {
		t.Fatal(err)
	}
	disk, err := storage.OpenFileDisk(dir + "/pages.db")
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.New(core.Options{PoolSize: 32, LogDir: logDir, Disk: disk, MasterStore: master})
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultCfg(3)
	trace := Generate(cfg)
	cut := (len(trace) * 2) / 3
	target := CoreTarget{e}
	rep := NewReplayer(target, trace)
	oracle := NewOracle()
	for _, a := range trace[:cut] {
		if err := oracle.Apply(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := rep.RunTo(cut / 2); err != nil {
		t.Fatal(err)
	}
	if err := target.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := rep.RunTo(cut); err != nil {
		t.Fatal(err)
	}
	losers := rep.LiveSlots()
	if err := rep.CrashRecover(); err != nil {
		t.Fatal(err)
	}
	oracle.CrashRecover(losers)
	checkAgainstOracle(t, 3, target, oracle, cfg)
}

// TestCrashDuringRecovery interrupts the recovery backward pass itself
// after N CLRs (for every feasible N), optionally making the partial CLRs
// durable, then crashes and recovers again.  The paper's CLR argument
// (§3.6.2: "to avoid undoing an update repeatedly should crashes occur
// during recovery") is exactly what this exercises.
func TestCrashDuringRecovery(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		cfg := defaultCfg(seed)
		cfg.DelegationRate = 0.25
		trace := Generate(cfg)
		cut := (len(trace) * 3) / 4
		for _, flushPartial := range []bool{false, true} {
			for failAfter := 1; failAfter <= 6; failAfter++ {
				target := newCoreTarget(t)
				rep := NewReplayer(target, trace)
				oracle := NewOracle()
				for _, a := range trace[:cut] {
					if err := oracle.Apply(a); err != nil {
						t.Fatal(err)
					}
				}
				if err := rep.RunTo(cut); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				losers := rep.LiveSlots()
				if err := target.FlushLog(); err != nil {
					t.Fatal(err)
				}
				if err := target.Crash(); err != nil {
					t.Fatal(err)
				}
				target.SetRecoveryFailpoint(failAfter)
				err := target.Recover()
				if err == nil {
					// Fewer than failAfter CLRs were needed: the
					// failpoint never fired and recovery finished.
					target.SetRecoveryFailpoint(0)
				} else {
					if !errors.Is(err, core.ErrInjectedRecoveryFailure) {
						t.Fatalf("seed %d failAfter %d: %v", seed, failAfter, err)
					}
					if flushPartial {
						// Worst case: the partial recovery's CLRs
						// reached stable storage before the second
						// crash.
						if err := target.FlushLog(); err != nil {
							t.Fatal(err)
						}
					}
					if err := target.Crash(); err != nil {
						t.Fatal(err)
					}
					if err := target.Recover(); err != nil {
						t.Fatalf("seed %d failAfter %d: second recovery: %v", seed, failAfter, err)
					}
				}
				oc := NewOracle()
				for _, a := range trace[:cut] {
					if err := oc.Apply(a); err != nil {
						t.Fatal(err)
					}
				}
				oc.CrashRecover(losers)
				checkAgainstOracle(t, seed, target, oc, cfg)
			}
		}
	}
}

// TestDelegateAllRateZeroKeepsTraces pins the generator's output for the
// test default and the crash sweep's default workload to the digests they
// had before ActDelegateAll existed: at DelegateAllRate 0 the generator
// draws exactly the same numbers, so every existing trace — and every
// deterministic sweep built on one — is unchanged.
func TestDelegateAllRateZeroKeepsTraces(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want uint64
	}{
		{defaultCfg(7), 0x40a3329e1d23164e},
		{Config{Seed: 1, Steps: 1500, Objects: 24, MaxActive: 6, DelegationRate: 0.25, TerminateRate: 0.18,
			AbortFraction: 0.35, SavepointRate: 0.08, Counters: 4, IncrementRate: 0.06}, 0xb48f6a331fd8317d},
	} {
		h := fnv.New64a()
		for _, a := range Generate(c.cfg) {
			fmt.Fprintf(h, "%d %d %d %d %q %d\n", a.Kind, a.Tx, a.Tee, a.Obj, a.Val, a.Delta)
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("seed %d: trace digest %#x, want %#x", c.cfg.Seed, got, c.want)
		}
	}
}

// TestDelegateAllWorkloadMatchesOracle replays traces with delegate-all
// actions beside single delegations, savepoints and counters, crashes
// them (three times, with a checkpoint halfway) and settles the rest
// without a crash; both must agree with the oracle, which moves every live
// operation of the delegator.
func TestDelegateAllWorkloadMatchesOracle(t *testing.T) {
	var delegateAlls int
	for seed := int64(0); seed < 15; seed++ {
		cfg := defaultCfg(seed)
		cfg.Steps = 200
		cfg.Counters = 4
		cfg.IncrementRate = 0.1
		cfg.SavepointRate = 0.06
		cfg.DelegateAllRate = 0.08
		trace := Generate(cfg)
		for _, a := range trace {
			if a.Kind == ActDelegateAll {
				delegateAlls++
			}
		}
		cut := (len(trace) * 3) / 4
		target := newCoreTarget(t)
		rep := NewReplayer(target, trace)
		oracle := NewOracle()
		for _, a := range trace[:cut] {
			if err := oracle.Apply(a); err != nil {
				t.Fatal(err)
			}
		}
		if err := rep.RunTo(cut / 2); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := target.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := rep.RunTo(cut); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		losers := rep.LiveSlots()
		for i := 0; i < 3; i++ {
			if err := rep.CrashRecover(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		oracle.CrashRecover(losers)
		checkAgainstOracle(t, seed, target, oracle, cfg)
		checkCounters(t, seed, target, oracle, cfg)

		// The same trace without a crash, settled by aborting stragglers.
		target = newCoreTarget(t)
		rep = NewReplayer(target, trace)
		oracle = NewOracle()
		for _, a := range trace {
			if err := oracle.Apply(a); err != nil {
				t.Fatal(err)
			}
		}
		if err := rep.RunTo(-1); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, s := range rep.LiveSlots() {
			if err := oracle.Apply(Action{Kind: ActAbort, Tx: s}); err != nil {
				t.Fatal(err)
			}
		}
		if err := rep.AbortLive(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkAgainstOracle(t, seed, target, oracle, cfg)
		checkCounters(t, seed, target, oracle, cfg)
	}
	if delegateAlls < 30 {
		t.Fatalf("traces held %d delegate-all actions; the test proved little", delegateAlls)
	}
}

// TestDelegateAllNeedsTarget checks a baseline without DelegateAll
// refuses a delegate-all action instead of skipping it.
func TestDelegateAllNeedsTarget(t *testing.T) {
	target := newRewriteTarget(t, rewrite.Lazy)
	rep := NewReplayer(target, []Action{{Kind: ActBegin, Tx: 0}, {Kind: ActBegin, Tx: 1}, {Kind: ActDelegateAll, Tx: 0, Tee: 1}})
	if err := rep.RunTo(-1); err == nil {
		t.Fatal("rewriting baseline replayed a delegate-all action")
	}
}
