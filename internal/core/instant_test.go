package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"ariesrh/internal/storage"
	"ariesrh/internal/wal"
)

// instantWorkloadObjects bounds the object IDs instantWorkload touches;
// counters live just below it.
const instantWorkloadObjects = 2100

// instantWorkload drives a deterministic mix of updates, increments,
// delegations, commits and aborts, leaving some transactions live so the
// crash has losers.  The driver is single-threaded, so the durable
// prefix — and with it the recovered state — is identical across runs.
// Each transaction
// updates only its own object range (counters use compatible Increment
// locks) so the single-threaded driver never blocks on a lock.
func instantWorkload(t *testing.T, e *Engine, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var live []wal.TxID
	delegated := make(map[wal.TxID]bool)
	for step := 0; step < 250; step++ {
		switch {
		case len(live) < 3 || (len(live) < 6 && rng.Intn(3) == 0):
			tx, err := e.Begin()
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, tx)
		case rng.Intn(8) == 0 && len(live) >= 2:
			tor := live[rng.Intn(len(live))]
			tee := live[rng.Intn(len(live))]
			// One delegation per delegator, of an object reserved for it
			// and never touched again — the lock moves to the delegatee.
			if tor != tee && !delegated[tor] {
				obj := wal.ObjectID(tor*4 + 3)
				mustUpdate(t, e, tor, obj, fmt.Sprintf("deleg%d", tor))
				mustDelegate(t, e, tor, tee, obj)
				delegated[tor] = true
			}
		case rng.Intn(6) == 0:
			i := rng.Intn(len(live))
			tx := live[i]
			live = append(live[:i], live[i+1:]...)
			if rng.Intn(3) == 0 {
				mustAbort(t, e, tx)
			} else {
				mustCommit(t, e, tx)
			}
		case rng.Intn(4) == 0:
			tx := live[rng.Intn(len(live))]
			obj := wal.ObjectID(instantWorkloadObjects - 1 - rng.Intn(4))
			if _, err := e.Increment(tx, obj, int64(rng.Intn(9)-4)); err != nil {
				t.Fatal(err)
			}
		default:
			tx := live[rng.Intn(len(live))]
			obj := wal.ObjectID(tx*4) + wal.ObjectID(rng.Intn(3))
			mustUpdate(t, e, tx, obj, fmt.Sprintf("v%d-%d", step, obj))
		}
	}
	// Flush so the crash keeps a long prefix (including loser updates).
	if err := e.Log().Flush(e.Log().Head()); err != nil {
		t.Fatal(err)
	}
}

// TestParallelRecoveryMatchesSequential is the equivalence claim behind
// Options.ParallelRecovery: the pipeline recovers byte-identical state.
// Two engines run the same deterministic workload (identical logs), crash,
// and recover — one sequentially, one through the pipeline; every object
// and counter must agree.
func TestParallelRecoveryMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seq, err := New(Options{PoolSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		par, err := New(Options{PoolSize: 16, ParallelRecovery: true})
		if err != nil {
			t.Fatal(err)
		}
		instantWorkload(t, seq, seed)
		instantWorkload(t, par, seed)
		if sh, ph := seq.Log().Head(), par.Log().Head(); sh != ph {
			t.Fatalf("seed %d: non-deterministic workload: heads %d vs %d", seed, sh, ph)
		}
		mustDo(t, seq.Crash())
		mustDo(t, par.Crash())
		mustDo(t, seq.Recover())
		mustDo(t, par.Recover())
		// A few on-demand reads race the drain; they must already be final.
		for obj := wal.ObjectID(0); obj < 5; obj++ {
			pv, pok, perr := par.ReadObject(obj)
			if perr != nil {
				t.Fatal(perr)
			}
			sv, sok, serr := seq.ReadObject(obj)
			if serr != nil {
				t.Fatal(serr)
			}
			if pok != sok || !bytes.Equal(pv, sv) {
				t.Fatalf("seed %d: mid-recovery read obj %d = %q (ok=%v), sequential %q (ok=%v)",
					seed, obj, pv, pok, sv, sok)
			}
		}
		mustDo(t, par.WaitRecovered())
		for obj := wal.ObjectID(0); obj < instantWorkloadObjects; obj++ {
			pv, pok, perr := par.ReadObject(obj)
			sv, sok, serr := seq.ReadObject(obj)
			if perr != nil || serr != nil {
				t.Fatal(perr, serr)
			}
			if pok != sok || !bytes.Equal(pv, sv) {
				t.Fatalf("seed %d: obj %d = %q (ok=%v), sequential %q (ok=%v)",
					seed, obj, pv, pok, sv, sok)
			}
		}
		tr := par.LastRecoveryTrace()
		if !tr.Parallel {
			t.Fatalf("seed %d: trace not marked parallel", seed)
		}
		counts := func(tr RecoveryTrace) [8]uint64 {
			return [8]uint64{tr.ForwardRecords, tr.Redone, tr.BackwardVisited, tr.BackwardSkipped,
				tr.Clusters, tr.CLRs, tr.Losers, tr.Winners}
		}
		if pc, sc := counts(tr), counts(seq.LastRecoveryTrace()); pc != sc {
			t.Fatalf("seed %d: trace mismatch (forward, redone, visited, skipped, clusters, CLRs, losers, winners): parallel %v, sequential %v",
				seed, pc, sc)
		}
		if pt, st := recoveredTable(par), recoveredTable(seq); pt != st {
			t.Fatalf("seed %d: recovered transaction table\n parallel   %s\n sequential %s", seed, pt, st)
		}
	}
}

// recoveredTable renders what recovery left in e's transaction table:
// every record's entry and scopes, the next transaction ID, and how many
// records recovery put back on the free list.
func recoveredTable(e *Engine) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := fmt.Sprintf("next t%d, %d free:", e.nextTx, len(e.free))
	for _, r := range e.sortedRecsLocked() {
		out += fmt.Sprintf(" %+v %v prepared=%v %+v;", r.Info, r.obs.AllScopes(), r.prepared, r.prep)
	}
	return out
}

// TestParallelRecoveryWritesRejected: while the pipeline runs, reads are
// served but every mutating operation returns ErrRecovering — writes
// never interleave with redo or the backward pass.  SetRecoveryHold
// parks the pipeline after all recovery work, giving a deterministic
// recovering window.
func TestParallelRecoveryWritesRejected(t *testing.T) {
	e, err := New(Options{PoolSize: 16, ParallelRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 1, "durable")
	mustCommit(t, e, tx)
	loser := mustBegin(t, e)
	mustUpdate(t, e, loser, 2, "doomed")
	mustDo(t, e.Log().Flush(e.Log().Head()))

	hold := make(chan struct{})
	e.SetRecoveryHold(hold)
	mustDo(t, e.Crash())
	mustDo(t, e.Recover())

	if h := e.Health(); h.State != StateRecovering {
		t.Fatalf("health during pipeline = %v, want recovering", h.State)
	}
	if _, err := e.Begin(); !errors.Is(err, ErrRecovering) {
		t.Fatalf("Begin during recovery: err = %v, want ErrRecovering", err)
	}
	if err := e.Checkpoint(); !errors.Is(err, ErrRecovering) {
		t.Fatalf("Checkpoint during recovery: err = %v, want ErrRecovering", err)
	}
	// An abort would rewrite the transaction table the pipeline owns.
	if err := e.Abort(loser); !errors.Is(err, ErrRecovering) {
		t.Fatalf("Abort during recovery: err = %v, want ErrRecovering", err)
	}
	// Reads flow: the committed value is visible, the loser rolled back.
	wantValue(t, e, 1, "durable")
	wantValue(t, e, 2, "")

	close(hold)
	mustDo(t, e.WaitRecovered())
	if h := e.Health(); h.State != StateHealthy {
		t.Fatalf("health after pipeline = %v, want healthy", h.State)
	}
	tx2 := mustBegin(t, e)
	mustUpdate(t, e, tx2, 2, "fresh")
	mustCommit(t, e, tx2)
	wantValue(t, e, 2, "fresh")

	tr := e.LastRecoveryTrace()
	if tr.OnDemandReads < 2 {
		t.Fatalf("OnDemandReads = %d, want >= 2", tr.OnDemandReads)
	}
	if len(tr.Stages) != 5 {
		t.Fatalf("stages = %v, want scan/analysis/redo/undo/finish", tr.Stages)
	}
}

// TestParallelRecoveryFailpoint: an injected backward-pass failure lands
// the engine back in the crashed state, WaitRecovered reports the error,
// and a retried Recover completes.
func TestParallelRecoveryFailpoint(t *testing.T) {
	e, err := New(Options{PoolSize: 16, ParallelRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	setup := mustBegin(t, e)
	mustUpdate(t, e, setup, 1, "base")
	mustUpdate(t, e, setup, 2, "base2")
	mustCommit(t, e, setup)
	loser := mustBegin(t, e)
	mustUpdate(t, e, loser, 1, "dirty")
	mustUpdate(t, e, loser, 2, "dirty2")
	mustDo(t, e.Log().Flush(e.Log().Head()))

	e.SetRecoveryFailpoint(1)
	mustDo(t, e.Crash())
	mustDo(t, e.Recover())
	if err := e.WaitRecovered(); !errors.Is(err, ErrInjectedRecoveryFailure) {
		t.Fatalf("WaitRecovered = %v, want injected failure", err)
	}
	if h := e.Health(); h.State != StateCrashed {
		t.Fatalf("health after failed pipeline = %v, want crashed", h.State)
	}
	// A late WaitRecovered still reports the engine unusable.
	if err := e.WaitRecovered(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("late WaitRecovered = %v, want ErrCrashed", err)
	}
	mustDo(t, e.Recover())
	mustDo(t, e.WaitRecovered())
	wantValue(t, e, 1, "base")
	wantValue(t, e, 2, "base2")
}

// TestParallelRecoveryFailpointLateWait is TestParallelRecoveryFailpoint
// with the race decided: the pipeline has failed and left the engine
// crashed before the first WaitRecovered, which must still report the
// pipeline's error, together with ErrCrashed, until the next Recover.
func TestParallelRecoveryFailpointLateWait(t *testing.T) {
	e, err := New(Options{PoolSize: 16, ParallelRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	loser := mustBegin(t, e)
	mustUpdate(t, e, loser, 1, "dirty")
	mustDo(t, e.Log().Flush(e.Log().Head()))

	e.SetRecoveryFailpoint(1)
	mustDo(t, e.Crash())
	mustDo(t, e.Recover())
	for e.Health().State != StateCrashed {
		runtime.Gosched()
	}
	for i := 0; i < 2; i++ {
		err := e.WaitRecovered()
		if !errors.Is(err, ErrInjectedRecoveryFailure) || !errors.Is(err, ErrCrashed) {
			t.Fatalf("WaitRecovered #%d after the failure = %v, want the injected failure with ErrCrashed", i+1, err)
		}
	}
	mustDo(t, e.Recover())
	mustDo(t, e.WaitRecovered())
	wantValue(t, e, 1, "")
}

// TestParallelPromotionConcurrentReads: follower reads keep flowing while
// a parallel Promote sweeps the losers.  Every read must observe either
// the replayed (pre-promotion) value or the recovered one — never a torn
// intermediate — and after WaitRecovered the engine accepts writes with
// exactly sequential promotion's state.
func TestParallelPromotionConcurrentReads(t *testing.T) {
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := p.Begin()
	t2, _ := p.Begin()
	t3, _ := p.Begin()
	mustDo(t, p.Update(t1, 1, []byte("delegated")))
	mustDo(t, p.Update(t2, 2, []byte("committed")))
	mustDo(t, p.Delegate(t1, t2, 1))
	mustDo(t, p.Commit(t2))
	mustDo(t, p.Update(t3, 3, []byte("loser")))
	mustDo(t, p.Update(t1, 4, []byte("loser2")))

	f, err := New(Options{Follower: true, ParallelRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.FollowerApply(shipAll(t, p)); err != nil {
		t.Fatal(err)
	}

	// Legal values per object: index 0 pre-promotion, index 1 final.
	legal := map[wal.ObjectID][2]string{
		1: {"delegated", "delegated"}, // survives: delegated to winner t2
		2: {"committed", "committed"},
		3: {"loser", ""},  // t3 active → undone
		4: {"loser2", ""}, // t1 active → undone
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for obj := wal.ObjectID(1); obj <= 4; obj++ {
		wg.Add(1)
		go func(obj wal.ObjectID) {
			defer wg.Done()
			sawFinal := false
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, _, _, err := f.FollowerRead(obj)
				if err != nil {
					errCh <- fmt.Errorf("FollowerRead(%d): %w", obj, err)
					return
				}
				got := string(v)
				pre, fin := legal[obj][0], legal[obj][1]
				switch got {
				case fin:
					sawFinal = true
				case pre:
					if sawFinal && pre != fin {
						errCh <- fmt.Errorf("obj %d went back to pre-promotion value %q", obj, got)
						return
					}
				default:
					errCh <- fmt.Errorf("obj %d = %q, want %q or %q", obj, got, pre, fin)
					return
				}
			}
		}(obj)
	}

	mustDo(t, f.Promote())
	mustDo(t, f.WaitRecovered())
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	wantValue(t, f, 1, "delegated")
	wantValue(t, f, 2, "committed")
	wantValue(t, f, 3, "")
	wantValue(t, f, 4, "")
	tx := mustBegin(t, f)
	mustUpdate(t, f, tx, 3, "post-promotion")
	mustCommit(t, f, tx)
	wantValue(t, f, 3, "post-promotion")
	if f.IsFollower() {
		t.Fatal("still a follower after parallel promotion")
	}
}

// TestParallelRecoveryNewOpensInstantly: New over existing stable stores
// with ParallelRecovery starts the pipeline and returns; the first read
// is served on demand before WaitRecovered.
func TestParallelRecoveryNewOpensInstantly(t *testing.T) {
	logDir := wal.NewMemDir()
	master := wal.NewMemStore()
	disk := storage.NewMemDisk()
	e, err := New(Options{PoolSize: 16,
		LogDir: logDir, Disk: disk, MasterStore: master})
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 1, "persisted")
	mustCommit(t, e, tx)
	loser := mustBegin(t, e)
	mustUpdate(t, e, loser, 2, "gone")
	mustDo(t, e.Log().Flush(e.Log().Head()))

	// "Restart": a second engine over the same stores, pipeline enabled.
	re, err := New(Options{PoolSize: 16,
		LogDir: logDir, Disk: disk, MasterStore: master, ParallelRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	wantValue(t, re, 1, "persisted")
	wantValue(t, re, 2, "")
	mustDo(t, re.WaitRecovered())
	if tr := re.LastRecoveryTrace(); !tr.Parallel {
		t.Fatal("open-time recovery did not use the pipeline")
	}
}
