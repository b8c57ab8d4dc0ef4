package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ariesrh/internal/lock"
	"ariesrh/internal/wal"
)

// recordView is what a transaction's record holds that a stale caller
// must not be able to change: its Tr_List entry, its Ob_List, its edges
// and its locks.
type recordView struct {
	info   string
	scopes string
	deps   int
	locks  []lock.Mode
	head   wal.LSN
}

func viewOf(t *testing.T, e *Engine, tx wal.TxID, objs ...wal.ObjectID) recordView {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.recs[tx]
	if r == nil {
		t.Fatalf("t%d has no record", tx)
	}
	v := recordView{info: fmt.Sprintf("%+v", r.Info), scopes: fmt.Sprint(r.obs.AllScopes()), deps: len(r.deps), head: e.log.Head()}
	for _, obj := range objs {
		m, _ := e.locks.Holds(tx, obj)
		v.locks = append(v.locks, m)
	}
	return v
}

// staleCalls makes every engine call that names old, alone or beside
// live, and returns each call's error by name.
func staleCalls(e *Engine, old, live wal.TxID, sp Savepoint) map[string]error {
	errs := map[string]error{}
	_, errs["Read"] = e.Read(old, 2)
	errs["Update"] = e.Update(old, 2, []byte("stale"))
	_, errs["Increment"] = e.Increment(old, 3, 1)
	errs["Delegate from"] = e.Delegate(old, live, 2)
	errs["Delegate to"] = e.Delegate(live, old, 2)
	errs["DelegateAll from"] = e.DelegateAll(old, live)
	errs["DelegateAll to"] = e.DelegateAll(live, old)
	errs["DelegateOut"] = e.DelegateOut(old, live, 2, 9, 1)
	errs["DelegateIn"] = e.DelegateIn(old, 2, 9, 1)
	errs["Permit from"] = e.Permit(old, live, 2)
	errs["Permit to"] = e.Permit(live, old, 2)
	errs["FormDependency of"] = e.FormDependency(old, live, AbortDependency)
	errs["FormDependency on"] = e.FormDependency(live, old, CommitDependency)
	_, errs["Savepoint"] = e.Savepoint(old)
	errs["RollbackTo"] = e.RollbackTo(sp)
	_, errs["ObjectsOf"] = e.ObjectsOf(old)
	_, errs["OpList"] = e.OpList(old)
	errs["Prepare"] = e.Prepare(old, 9, 1)
	errs["Commit"] = e.Commit(old)
	errs["Abort"] = e.Abort(old)
	return errs
}

func wantStaleRejected(t *testing.T, e *Engine, old, live wal.TxID, sp Savepoint) {
	t.Helper()
	for name, err := range staleCalls(e, old, live, sp) {
		if !errors.Is(err, ErrNoSuchTxn) {
			t.Errorf("%s under ended t%d: %v, want ErrNoSuchTxn", name, old, err)
		}
	}
	if _, err := e.CommitPrepared(old); !errors.Is(err, ErrNotPrepared) {
		t.Errorf("CommitPrepared under ended t%d: %v, want ErrNotPrepared", old, err)
	}
	if err := e.AbortPrepared(old); !errors.Is(err, ErrNotPrepared) {
		t.Errorf("AbortPrepared under ended t%d: %v, want ErrNotPrepared", old, err)
	}
}

// TestRecycledRecordIgnoresEndedTxID: once a transaction commits or
// aborts, its record serves the next Begin.  Every call under the ended
// ID then fails with ErrNoSuchTxn, and none touches the newer
// transaction's Ob_List, backward chain, edges or locks.
func TestRecycledRecordIgnoresEndedTxID(t *testing.T) {
	for _, end := range []string{"commit", "abort"} {
		t.Run(end, func(t *testing.T) {
			e := newEngine(t)
			old := mustBegin(t, e)
			mustUpdate(t, e, old, 1, "old")
			sp, err := e.Savepoint(old)
			if err != nil {
				t.Fatal(err)
			}
			mustUpdate(t, e, old, 4, "old")
			e.mu.Lock()
			oldRec := e.recs[old]
			e.mu.Unlock()
			if end == "commit" {
				mustCommit(t, e, old)
			} else {
				mustAbort(t, e, old)
			}

			live := mustBegin(t, e)
			e.mu.Lock()
			reused := e.recs[live] == oldRec
			e.mu.Unlock()
			if !reused {
				t.Fatalf("t%d did not take t%d's recycled record", live, old)
			}
			mustUpdate(t, e, live, 2, "live")
			if _, err := e.Increment(live, 3, 5); err != nil {
				t.Fatal(err)
			}
			before := viewOf(t, e, live, 1, 2, 3)
			wantStaleRejected(t, e, old, live, sp)
			if after := viewOf(t, e, live, 1, 2, 3); !reflect.DeepEqual(after, before) {
				t.Fatalf("calls under ended t%d changed t%d:\n before %+v\n after  %+v", old, live, before, after)
			}
			mustCommit(t, e, live)
			wantValue(t, e, 2, "live")
			wantCounter(t, e, 3, 5)
		})
	}
}

// TestRecycledRecordIgnoresEndedTxIDAfterRecovery: recovery registers a
// loser, terminates it and recycles its record, which the first Begin
// after recovery takes.  Calls under the loser's ID, and under a
// transaction that committed before the crash, are rejected and leave
// the new transaction alone.
func TestRecycledRecordIgnoresEndedTxIDAfterRecovery(t *testing.T) {
	e := newEngine(t)
	committed := mustBegin(t, e)
	mustUpdate(t, e, committed, 1, "kept")
	mustCommit(t, e, committed)
	loser := mustBegin(t, e)
	mustUpdate(t, e, loser, 2, "lost")
	sp, err := e.Savepoint(loser)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.log.Flush(e.log.Head()); err != nil {
		t.Fatal(err)
	}
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	free := len(e.free)
	e.mu.Unlock()
	if free != 1 {
		t.Fatalf("free list holds %d records after recovery terminated one loser, want 1", free)
	}
	live := mustBegin(t, e)
	if live <= loser {
		t.Fatalf("first transaction after recovery is t%d, want an ID above the loser t%d", live, loser)
	}
	mustUpdate(t, e, live, 2, "live")
	before := viewOf(t, e, live, 1, 2, 3)
	for _, old := range []wal.TxID{committed, loser} {
		wantStaleRejected(t, e, old, live, sp)
	}
	if after := viewOf(t, e, live, 1, 2, 3); !reflect.DeepEqual(after, before) {
		t.Fatalf("calls under ended transactions changed t%d:\n before %+v\n after  %+v", live, before, after)
	}
	mustCommit(t, e, live)
	wantValue(t, e, 1, "kept")
	wantValue(t, e, 2, "live")
}

// TestRecordFreeListBounded: the free list keeps at most maxFreeRecords
// records, never one whose Ob_List outgrew maxRecycledLen, and Crash
// drops it.
func TestRecordFreeListBounded(t *testing.T) {
	e := newEngine(t)
	var txs []wal.TxID
	for i := 0; i < 2*maxFreeRecords; i++ {
		txs = append(txs, mustBegin(t, e))
	}
	for _, tx := range txs {
		mustCommit(t, e, tx)
	}
	if n := len(e.free); n != maxFreeRecords {
		t.Fatalf("free list holds %d records, want the bound %d", n, maxFreeRecords)
	}
	big := mustBegin(t, e)
	for obj := wal.ObjectID(1); obj <= maxRecycledLen+1; obj++ {
		mustUpdate(t, e, big, obj, "v")
	}
	e.mu.Lock()
	bigRec := e.recs[big]
	e.mu.Unlock()
	mustCommit(t, e, big)
	for _, r := range e.free {
		if r == bigRec {
			t.Fatalf("a record of %d objects was recycled", maxRecycledLen+1)
		}
	}
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	if len(e.free) != 0 {
		t.Fatalf("Crash left %d records on the free list", len(e.free))
	}
}

// TestRecordRecyclingRace runs workers that begin, update, delegate,
// commit and abort — so records pass between transactions through the
// free list all the time — while Checkpoint encodes every live record in
// a loop.  Run it under -race.
func TestRecordRecyclingRace(t *testing.T) {
	e := newEngine(t)
	const workers, rounds = 3, 150
	stop := make(chan struct{})
	ckptDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				ckptDone <- nil
				return
			default:
			}
			if err := e.Checkpoint(); err != nil {
				ckptDone <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := wal.ObjectID(w*100 + 1)
			for i := 0; i < rounds; i++ {
				tor, err := e.Begin()
				if err != nil {
					errs <- err
					return
				}
				tee, err := e.Begin()
				if err != nil {
					errs <- err
					return
				}
				obj := base + wal.ObjectID(i%8)
				steps := []func() error{
					func() error { return e.Update(tor, obj, []byte{byte(i)}) },
					func() error { _, err := e.Increment(tee, base+50, 1); return err },
					func() error { return e.Delegate(tor, tee, obj) },
				}
				if i%3 == 0 {
					steps = append(steps, func() error { return e.Abort(tee) }, func() error { return e.Commit(tor) })
				} else {
					steps = append(steps, func() error { return e.Commit(tee) }, func() error { return e.Abort(tor) })
				}
				for _, step := range steps {
					if err := step(); err != nil {
						errs <- fmt.Errorf("worker %d round %d: %w", w, i, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-ckptDone; err != nil {
		t.Fatal(err)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := len(e.recs); n != 0 {
		t.Fatalf("%d transactions left in the table", n)
	}
	if orphans := e.LockOrphans(); len(orphans) != 0 {
		t.Fatalf("lock orphans: %v", orphans)
	}
}

// TestWriterCommitAllocs guards the commit path's allocation budget: a
// serial in-memory transaction of four updates — Begin, Update ×4,
// Commit — allocates at most 4 times.  Its record, Ob_List entries,
// before-images and flush waiter are all reused.
func TestWriterCommitAllocs(t *testing.T) {
	e := newEngine(t)
	val := []byte("value")
	n := testing.AllocsPerRun(500, func() {
		tx := mustBegin(t, e)
		for obj := wal.ObjectID(1); obj <= 4; obj++ {
			if err := e.Update(tx, obj, val); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, e, tx)
	})
	if n > 4 {
		t.Fatalf("a four-update transaction allocates %.1f times, want <= 4", n)
	}
}

// TestReadOnlyCommitAllocs: a read-only transaction of four reads
// allocates only the four copies Read returns.
func TestReadOnlyCommitAllocs(t *testing.T) {
	e := newEngine(t)
	seed := mustBegin(t, e)
	for obj := wal.ObjectID(1); obj <= 4; obj++ {
		mustUpdate(t, e, seed, obj, "value")
	}
	mustCommit(t, e, seed)
	n := testing.AllocsPerRun(500, func() {
		tx := mustBegin(t, e)
		for obj := wal.ObjectID(1); obj <= 4; obj++ {
			if _, err := e.Read(tx, obj); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, e, tx)
	})
	if n != 4 {
		t.Fatalf("a four-read transaction allocates %.1f times, want the 4 returned copies", n)
	}
}
