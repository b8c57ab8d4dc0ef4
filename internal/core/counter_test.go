package core

import (
	"errors"
	"testing"
	"time"

	"ariesrh/internal/wal"
)

func wantCounter(t *testing.T, e *Engine, obj wal.ObjectID, want int64) {
	t.Helper()
	got, err := e.CounterValue(obj)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("counter %d = %d, want %d", obj, got, want)
	}
}

func TestIncrementBasic(t *testing.T) {
	e := newEngine(t)
	tx := mustBegin(t, e)
	if v, err := e.Increment(tx, 1, 5); err != nil || v != 5 {
		t.Fatalf("v=%d err=%v", v, err)
	}
	if v, err := e.Increment(tx, 1, -2); err != nil || v != 3 {
		t.Fatalf("v=%d err=%v", v, err)
	}
	mustCommit(t, e, tx)
	wantCounter(t, e, 1, 3)
}

func TestIncrementAbortLogicalUndo(t *testing.T) {
	e := newEngine(t)
	setup := mustBegin(t, e)
	if _, err := e.Increment(setup, 1, 100); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, e, setup)
	tx := mustBegin(t, e)
	if _, err := e.Increment(tx, 1, 7); err != nil {
		t.Fatal(err)
	}
	mustAbort(t, e, tx)
	wantCounter(t, e, 1, 100)
}

// TestIncrementCountsAsUpdate: an increment logs one undoable change, so
// a transaction of k increments adds k to core.updates and k samples to
// core.update_ns, exactly as k updates would.
func TestIncrementCountsAsUpdate(t *testing.T) {
	e := newEngine(t)
	before := e.Metrics()
	const k = 5
	tx := mustBegin(t, e)
	for i := 0; i < k; i++ {
		if _, err := e.Increment(tx, wal.ObjectID(1+i%2), 3); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, e, tx)
	d := e.Metrics().Sub(before)
	if got := d.Counter("core.updates"); got != k {
		t.Fatalf("core.updates grew by %d over %d increments, want %d", got, k, k)
	}
	if got := d.Histogram("core.update_ns").Count; got != k {
		t.Fatalf("core.update_ns has %d new samples over %d increments, want %d", got, k, k)
	}
}

// TestConcurrentIncrementsCommute is the §3.4 counter scenario: two
// transactions increment the same object concurrently (compatible
// Increment locks); the object appears in BOTH Ob_Lists with different
// scopes; one aborts, and only its delta is removed — a physical
// before-image would have clobbered the survivor's contribution.
func TestConcurrentIncrementsCommute(t *testing.T) {
	e := newEngine(t)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	if _, err := e.Increment(t1, 1, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Increment(t2, 1, 100); err != nil { // concurrent: no block
		t.Fatal(err)
	}
	if _, err := e.Increment(t1, 1, 1); err != nil { // interleaved again
		t.Fatal(err)
	}
	// Both are responsible for their own increments on object 1.
	objs1, _ := e.ObjectsOf(t1)
	objs2, _ := e.ObjectsOf(t2)
	if len(objs1) != 1 || len(objs2) != 1 {
		t.Fatalf("ObjectsOf: %v %v", objs1, objs2)
	}
	mustAbort(t, e, t1) // removes 10+1, leaves t2's 100
	wantCounter(t, e, 1, 100)
	mustCommit(t, e, t2)
	wantCounter(t, e, 1, 100)
}

func TestIncrementConflictsWithUpdateAndRead(t *testing.T) {
	e := newEngine(t)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	if _, err := e.Increment(t1, 1, 5); err != nil {
		t.Fatal(err)
	}
	// A plain update must wait for the increment lock.
	done := make(chan error, 1)
	go func() { done <- e.Update(t2, 1, EncodeCounter(42)) }()
	select {
	case err := <-done:
		t.Fatalf("update did not block on increment lock (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	mustCommit(t, e, t1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	mustCommit(t, e, t2)
	wantCounter(t, e, 1, 42)
}

func TestIncrementDelegation(t *testing.T) {
	// Delegated increments follow the final delegatee's fate.
	e := newEngine(t)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	if _, err := e.Increment(t1, 1, 10); err != nil {
		t.Fatal(err)
	}
	mustDelegate(t, e, t1, t2, 1)
	mustAbort(t, e, t1) // does NOT remove the delegated increment
	wantCounter(t, e, 1, 10)
	mustCommit(t, e, t2)
	wantCounter(t, e, 1, 10)
}

func TestIncrementDelegationLoser(t *testing.T) {
	e := newEngine(t)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	t3 := mustBegin(t, e)
	if _, err := e.Increment(t1, 1, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Increment(t3, 1, 100); err != nil { // concurrent survivor
		t.Fatal(err)
	}
	mustDelegate(t, e, t1, t2, 1)
	mustCommit(t, e, t1)
	mustAbort(t, e, t2) // the delegated +10 is removed
	wantCounter(t, e, 1, 100)
	mustCommit(t, e, t3)
	wantCounter(t, e, 1, 100)
}

func TestIncrementCrashRecovery(t *testing.T) {
	e := newEngine(t)
	w := mustBegin(t, e)
	l := mustBegin(t, e)
	if _, err := e.Increment(w, 1, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Increment(l, 1, 100); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, e, w)
	if err := e.Log().Flush(e.Log().Head()); err != nil {
		t.Fatal(err)
	}
	crashAndRecover(t, e)
	// Redo replays both increments; undo removes only the loser's.
	wantCounter(t, e, 1, 10)
}

func TestIncrementCrashRecoveryDelegated(t *testing.T) {
	e := newEngine(t)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	if _, err := e.Increment(t1, 1, 10); err != nil {
		t.Fatal(err)
	}
	mustDelegate(t, e, t1, t2, 1)
	mustCommit(t, e, t2)
	// t1 active at crash → loser; its delegated increment survives.
	crashAndRecover(t, e)
	wantCounter(t, e, 1, 10)
}

func TestIncrementRepeatedCrashesIdempotent(t *testing.T) {
	e := newEngine(t)
	w := mustBegin(t, e)
	if _, err := e.Increment(w, 1, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Increment(w, 1, 4); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, e, w)
	l := mustBegin(t, e)
	if _, err := e.Increment(l, 1, 1000); err != nil {
		t.Fatal(err)
	}
	if err := e.Log().Flush(e.Log().Head()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		crashAndRecover(t, e)
	}
	wantCounter(t, e, 1, 7)
}

func TestIncrementRejectsNonCounter(t *testing.T) {
	e := newEngine(t)
	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 1, "not-a-counter")
	if _, err := e.Increment(tx, 1, 1); !errors.Is(err, ErrNotCounter) {
		t.Fatalf("err = %v", err)
	}
	mustAbort(t, e, tx)
}

func TestIncrementWithSavepoint(t *testing.T) {
	e := newEngine(t)
	tx := mustBegin(t, e)
	if _, err := e.Increment(tx, 1, 10); err != nil {
		t.Fatal(err)
	}
	sp, err := e.Savepoint(tx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Increment(tx, 1, 100); err != nil {
		t.Fatal(err)
	}
	if err := e.RollbackTo(sp); err != nil {
		t.Fatal(err)
	}
	wantCounter(t, e, 1, 10)
	mustCommit(t, e, tx)
	wantCounter(t, e, 1, 10)
}

func TestIncrementCheckpointedScope(t *testing.T) {
	e := newEngine(t)
	t1 := mustBegin(t, e)
	if _, err := e.Increment(t1, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Increment(t1, 1, 6); err != nil {
		t.Fatal(err)
	}
	if err := e.Log().Flush(e.Log().Head()); err != nil {
		t.Fatal(err)
	}
	crashAndRecover(t, e) // t1 is a loser: both increments removed
	wantCounter(t, e, 1, 0)
}
