package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ariesrh/internal/fault"
	"ariesrh/internal/wal"
)

// TestPersistentSyncErrorReleasesAllFlushWaiters is the regression test
// for the group-commit flush-waiter audit: when the leader's sync fails
// persistently, EVERY queued waiter must be woken with the error — none
// may be left parked on its channel — and the engine must land in
// queryable read-only degraded mode rather than wedging or panicking.
func TestPersistentSyncErrorReleasesAllFlushWaiters(t *testing.T) {
	store := fault.NewDir(fault.Plan{})
	e, err := New(Options{LogDir: store})
	if err != nil {
		t.Fatal(err)
	}

	// Some committed-and-durable work the degraded engine must keep serving.
	setup := mustBegin(t, e)
	mustUpdate(t, e, setup, 1000, "durable")
	if err := e.Commit(setup); err != nil {
		t.Fatal(err)
	}

	const committers = 6
	txs := make([]wal.TxID, committers)
	for i := range txs {
		txs[i] = mustBegin(t, e)
		mustUpdate(t, e, txs[i], wal.ObjectID(i+1), fmt.Sprintf("doomed-%d", i))
	}

	store.SetFailAllSyncs(true)
	errs := make([]error, committers)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := range txs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = e.Commit(txs[i])
		}(i)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("committers still blocked after 30s: flush waiters leaked on persistent leader sync error")
	}
	for i, cerr := range errs {
		if cerr == nil {
			t.Fatalf("committer %d succeeded against a dead device", i)
		}
		if !errors.Is(cerr, fault.ErrDeviceFailed) && !errors.Is(cerr, ErrDegraded) {
			t.Fatalf("committer %d error = %v, want the device failure or ErrDegraded", i, cerr)
		}
	}

	// The WAL spent its retry budget before surfacing anything.
	m := e.Metrics()
	if m.Counter("wal.flush_retries") == 0 {
		t.Fatal("no flush retries recorded; the bounded-backoff path went unexercised")
	}
	if m.Counter("wal.flush_errors") == 0 {
		t.Fatal("no flush errors recorded despite a dead device")
	}

	// Degraded, not crashed — and the state says why.
	h := e.Health()
	if h.State != StateDegraded {
		t.Fatalf("Health = %v, want degraded", h.State)
	}
	if h.Err == nil {
		t.Fatal("degraded Health carries no cause")
	}

	// Reads still serve; mutations are rejected with ErrDegraded.
	if v, ok, err := e.ReadObject(1000); err != nil || !ok || string(v) != "durable" {
		t.Fatalf("read in degraded mode = %q/%v/%v, want the committed value", v, ok, err)
	}
	if _, err := e.Begin(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Begin in degraded mode = %v, want ErrDegraded", err)
	}
	if err := e.Update(txs[0], 1, []byte("x")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Update in degraded mode = %v, want ErrDegraded", err)
	}
	// A committer turned away at the door (ErrDegraded) is still active,
	// and Abort — which needs no new durable bytes — releases it even now.
	// One whose commit record was appended is in doubt: only the log
	// decides it, so Abort refuses.
	for i, cerr := range errs {
		err := e.Abort(txs[i])
		if errors.Is(cerr, ErrInDoubt) {
			if !errors.Is(err, ErrNoSuchTxn) {
				t.Fatalf("Abort of in-doubt committer %d = %v, want ErrNoSuchTxn", i, err)
			}
		} else if err != nil {
			t.Fatalf("Abort in degraded mode = %v, want success", err)
		}
	}
	if got := e.Metrics().Gauge("core.degraded"); got != 1 {
		t.Fatalf("core.degraded gauge = %d, want 1", got)
	}

	// Heal the device, crash (dropping unsynced bytes, as a real restart
	// would) and recover: the engine is healthy again, committed work
	// survives, the never-acknowledged commits do not.
	store.SetFailAllSyncs(false)
	if _, err := store.CrashNow(); err != nil {
		t.Fatal(err)
	}
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	if h := e.Health(); h.State != StateHealthy {
		t.Fatalf("Health after recovery = %v, want healthy", h.State)
	}
	wantValue(t, e, 1000, "durable")
	for i := 0; i < committers; i++ {
		wantValue(t, e, wal.ObjectID(i+1), "")
	}
	if _, err := e.Begin(); err != nil {
		t.Fatalf("Begin after recovery = %v, want success", err)
	}
	if got := e.Metrics().Gauge("core.degraded"); got != 0 {
		t.Fatalf("core.degraded gauge = %d after recovery, want 0", got)
	}
}

// TestDegradedAbortWithoutForce pins the failed-force half of the abort
// contract: on a healthy engine whose device then dies, Abort still
// completes (undo applied, locks released) and degrades the engine
// instead of failing.
func TestDegradedAbortWithoutForce(t *testing.T) {
	store := fault.NewDir(fault.Plan{})
	e, err := New(Options{LogDir: store})
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 7, "undo me")

	store.SetFailAllSyncs(true)
	if err := e.Abort(tx); err != nil {
		t.Fatalf("Abort on dead device = %v, want success (aborts need no durability)", err)
	}
	wantValue(t, e, 7, "")
	if h := e.Health(); h.State != StateDegraded {
		t.Fatalf("Health = %v, want degraded after the failed abort force", h.State)
	}
}
