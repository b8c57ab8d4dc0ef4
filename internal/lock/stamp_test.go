package lock

import (
	"testing"
	"time"

	"ariesrh/internal/wal"
)

// releaseEarly acquires obj in mode for tx and releases it early at
// commit, with the log durable through flushed.
func releaseEarly(t *testing.T, m *Manager, tx wal.TxID, obj wal.ObjectID, mode Mode, commit, flushed wal.LSN) {
	t.Helper()
	if err := m.Acquire(tx, obj, mode); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(tx, Early{Commit: commit, Flushed: flushed})
}

// TestStampConflicts: an early release stamps its write locks, and an
// acquisition passes a stamp exactly when its mode conflicts with the
// stamped one: X over X, S over I and I over X do; I over I does not,
// and a Shared release leaves no stamp.
func TestStampConflicts(t *testing.T) {
	m := NewManager()
	for obj, mode := range map[wal.ObjectID]Mode{10: Exclusive, 11: Increment, 12: Shared} {
		if err := m.Acquire(1, obj, mode); err != nil {
			t.Fatal(err)
		}
	}
	m.ReleaseAll(1, Early{Commit: 5, Flushed: 4})

	// Locks are gone: a conflicting acquire must not block.
	done := make(chan error, 1)
	go func() { done <- m.Acquire(2, 10, Exclusive) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("acquire blocked on an early-released lock")
	}

	for _, c := range []struct {
		name string
		obj  wal.ObjectID
		mode Mode
		want wal.LSN
	}{
		{"X over X", 10, Exclusive, 5},
		{"S over X", 10, Shared, 5},
		{"I over X", 10, Increment, 5},
		{"S over I", 11, Shared, 5},
		{"X over I", 11, Exclusive, 5},
		{"I over I", 11, Increment, wal.NilLSN},
		{"X over S", 12, Exclusive, wal.NilLSN},
	} {
		lsn, tx := m.Stamp(c.obj, c.mode, 4)
		if lsn != c.want || (lsn != wal.NilLSN && tx != 1) {
			t.Errorf("%s: stamp = (%d, t%d), want (%d, t1)", c.name, lsn, tx, c.want)
		}
	}
}

// TestNewestStampWins: a later early release of a mode replaces the
// stamp, and an acquirer conflicting with both modes passes the newer.
func TestNewestStampWins(t *testing.T) {
	m := NewManager()
	releaseEarly(t, m, 1, 10, Exclusive, 5, 4)
	releaseEarly(t, m, 2, 10, Exclusive, 7, 4)
	releaseEarly(t, m, 3, 10, Increment, 9, 4)
	if lsn, tx := m.Stamp(10, Increment, 4); lsn != 7 || tx != 2 {
		t.Fatalf("I over X: stamp = (%d, t%d), want (7, t2)", lsn, tx)
	}
	if lsn, tx := m.Stamp(10, Shared, 4); lsn != 9 || tx != 3 {
		t.Fatalf("S over X and I: stamp = (%d, t%d), want (9, t3)", lsn, tx)
	}
}

// TestDeadStampFormsNothing: a stamp at or below the flushed LSN is
// dead — an acquirer passes nothing — and an early release whose own
// record is already durable stamps nothing.
func TestDeadStampFormsNothing(t *testing.T) {
	m := NewManager()
	releaseEarly(t, m, 1, 10, Exclusive, 5, 4)
	if lsn, _ := m.Stamp(10, Exclusive, 5); lsn != wal.NilLSN {
		t.Fatalf("stamp at the flushed LSN is live: %d", lsn)
	}
	releaseEarly(t, m, 2, 11, Exclusive, 6, 6)
	if lsn, _ := m.Stamp(11, Exclusive, 0); lsn != wal.NilLSN {
		t.Fatalf("release of a durable commit stamped %d", lsn)
	}
}

// TestViolableStateSurvivesRelease: the lockState must not be
// garbage-collected while a live stamp is on it, even with no holders
// and no queue.
func TestViolableStateSurvivesRelease(t *testing.T) {
	m := NewManager()
	releaseEarly(t, m, 1, 10, Exclusive, 5, 4)
	// A full acquire/release cycle by another transaction must not drop
	// the stamp.
	if err := m.Acquire(2, 10, Exclusive); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	if lsn, tx := m.Stamp(10, Exclusive, 4); lsn != 5 || tx != 1 {
		t.Fatalf("stamp lost to state GC: (%d, t%d), want (5, t1)", lsn, tx)
	}
}

// TestDeadStampsPruned: after a run of early releases, one flush and
// one more early release, the table holds no state that only a dead
// stamp kept, and the pruned states are recycled.
func TestDeadStampsPruned(t *testing.T) {
	m := NewManager()
	const n = 20
	for i := 1; i <= n; i++ {
		releaseEarly(t, m, wal.TxID(i), wal.ObjectID(i), Exclusive, wal.LSN(i), 0)
	}
	m.mu.Lock()
	kept := len(m.locks)
	m.mu.Unlock()
	if kept != n {
		t.Fatalf("%d states kept by live stamps, want %d", kept, n)
	}
	// The log flushes through n; the next early release prunes.
	releaseEarly(t, m, n+1, n+1, Exclusive, n+1, n)
	m.mu.Lock()
	defer m.mu.Unlock()
	for obj, ls := range m.locks {
		if obj != n+1 {
			t.Errorf("object %d still in the table (stamps %v, %v)", obj, ls.stampX, ls.stampI)
		}
	}
	if len(m.stamped) != 1 {
		t.Errorf("stamped FIFO holds %d entries, want 1", len(m.stamped))
	}
	if len(m.freeStates) < n {
		t.Errorf("%d states recycled, want %d", len(m.freeStates), n)
	}
}

// TestPlainReleaseLeavesNoMarkers: ReleaseAll without Early (commit with
// durability in hand, or abort) stamps nothing.
func TestPlainReleaseLeavesNoMarkers(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(1, 10, Exclusive); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1)
	if lsn, _ := m.Stamp(10, Exclusive, 0); lsn != wal.NilLSN {
		t.Fatalf("plain release left a stamp at %d", lsn)
	}
}

// TestViolableMetrics: stamps and violations are counted; per-mode
// acquires, waiters gauge and hold-time histogram are wired.
func TestViolableMetrics(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(1, 10, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, 11, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, 12, Increment); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1, Early{Commit: 5, Flushed: 4})
	m.Stamp(10, Exclusive, 4)
	m.Stamp(12, Increment, 4)

	if got := m.met.acquiresExclusive.Load(); got != 1 {
		t.Fatalf("acquiresExclusive = %d, want 1", got)
	}
	if got := m.met.acquiresShared.Load(); got != 1 {
		t.Fatalf("acquiresShared = %d, want 1", got)
	}
	if got := m.met.acquiresIncrement.Load(); got != 1 {
		t.Fatalf("acquiresIncrement = %d, want 1", got)
	}
	if got := m.met.stamps.Load(); got != 2 { // X and I, not S
		t.Fatalf("stamps = %d, want 2", got)
	}
	if got := m.met.violations.Load(); got != 1 { // I over I is none
		t.Fatalf("violations = %d, want 1", got)
	}
	if got := m.met.holdNs.Snapshot().Count; got != 1 {
		t.Fatalf("holdNs count = %d, want 1", got)
	}
}

// TestWaitersGauge: the gauge rises while a transaction is blocked and
// falls when it is granted.
func TestWaitersGauge(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(1, 10, Exclusive); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(2, 10, Exclusive) }()
	awaitWaiters(t, m, 1) // the gauge rises
	m.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := m.met.waiters.Load(); got != 0 {
		t.Fatalf("waiters gauge = %d after grant, want 0", got)
	}
	if got := m.met.waitNs.Snapshot().Count; got != 1 {
		t.Fatalf("waitNs count = %d, want 1", got)
	}
}
