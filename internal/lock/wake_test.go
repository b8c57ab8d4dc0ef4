package lock

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"ariesrh/internal/wal"
)

// waitForWaiters polls the waiters gauge until n requests are queued.
func waitForWaiters(t *testing.T, m *Manager, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for m.met.waiters.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("waiters gauge = %d, want %d", m.met.waiters.Load(), n)
		}
		runtime.Gosched()
	}
}

// acquireAsync starts tx's request and returns the channel its outcome
// arrives on.
func acquireAsync(m *Manager, tx wal.TxID, obj wal.ObjectID, mode Mode) <-chan error {
	done := make(chan error, 1)
	go func() { done <- m.Acquire(tx, obj, mode) }()
	return done
}

// queue starts tx's request and returns once it is queued, the n-th
// request waiting on the manager.
func queue(t *testing.T, m *Manager, tx wal.TxID, obj wal.ObjectID, mode Mode, n int64) <-chan error {
	t.Helper()
	done := acquireAsync(m, tx, obj, mode)
	waitForWaiters(t, m, n)
	return done
}

// outcome returns the outcome of a request that must already be decided.
func outcome(t *testing.T, done <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s still blocked", what)
		return nil
	}
}

func mustAcquire(t *testing.T, m *Manager, tx wal.TxID, obj wal.ObjectID, mode Mode) {
	t.Helper()
	if err := m.Acquire(tx, obj, mode); err != nil {
		t.Fatal(err)
	}
}

func wantHolds(t *testing.T, m *Manager, tx wal.TxID, obj wal.ObjectID, want bool) {
	t.Helper()
	if _, ok := m.Holds(tx, obj); ok != want {
		t.Fatalf("t%d holds object %d = %v, want %v", tx, obj, ok, want)
	}
}

// TestReleaseAllCancelsQueuedRequest: terminating a transaction takes its
// queued request out of the object's queue.  The request fails with
// ErrCancelled, and a compatible request queued behind it is granted
// while the first holder still holds its lock.
func TestReleaseAllCancelsQueuedRequest(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, 1, 10, Shared)
	writer := queue(t, m, 2, 10, Exclusive, 1)
	reader := queue(t, m, 3, 10, Shared, 2)

	m.ReleaseAll(2)
	if err := outcome(t, writer, "terminated writer's request"); !errors.Is(err, ErrCancelled) {
		t.Fatalf("terminated writer's Acquire = %v, want ErrCancelled", err)
	}
	if err := outcome(t, reader, "reader queued behind the terminated writer"); err != nil {
		t.Fatal(err)
	}
	wantHolds(t, m, 1, 10, true)
	wantHolds(t, m, 3, 10, true)
	wantHolds(t, m, 2, 10, false)
	if got := m.met.waiters.Load(); got != 0 {
		t.Fatalf("waiters gauge = %d, want 0", got)
	}
	m.ReleaseAll(1)
	m.ReleaseAll(3)
	if len(m.locks) != 0 || len(m.txs) != 0 {
		t.Fatalf("lock table keeps %d objects, %d transactions", len(m.locks), len(m.txs))
	}
}

// TestReleaseGrantsCompatiblePrefix: a release grants the queue's
// compatible FIFO prefix — before ReleaseAll returns — and stops at the
// first request it cannot grant, which keeps later compatible requests
// behind it.
func TestReleaseGrantsCompatiblePrefix(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, 1, 10, Exclusive)
	r2 := queue(t, m, 2, 10, Shared, 1)
	r3 := queue(t, m, 3, 10, Shared, 2)
	w4 := queue(t, m, 4, 10, Exclusive, 3)
	r5 := queue(t, m, 5, 10, Shared, 4)

	m.ReleaseAll(1)
	wantHolds(t, m, 2, 10, true)
	wantHolds(t, m, 3, 10, true)
	wantHolds(t, m, 4, 10, false)
	wantHolds(t, m, 5, 10, false)
	for _, r := range []<-chan error{r2, r3} {
		if err := outcome(t, r, "granted reader"); err != nil {
			t.Fatal(err)
		}
	}
	waitForWaiters(t, m, 2)

	m.ReleaseAll(2)
	wantHolds(t, m, 4, 10, false) // t3 still reads
	m.ReleaseAll(3)
	wantHolds(t, m, 4, 10, true)
	wantHolds(t, m, 5, 10, false)
	if err := outcome(t, w4, "writer"); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(4)
	if err := outcome(t, r5, "last reader"); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(5)
}

// TestUpgradePassesBlockedRequest: an upgrade bypasses the queue order, so
// a release grants it even behind a request that stays blocked.
func TestUpgradePassesBlockedRequest(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, 1, 10, Shared)
	mustAcquire(t, m, 2, 10, Shared)
	inc := queue(t, m, 3, 10, Increment, 1)
	upgrade := queue(t, m, 1, 10, Increment, 2)

	m.ReleaseAll(2)
	if err := outcome(t, upgrade, "upgrade"); err != nil {
		t.Fatal(err)
	}
	if mode, _ := m.Holds(1, 10); mode != Exclusive {
		t.Fatalf("S+I upgrade holds %v, want X", mode)
	}
	wantHolds(t, m, 3, 10, false)
	m.ReleaseAll(1)
	if err := outcome(t, inc, "incrementer"); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(3)
}

// TestTransferAndShareWakeWaiters: a Transfer or Share that makes a
// waiting transaction a holder grants its queued request, which as an
// upgrade no longer waits for the requests queued ahead of it.
func TestTransferAndShareWakeWaiters(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, 1, 10, Exclusive)
	transferred := queue(t, m, 2, 10, Exclusive, 1)
	if err := m.Transfer(1, 2, 10); err != nil {
		t.Fatal(err)
	}
	if err := outcome(t, transferred, "transferee's request"); err != nil {
		t.Fatal(err)
	}
	wantHolds(t, m, 1, 10, false)
	m.ReleaseAll(2)

	mustAcquire(t, m, 1, 20, Shared)
	writer := queue(t, m, 4, 20, Exclusive, 1)
	shared := queue(t, m, 3, 20, Shared, 2)
	if err := m.Share(1, 3, 20); err != nil {
		t.Fatal(err)
	}
	if err := outcome(t, shared, "sharee's request"); err != nil {
		t.Fatal(err)
	}
	wantHolds(t, m, 4, 20, false)
	m.ReleaseAll(1)
	m.ReleaseAll(3)
	if err := outcome(t, writer, "writer"); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(4)
}

// TestDeadlockVictimUnblocksQueue: a Share that adds a holder can close a
// cycle through a request already waiting.  That request is the victim,
// and its removal grants the request queued behind it.
func TestDeadlockVictimUnblocksQueue(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, 1, 10, Shared)
	mustAcquire(t, m, 2, 20, Exclusive)
	victim := queue(t, m, 2, 10, Exclusive, 1)  // t2 waits on t1
	behind := queue(t, m, 3, 10, Shared, 2)     // t3 waits behind t2's X
	blocker := queue(t, m, 5, 20, Exclusive, 3) // t5 waits on t2

	// t5 now co-holds object 10, so t2 waits on t5, which waits on t2.
	if err := m.Share(1, 5, 10); err != nil {
		t.Fatal(err)
	}
	if err := outcome(t, victim, "victim"); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("victim's Acquire = %v, want ErrDeadlock", err)
	}
	if err := outcome(t, behind, "request behind the victim"); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	if err := outcome(t, blocker, "t5's request"); err != nil {
		t.Fatal(err)
	}
	for _, tx := range []wal.TxID{1, 3, 5} {
		m.ReleaseAll(tx)
	}
	if len(m.locks) != 0 || len(m.txs) != 0 {
		t.Fatalf("lock table keeps %d objects, %d transactions", len(m.locks), len(m.txs))
	}
}

// TestResetFailsEveryWaiter: Reset ends every queued request, on every
// object, with ErrReset.
func TestResetFailsEveryWaiter(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, 1, 10, Exclusive)
	mustAcquire(t, m, 1, 20, Exclusive)
	waits := []<-chan error{
		queue(t, m, 2, 10, Exclusive, 1),
		queue(t, m, 3, 10, Shared, 2),
		queue(t, m, 4, 20, Increment, 3),
	}
	m.Reset()
	for _, w := range waits {
		if err := outcome(t, w, "waiter across Reset"); !errors.Is(err, ErrReset) {
			t.Fatalf("waiter across Reset = %v, want ErrReset", err)
		}
	}
	if got := m.met.waiters.Load(); got != 0 {
		t.Fatalf("waiters gauge = %d after Reset, want 0", got)
	}
	mustAcquire(t, m, 5, 10, Exclusive)
}

// TestUncontendedLockingAllocatesNothing: an uncontended X and S acquire
// on fresh objects, an S→X upgrade and the release recycle their state.
func TestUncontendedLockingAllocatesNothing(t *testing.T) {
	m := NewManager()
	obj := wal.ObjectID(0)
	allocs := testing.AllocsPerRun(100, func() {
		obj += 3
		mustAcquire(t, m, 1, obj, Exclusive)
		mustAcquire(t, m, 1, obj+1, Shared)
		mustAcquire(t, m, 1, obj+2, Shared)
		mustAcquire(t, m, 1, obj+2, Exclusive)
		m.ReleaseAll(1)
	})
	if allocs != 0 {
		t.Fatalf("acquire, upgrade and release allocate %v per transaction, want 0", allocs)
	}
}

// TestTransferShareAllocateNothing: moving and sharing a lock between live
// transactions allocates nothing.
func TestTransferShareAllocateNothing(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, 1, 1, Shared) // keep t1 and t2 live throughout
	mustAcquire(t, m, 2, 1, Shared)
	obj := wal.ObjectID(1)
	allocs := testing.AllocsPerRun(100, func() {
		obj++
		mustAcquire(t, m, 1, obj, Exclusive)
		if err := m.Transfer(1, 2, obj); err != nil {
			t.Fatal(err)
		}
		if err := m.Share(2, 1, obj); err != nil {
			t.Fatal(err)
		}
		for _, from := range []wal.TxID{1, 2} {
			if err := m.Transfer(from, 3, obj); err != nil {
				t.Fatal(err)
			}
		}
		m.ReleaseAll(3)
	})
	if allocs != 0 {
		t.Fatalf("transfer and share allocate %v per object, want 0", allocs)
	}
}

// TestGrantedWaitAllocatesNothing: once warm, a request that waits and is
// granted by a release allocates nothing.
func TestGrantedWaitAllocatesNothing(t *testing.T) {
	m := NewManager()
	start := make(chan wal.ObjectID)
	done := make(chan error)
	go func() {
		for obj := range start {
			done <- m.Acquire(2, obj, Exclusive)
		}
	}()
	defer close(start)
	obj := wal.ObjectID(0)
	allocs := testing.AllocsPerRun(100, func() {
		obj++
		mustAcquire(t, m, 1, obj, Exclusive)
		start <- obj
		for m.met.waiters.Load() != 1 {
			runtime.Gosched()
		}
		m.ReleaseAll(1)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		m.ReleaseAll(2)
	})
	if allocs != 0 {
		t.Fatalf("a granted wait allocates %v, want 0", allocs)
	}
}

// TestFreeListsStayBounded: after 10,000 objects are locked and released,
// and 100 requests wait at once, the table is empty and no free list
// outgrows its bound.
func TestFreeListsStayBounded(t *testing.T) {
	m := NewManager()
	const txs, perTx = 1000, 10
	for i := 0; i < txs*perTx; i++ {
		mustAcquire(t, m, wal.TxID(i/perTx+1), wal.ObjectID(i), Exclusive)
	}
	for tx := wal.TxID(1); tx <= txs; tx++ {
		m.ReleaseAll(tx)
	}

	mustAcquire(t, m, 1, 0, Exclusive)
	var readers []<-chan error
	for tx := wal.TxID(2); tx <= 101; tx++ {
		readers = append(readers, acquireAsync(m, tx, 0, Shared))
	}
	waitForWaiters(t, m, 100)
	m.ReleaseAll(1)
	for _, r := range readers {
		if err := outcome(t, r, "reader"); err != nil {
			t.Fatal(err)
		}
	}
	waitForWaiters(t, m, 0)
	for tx := wal.TxID(2); tx <= 101; tx++ {
		m.ReleaseAll(tx)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.locks) != 0 || len(m.txs) != 0 {
		t.Fatalf("lock table keeps %d objects, %d transactions", len(m.locks), len(m.txs))
	}
	for _, l := range []struct {
		name       string
		len, bound int
	}{
		{"states", len(m.freeStates), maxFreeStates},
		{"transactions", len(m.freeTxs), maxFreeTxs},
		{"waiters", len(m.freeWaiters), maxFreeWaiters},
	} {
		if l.len == 0 || l.len > l.bound {
			t.Errorf("free %s: %d, want 1..%d", l.name, l.len, l.bound)
		}
	}
}
