package lock

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ariesrh/internal/wal"
)

// awaitWaiters blocks until n requests are parked in m.Acquire.  The
// waiters gauge is raised under m.mu before a request parks, so once it
// reads n every one of them has queued; the deadline is only the failure
// path.
func awaitWaiters(t *testing.T, m *Manager, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for m.met.waiters.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests parked in Acquire", m.met.waiters.Load(), n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(1, 100, Shared); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(2, 100, Shared) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("second shared lock blocked")
	}
}

func TestExclusiveBlocks(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(1, 100, Exclusive); err != nil {
		t.Fatal(err)
	}
	var acquired atomic.Bool
	done := make(chan struct{})
	go func() {
		if err := m.Acquire(2, 100, Exclusive); err != nil {
			t.Error(err)
		}
		acquired.Store(true)
		close(done)
	}()
	awaitWaiters(t, m, 1)
	if acquired.Load() {
		t.Fatal("conflicting lock granted while held")
	}
	m.ReleaseAll(1)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("waiter not woken after release")
	}
}

func TestReacquireIsNoop(t *testing.T) {
	m := NewManager()
	for i := 0; i < 3; i++ {
		if err := m.Acquire(1, 5, Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	if mode, ok := m.Holds(1, 5); !ok || mode != Exclusive {
		t.Fatalf("holds = %v %v", mode, ok)
	}
	// Shared request while holding Exclusive is covered.
	if err := m.Acquire(1, 5, Shared); err != nil {
		t.Fatal(err)
	}
	if mode, _ := m.Holds(1, 5); mode != Exclusive {
		t.Fatalf("mode downgraded to %v", mode)
	}
}

func TestUpgradeSoleHolder(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(1, 5, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, 5, Exclusive); err != nil {
		t.Fatal(err)
	}
	if mode, _ := m.Holds(1, 5); mode != Exclusive {
		t.Fatalf("mode = %v after upgrade", mode)
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(1, 10, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, 20, Exclusive); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- m.Acquire(1, 20, Exclusive) }() // 1 waits on 2
	awaitWaiters(t, m, 1)
	go func() { errs <- m.Acquire(2, 10, Exclusive) }() // 2 waits on 1: cycle
	var deadlocked, granted int
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if errors.Is(err, ErrDeadlock) {
				deadlocked++
				// Victim aborts, releasing its locks.
				if deadlocked == 1 {
					m.ReleaseAll(2)
				}
			} else if err == nil {
				granted++
			} else {
				t.Fatalf("unexpected error: %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("deadlock not detected")
		}
	}
	if deadlocked != 1 || granted != 1 {
		t.Fatalf("deadlocked=%d granted=%d", deadlocked, granted)
	}
}

func TestUpgradeDeadlockDetected(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(1, 7, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, 7, Shared); err != nil {
		t.Fatal(err)
	}
	type result struct {
		tx  wal.TxID
		err error
	}
	results := make(chan result, 2)
	go func() { results <- result{1, m.Acquire(1, 7, Exclusive)} }()
	awaitWaiters(t, m, 1)
	go func() { results <- result{2, m.Acquire(2, 7, Exclusive)} }()
	// Both want to upgrade; each waits on the other's shared hold: one
	// must be victimized and abort (releasing its locks), after which the
	// survivor's upgrade is granted.
	var deadlocked int
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			if errors.Is(r.err, ErrDeadlock) {
				deadlocked++
				m.ReleaseAll(r.tx) // the victim aborts
			} else if r.err != nil {
				t.Fatalf("unexpected error: %v", r.err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("upgrade deadlock not resolved")
		}
	}
	if deadlocked != 1 {
		t.Fatalf("deadlocked = %d, want 1", deadlocked)
	}
}

func TestTransfer(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(1, 30, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Transfer(1, 2, 30); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Holds(1, 30); ok {
		t.Fatal("delegator still holds the lock")
	}
	if mode, ok := m.Holds(2, 30); !ok || mode != Exclusive {
		t.Fatalf("delegatee holds %v %v", mode, ok)
	}
	// Transfer without a held lock errors.
	if err := m.Transfer(5, 6, 30); err == nil {
		t.Fatal("transfer from non-holder accepted")
	}
	// ReleaseAll on the delegatee frees the object for others.
	m.ReleaseAll(2)
	if err := m.Acquire(3, 30, Exclusive); err != nil {
		t.Fatal(err)
	}
}

func TestTransferKeepsStrongerMode(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 9, Shared)
	m.Acquire(2, 9, Exclusive-1) // Shared
	// t2 upgrades later; here t1 delegates its Shared to t2 who holds Shared.
	if err := m.Transfer(1, 2, 9); err != nil {
		t.Fatal(err)
	}
	if mode, ok := m.Holds(2, 9); !ok || mode != Shared {
		t.Fatalf("mode = %v ok=%v", mode, ok)
	}
}

func TestFIFONoWriterStarvation(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(1, 50, Shared); err != nil {
		t.Fatal(err)
	}
	writerDone := make(chan struct{})
	go func() {
		if err := m.Acquire(2, 50, Exclusive); err != nil {
			t.Error(err)
		}
		close(writerDone)
	}()
	awaitWaiters(t, m, 1)
	// A reader arriving after the queued writer must wait behind it.
	readerDone := make(chan struct{})
	go func() {
		if err := m.Acquire(3, 50, Shared); err != nil {
			t.Error(err)
		}
		close(readerDone)
	}()
	awaitWaiters(t, m, 2)
	select {
	case <-readerDone:
		t.Fatal("late reader jumped the queued writer")
	default:
	}
	m.ReleaseAll(1)
	<-writerDone
	m.ReleaseAll(2)
	<-readerDone
}

func TestConcurrentStress(t *testing.T) {
	m := NewManager()
	const txs = 16
	var wg sync.WaitGroup
	var deadlocks atomic.Int64
	for i := 1; i <= txs; i++ {
		wg.Add(1)
		go func(tx wal.TxID) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				a := wal.ObjectID(uint64(tx)*31%7 + 1)
				b := wal.ObjectID(uint64(round)%7 + 1)
				if err := m.Acquire(tx, a, Exclusive); err != nil {
					deadlocks.Add(1)
					m.ReleaseAll(tx)
					continue
				}
				if err := m.Acquire(tx, b, Exclusive); err != nil {
					deadlocks.Add(1)
					m.ReleaseAll(tx)
					continue
				}
				m.ReleaseAll(tx)
			}
		}(wal.TxID(i))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("stress test hung (lost wakeup or undetected deadlock)")
	}
}

func TestIncompatibleSelfModesEscalate(t *testing.T) {
	// A transaction holding Shared that acquires Increment (or the
	// reverse) must exclude BOTH reader and incrementer peers afterwards
	// — the combined hold escalates to Exclusive.
	m := NewManager()
	if err := m.Acquire(1, 7, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, 7, Increment); err != nil {
		t.Fatal(err)
	}
	if mode, _ := m.Holds(1, 7); mode != Exclusive {
		t.Fatalf("combined S+I hold = %v, want X", mode)
	}
	// A reader must now block.
	readerDone := make(chan struct{})
	go func() {
		if err := m.Acquire(2, 7, Shared); err != nil {
			t.Error(err)
		}
		close(readerDone)
	}()
	awaitWaiters(t, m, 1)
	select {
	case <-readerDone:
		t.Fatal("reader granted against a combined S+I hold")
	default:
	}
	m.ReleaseAll(1)
	<-readerDone
	m.ReleaseAll(2)

	// The reverse order: Increment then Shared.
	if err := m.Acquire(3, 8, Increment); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(3, 8, Shared); err != nil {
		t.Fatal(err)
	}
	incDone := make(chan struct{})
	go func() {
		if err := m.Acquire(4, 8, Increment); err != nil {
			t.Error(err)
		}
		close(incDone)
	}()
	awaitWaiters(t, m, 1)
	select {
	case <-incDone:
		t.Fatal("incrementer granted against a combined I+S hold")
	default:
	}
	m.ReleaseAll(3)
	<-incDone
}
