package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ariesrh/internal/wal"
)

// syncStore is a wal.Dir wrapper for flush-path fault injection: it
// counts device Sync calls, can gate them (each armed Sync blocks until
// the gate is closed), and can make them fail.  Arming happens after
// engine setup so the log-initialization syncs and test fixtures are not
// affected.
type syncStore struct {
	*wal.MemDir
	mu      sync.Mutex
	gated   bool
	failing bool
	syncs   int
	gate    chan struct{}
	entered chan struct{}
}

func newSyncStore() *syncStore {
	return &syncStore{
		MemDir:  wal.NewMemDir(),
		gate:    make(chan struct{}),
		entered: make(chan struct{}, 16),
	}
}

var errInjectedSync = errors.New("injected sync failure")

func (s *syncStore) Open(name string) (wal.Store, error) {
	dev, err := s.MemDir.Open(name)
	if err != nil {
		return nil, err
	}
	return &syncStoreDev{Store: dev, dir: s}, nil
}

type syncStoreDev struct {
	wal.Store
	dir *syncStore
}

func (d *syncStoreDev) Sync() error {
	s := d.dir
	s.mu.Lock()
	gated, failing := s.gated, s.failing
	if gated || failing {
		s.syncs++
	}
	s.mu.Unlock()
	if failing {
		return errInjectedSync
	}
	if gated {
		s.entered <- struct{}{}
		<-s.gate
	}
	return d.Store.Sync()
}

func (s *syncStore) arm(gated bool) { s.mu.Lock(); s.gated = gated; s.mu.Unlock() }
func (s *syncStore) fail(on bool)   { s.mu.Lock(); s.failing = on; s.mu.Unlock() }
func (s *syncStore) syncCount() int { s.mu.Lock(); defer s.mu.Unlock(); return s.syncs }

// TestAbortRoutesThroughGroupFlusher is the regression test for the abort
// flush bug left behind by the group-commit change: abortLocked kept
// calling the synchronous log.Flush while holding the engine latch,
// bypassing the coalesced flusher entirely.  An abort must register a
// flush waiter (wal.FlushAsync) instead of performing its own latched
// sync; pre-fix this counter never moves for aborts.
func TestAbortRoutesThroughGroupFlusher(t *testing.T) {
	e, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 1, "doomed")
	before := e.LogStats().FlushWaiters
	mustAbort(t, e, tx)
	after := e.LogStats().FlushWaiters
	if after != before+1 {
		t.Fatalf("FlushWaiters went %d -> %d across an abort; want exactly one coalesced-flush wait", before, after)
	}
	wantValue(t, e, 1, "")
}

// TestConcurrentAbortsCoalesceSyncs counts device syncs under concurrent
// aborts.  The first abort's leader sync is gated; while it is in flight
// every other abort must append its records and queue on the group
// flusher (off-latch), so releasing the gate lets one further sync cover
// all of them: N aborts, at most 2 syncs.  Pre-fix, each abort performed
// its own sync while holding the engine latch, serializing the aborts one
// device sync apart and never enqueueing a single flush waiter.
func TestConcurrentAbortsCoalesceSyncs(t *testing.T) {
	store := newSyncStore()
	e, err := New(Options{LogDir: store})
	if err != nil {
		t.Fatal(err)
	}
	const aborts = 4
	txs := make([]wal.TxID, aborts)
	for i := range txs {
		txs[i] = mustBegin(t, e)
		mustUpdate(t, e, txs[i], wal.ObjectID(i+1), fmt.Sprintf("doomed-%d", i))
	}
	waitersBefore := e.LogStats().FlushWaiters

	store.arm(true)
	var wg sync.WaitGroup
	errs := make([]error, aborts)
	for i := range txs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = e.Abort(txs[i])
		}(i)
	}

	// Wait for the leader to block inside its device sync, then for every
	// abort to have queued on the flusher.  Pre-fix code never enqueues a
	// waiter (each abort syncs under the latch), so this poll would hang;
	// the deadline turns that into a clean failure.
	deadline := time.After(5 * time.Second)
	select {
	case <-store.entered:
	case <-deadline:
		close(store.gate)
		t.Fatal("no gated sync started: aborts are not reaching the device via the group flusher")
	}
	for e.LogStats().FlushWaiters < waitersBefore+aborts {
		select {
		case <-deadline:
			close(store.gate)
			t.Fatalf("only %d/%d aborts queued on the group flusher (pre-fix aborts flush synchronously under the latch)",
				e.LogStats().FlushWaiters-waitersBefore, aborts)
		case <-time.After(time.Millisecond):
		}
	}
	close(store.gate)
	wg.Wait()
	store.arm(false)

	for i, err := range errs {
		if err != nil {
			t.Fatalf("abort %d: %v", i, err)
		}
	}
	if n := store.syncCount(); n >= aborts {
		t.Fatalf("%d aborts took %d device syncs; want coalescing (< %d)", aborts, n, aborts)
	}
	for i := range txs {
		wantValue(t, e, wal.ObjectID(i+1), "")
	}
}

// TestCommitFlushErrorRestoresBackwardChain is the regression test for
// the group-commit error path leaving info.LastLSN pointing at the
// never-flushed commit record after the flush failed.  The transaction is
// returned to Active, so a subsequent Abort writes CLRs — and pre-fix
// those CLRs chained off the dead commit record instead of the
// transaction's last update.  Post-fix the chain must head at the last
// update, and the abort/crash/recover sequence must leave the object
// clean.
func TestCommitFlushErrorRestoresBackwardChain(t *testing.T) {
	store := newSyncStore()
	e, err := New(Options{LogDir: store})
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 7, "not durable")
	updateLSN := e.Log().Head()

	store.fail(true)
	cerr := e.Commit(tx)
	store.fail(false)
	if !errors.Is(cerr, errInjectedSync) {
		t.Fatalf("Commit error = %v, want injected sync failure", cerr)
	}

	// The transaction is back to Active and its backward chain heads at
	// the update, not at the unflushed commit record.
	info := e.txns.Get(tx)
	if info == nil {
		t.Fatal("transaction vanished after failed commit")
	}
	if info.LastLSN != updateLSN {
		t.Fatalf("LastLSN = %d after failed commit, want %d (the last update; the commit record was never flushed)",
			info.LastLSN, updateLSN)
	}

	// Aborting now must chain the CLR off the update.
	mustAbort(t, e, tx)
	var clr *wal.Record
	head := e.Log().Head()
	for k := updateLSN; k <= head; k++ {
		rec, err := e.Log().Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Type == wal.TypeCLR && rec.Compensates == updateLSN {
			clr = rec
			break
		}
	}
	if clr == nil {
		t.Fatal("no CLR compensating the update after abort")
	}
	if clr.PrevLSN != updateLSN {
		t.Fatalf("CLR.PrevLSN = %d, want %d (pre-fix it points at the never-flushed commit record)",
			clr.PrevLSN, updateLSN)
	}

	// End-to-end: crash and recover; the aborted update must stay undone.
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	wantValue(t, e, 7, "")
}
