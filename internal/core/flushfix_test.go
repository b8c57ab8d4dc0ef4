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
	before := e.Metrics().Counter("wal.flush_waiters")
	mustAbort(t, e, tx)
	after := e.Metrics().Counter("wal.flush_waiters")
	if after != before+1 {
		t.Fatalf("wal.flush_waiters went %d -> %d across an abort; want exactly one coalesced-flush wait", before, after)
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
	waiters := func() uint64 { return e.Metrics().Counter("wal.flush_waiters") }
	waitersBefore := waiters()

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
	for waiters() < waitersBefore+aborts {
		select {
		case <-deadline:
			close(store.gate)
			t.Fatalf("only %d/%d aborts queued on the group flusher (pre-fix aborts flush synchronously under the latch)",
				waiters()-waitersBefore, aborts)
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

// TestFailedCommitForceIsDecidedByLog is the half-commit regression.
// Once a commit record is appended, only the log decides: the force of
// tx's commit record fails, tx is in doubt, and an abort is refused,
// because CLRs after a commit record would be redone by recovery on top
// of a winner.  The device then heals, the log is flushed through the
// record after the commit record (a torn prefix of whatever followed
// it), and the engine crashes and recovers.  Objects 1 and 2 must come
// back both committed or both absent — under sequential recovery and the
// pipeline, for Commit, early-lock-release Commit and a coordinator's
// CommitPrepared (the decision, whose force also carries its unforced
// prepare record).
func TestFailedCommitForceIsDecidedByLog(t *testing.T) {
	modes := []struct {
		name          string
		elr, prepared bool
	}{{"commit", false, false}, {"elr", true, false}, {"prepared", false, true}}
	for _, m := range modes {
		for _, parallel := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/parallel=%v", m.name, parallel), func(t *testing.T) {
				store := newSyncStore()
				e, err := New(Options{LogDir: store, EarlyLockRelease: m.elr, ParallelRecovery: parallel, ShardID: 1})
				if err != nil {
					t.Fatal(err)
				}
				tx := mustBegin(t, e)
				mustUpdate(t, e, tx, 1, "a")
				mustUpdate(t, e, tx, 2, "b")
				commit, abort := e.Commit, e.Abort
				if m.prepared {
					if err := e.Prepare(tx, 7, 1); err != nil {
						t.Fatal(err)
					}
					commit = func(tx wal.TxID) error {
						_, err := e.CommitPrepared(tx)
						return err
					}
					abort = e.AbortPrepared
				}

				store.fail(true)
				if err := commit(tx); !errors.Is(err, ErrInDoubt) {
					t.Errorf("commit on a failing device = %v, want ErrInDoubt", err)
				}
				if err := abort(tx); err == nil {
					t.Error("abort of a transaction whose commit record is appended succeeded")
				}
				store.fail(false)

				var commitLSN wal.LSN
				if err := e.Log().Scan(1, wal.NilLSN, func(rec *wal.Record) (bool, error) {
					if rec.Type == wal.TypeCommit && rec.TxID == tx {
						commitLSN = rec.LSN
					}
					return true, nil
				}); err != nil {
					t.Fatal(err)
				}
				if commitLSN == wal.NilLSN {
					t.Fatal("no commit record appended")
				}
				if err := e.Log().Flush(commitLSN + 1); err != nil {
					t.Fatal(err)
				}
				if err := e.Crash(); err != nil {
					t.Fatal(err)
				}
				if err := e.Recover(); err != nil {
					t.Fatal(err)
				}
				if err := e.WaitRecovered(); err != nil {
					t.Fatal(err)
				}
				v1, _, err1 := e.ReadObject(1)
				v2, _, err2 := e.ReadObject(2)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				both := string(v1) == "a" && string(v2) == "b"
				neither := len(v1) == 0 && len(v2) == 0
				if !both && !neither {
					t.Fatalf("half-committed after recovery: obj 1 = %q, obj 2 = %q", v1, v2)
				}
				if !both {
					t.Fatal("the durable commit record lost its updates")
				}
			})
		}
	}
}
