package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ariesrh/internal/storage"
	"ariesrh/internal/wal"
)

// TestDelegateAllAtomicVsConcurrentAbort is the regression test for the
// DelegateAll atomicity bug: the old implementation dropped the engine
// latch between per-object Delegate calls, so a concurrent Abort of the
// delegatee could land mid-loop and leave responsibility split between
// delegator and (dead) delegatee.  With the latch held across the batch
// the outcome must be all-or-nothing: either every object moved to the
// delegatee before its abort undid them, or the abort won and the
// delegator still holds every object with its values intact.
func TestDelegateAllAtomicVsConcurrentAbort(t *testing.T) {
	e := newEngine(t)
	const objs = 6
	rounds := 300
	if testing.Short() {
		rounds = 60
	}
	for round := 0; round < rounds; round++ {
		tor := mustBegin(t, e)
		tee := mustBegin(t, e)
		base := wal.ObjectID(round*16 + 1)
		for k := 0; k < objs; k++ {
			mustUpdate(t, e, tor, base+wal.ObjectID(k), fmt.Sprintf("r%d-o%d", round, k))
		}
		var wg sync.WaitGroup
		var delegErr, abortErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			abortErr = e.Abort(tee)
		}()
		go func() {
			defer wg.Done()
			delegErr = e.DelegateAll(tor, tee)
		}()
		wg.Wait()
		if abortErr != nil {
			t.Fatalf("round %d: abort(tee): %v", round, abortErr)
		}
		held, err := e.ObjectsOf(tor)
		if err != nil {
			t.Fatalf("round %d: ObjectsOf(tor): %v", round, err)
		}
		switch {
		case delegErr == nil:
			// Delegation won the race: every object moved to tee, whose
			// abort then undid every update.
			if len(held) != 0 {
				t.Fatalf("round %d: DelegateAll succeeded but tor still holds %d objects (partial batch)", round, len(held))
			}
			for k := 0; k < objs; k++ {
				wantValue(t, e, base+wal.ObjectID(k), "")
			}
		case errors.Is(delegErr, ErrNoSuchTxn):
			// Abort won: tee was gone before the batch started, so NO
			// object may have moved and every value must be intact.
			if len(held) != objs {
				t.Fatalf("round %d: DelegateAll failed with tee dead but tor holds %d/%d objects (partial batch)", round, len(held), objs)
			}
			for k := 0; k < objs; k++ {
				wantValue(t, e, base+wal.ObjectID(k), fmt.Sprintf("r%d-o%d", round, k))
			}
		default:
			t.Fatalf("round %d: unexpected DelegateAll error: %v", round, delegErr)
		}
		mustAbort(t, e, tor)
	}
}

// errInjectedWrite is the fault injected by failingDisk.
var errInjectedWrite = errors.New("injected page-write failure")

// failingDisk wraps a DiskManager, failing WritePage while armed.
type failingDisk struct {
	storage.DiskManager
	fail atomic.Bool
}

func (d *failingDisk) WritePage(pid storage.PageID, p *storage.Page) error {
	if d.fail.Load() {
		return errInjectedWrite
	}
	return d.DiskManager.WritePage(pid, p)
}

// TestUpdateBookkeepingSurvivesWriteFailure covers Update's error path
// after log.Append succeeded but store.Write failed (here: the write
// faults a fresh page in, which evicts a dirty page whose write-back is
// made to fail).  The logged update is real — recovery would redo it — so
// the volatile bookkeeping must already reflect it: the scope recorded AND
// the backward chain advanced.  The old ordering advanced LastLSN only
// after the page write, leaving a logged update outside the backward chain
// on this path (a later CLR would then carry a PrevLSN skipping it).
// Abort after the failure must cleanly compensate everything.
func TestUpdateBookkeepingSurvivesWriteFailure(t *testing.T) {
	disk := &failingDisk{DiskManager: storage.NewMemDisk()}
	e, err := New(Options{PoolSize: 1, Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, e)
	// Fill page 0 completely so the next new object needs a second page —
	// and, with a one-frame pool, evicting dirty page 0 to load it.
	for s := 0; s < storage.SlotsPerPage; s++ {
		mustUpdate(t, e, tx, wal.ObjectID(s+1), "fill")
	}
	obj := wal.ObjectID(storage.SlotsPerPage + 1)

	disk.fail.Store(true)
	uerr := e.Update(tx, obj, []byte("doomed"))
	disk.fail.Store(false)
	if !errors.Is(uerr, errInjectedWrite) {
		t.Fatalf("Update error = %v, want injected write failure", uerr)
	}

	// The update record reached the log...
	head := e.Log().Head()
	rec, err := e.Log().Get(head)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Type != wal.TypeUpdate || rec.Object != obj {
		t.Fatalf("log head is %v on object %d, want the failed update of %d", rec.Type, rec.Object, obj)
	}
	// ...so the backward chain must include it...
	if info := e.txns.Get(tx); info == nil || info.LastLSN != head {
		t.Fatalf("LastLSN = %v, want %d (the logged-but-unapplied update)", info, head)
	}
	// ...and the scope must cover it.
	held, err := e.ObjectsOf(tx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, o := range held {
		if o == obj {
			found = true
		}
	}
	if !found {
		t.Fatalf("object %d missing from tx's Ob_List after logged update", obj)
	}

	// Abort must undo the whole transaction, including the failed update.
	mustAbort(t, e, tx)
	wantValue(t, e, obj, "")
	for s := 0; s < storage.SlotsPerPage; s++ {
		wantValue(t, e, wal.ObjectID(s+1), "")
	}
}

// TestCommitPathConcurrentStress hammers the commit path: workers on
// disjoint object ranges run begin → update ×2 → delegate →
// commit/abort loops, so commit records from many
// goroutines continuously share leader flushes while updates and
// delegations interleave through the latch windows.  Afterwards the final
// state is verified, the engine is crashed and recovered, and verified
// again (committed work must survive, aborted work must not).  The
// Makefile race target runs this under -race.
func TestCommitPathConcurrentStress(t *testing.T) {
	e, err := New(Options{PoolSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	iters := 40
	if testing.Short() {
		iters = 10
	}
	type expectation struct {
		obj wal.ObjectID
		val string // "" = must be absent/empty
	}
	expected := make([][]expectation, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := wal.ObjectID(1 + w*4096)
			for i := 0; i < iters; i++ {
				objA := base + wal.ObjectID(2*i)
				objB := objA + 1
				valA := fmt.Sprintf("w%d-i%d-a", w, i)
				valB := fmt.Sprintf("w%d-i%d-b", w, i)
				t1, err := e.Begin()
				if err != nil {
					errs[w] = err
					return
				}
				t2, err := e.Begin()
				if err != nil {
					errs[w] = err
					return
				}
				if err := e.Update(t1, objA, []byte(valA)); err != nil {
					errs[w] = err
					return
				}
				if err := e.Update(t1, objB, []byte(valB)); err != nil {
					errs[w] = err
					return
				}
				// t2 becomes responsible for objA; its commit makes that
				// update permanent regardless of t1's fate.
				if err := e.Delegate(t1, t2, objA); err != nil {
					errs[w] = err
					return
				}
				if err := e.Commit(t2); err != nil {
					errs[w] = err
					return
				}
				if i%2 == 0 {
					if err := e.Abort(t1); err != nil {
						errs[w] = err
						return
					}
					expected[w] = append(expected[w], expectation{objA, valA}, expectation{objB, ""})
				} else {
					if err := e.Commit(t1); err != nil {
						errs[w] = err
						return
					}
					expected[w] = append(expected[w], expectation{objA, valA}, expectation{objB, valB})
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	// Commits should have shared flushes; at minimum the counters must be
	// consistent (every grouped flush served at least one waiter).
	m := e.Metrics()
	if grouped, waiters := m.Counter("wal.grouped_flushes"), m.Counter("wal.flush_waiters"); grouped == 0 || waiters < grouped {
		t.Fatalf("implausible group-flush counters: grouped=%d waiters=%d", grouped, waiters)
	}

	check := func(phase string) {
		for w := range expected {
			for _, exp := range expected[w] {
				v, ok, err := e.ReadObject(exp.obj)
				if err != nil {
					t.Fatalf("%s: worker %d object %d: %v", phase, w, exp.obj, err)
				}
				got := ""
				if ok {
					got = string(v)
				}
				if got != exp.val {
					t.Fatalf("%s: worker %d object %d = %q, want %q", phase, w, exp.obj, got, exp.val)
				}
			}
		}
	}
	check("pre-crash")

	if err := e.Log().Flush(e.Log().Head()); err != nil {
		t.Fatal(err)
	}
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	check("post-recovery")
}
