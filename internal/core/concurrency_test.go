package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"ariesrh/internal/lock"
	"ariesrh/internal/wal"
)

// TestConcurrentDisjointTransactions runs many goroutine transactions over
// disjoint object ranges; all must commit and all values must be correct.
func TestConcurrentDisjointTransactions(t *testing.T) {
	e := newEngine(t)
	const workers, perWorker = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx, err := e.Begin()
				if err != nil {
					errs <- err
					return
				}
				obj := wal.ObjectID(w*10_000 + i + 1)
				if err := e.Update(tx, obj, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					errs <- err
					return
				}
				if err := e.Commit(tx); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			wantValue(t, e, wal.ObjectID(w*10_000+i+1), fmt.Sprintf("w%d-%d", w, i))
		}
	}
}

// TestConcurrentContention hammers a small object set; deadlock victims
// retry, and the engine must neither hang nor corrupt values.
func TestConcurrentContention(t *testing.T) {
	e := newEngine(t)
	const workers = 6
	var wg sync.WaitGroup
	var fatal sync.Map
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				tx, err := e.Begin()
				if err != nil {
					fatal.Store(w, err)
					return
				}
				a := wal.ObjectID(uint64(w+i)%4 + 1)
				b := wal.ObjectID(uint64(w*i)%4 + 1)
				err1 := e.Update(tx, a, []byte("x"))
				var err2 error
				if err1 == nil {
					err2 = e.Update(tx, b, []byte("y"))
				}
				if errors.Is(err1, lock.ErrDeadlock) || errors.Is(err2, lock.ErrDeadlock) {
					if err := e.Abort(tx); err != nil {
						fatal.Store(w, err)
						return
					}
					continue
				}
				if err1 != nil {
					fatal.Store(w, err1)
					return
				}
				if err2 != nil {
					fatal.Store(w, err2)
					return
				}
				if err := e.Commit(tx); err != nil {
					fatal.Store(w, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("contention test hung")
	}
	fatal.Range(func(k, v interface{}) bool {
		t.Fatalf("worker %v: %v", k, v)
		return false
	})
}

// TestConcurrentDelegationHandoff pipelines work between producer and
// consumer goroutines via delegation: producers create results and
// delegate them to a committing consumer transaction.
func TestConcurrentDelegationHandoff(t *testing.T) {
	e := newEngine(t)
	const producers, items = 4, 20
	type handoff struct {
		tx  wal.TxID
		obj wal.ObjectID
	}
	ch := make(chan handoff, producers*items)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < items; i++ {
				tx, err := e.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				obj := wal.ObjectID(p*1000 + i + 1)
				if err := e.Update(tx, obj, []byte(fmt.Sprintf("p%d-%d", p, i))); err != nil {
					t.Error(err)
					return
				}
				ch <- handoff{tx: tx, obj: obj}
			}
		}(p)
	}
	go func() { wg.Wait(); close(ch) }()

	// The consumer collects delegations in batches and commits them; the
	// producers then abort, and their delegated results must survive.
	var producedTxs []wal.TxID
	consumer, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for h := range ch {
		if err := e.Delegate(h.tx, consumer, h.obj); err != nil {
			t.Fatalf("delegate: %v", err)
		}
		producedTxs = append(producedTxs, h.tx)
		n++
	}
	if n != producers*items {
		t.Fatalf("received %d handoffs", n)
	}
	for _, tx := range producedTxs {
		if err := e.Abort(tx); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(consumer); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < producers; p++ {
		for i := 0; i < items; i++ {
			wantValue(t, e, wal.ObjectID(p*1000+i+1), fmt.Sprintf("p%d-%d", p, i))
		}
	}
}

// TestFullScanUndoAblationEquivalent: the rejected full-scan undo produces
// the same state as the cluster sweep, at a higher visit count.
func TestFullScanUndoAblationEquivalent(t *testing.T) {
	run := func(fullScan bool) (*Engine, uint64) {
		e, err := New(Options{PoolSize: 64, FullScanUndo: fullScan})
		if err != nil {
			t.Fatal(err)
		}
		t1 := mustBegin(t, e)
		t2 := mustBegin(t, e)
		t3 := mustBegin(t, e)
		mustUpdate(t, e, t1, 1, "delegated")
		mustDelegate(t, e, t1, t2, 1)
		mustCommit(t, e, t2)
		mustUpdate(t, e, t1, 2, "loser") // early loser scope...
		// ...then winner traffic between the loser scopes: the full
		// scan must wade through it, the cluster sweep skips it.
		for i := 0; i < 100; i++ {
			w := mustBegin(t, e)
			mustUpdate(t, e, w, wal.ObjectID(100+i), "pad")
			mustCommit(t, e, w)
		}
		mustUpdate(t, e, t3, 3, "loser-too") // late loser scope
		if err := e.Log().Flush(e.Log().Head()); err != nil {
			t.Fatal(err)
		}
		before := e.Stats().RecBackwardVisited
		crashAndRecover(t, e)
		return e, e.Stats().RecBackwardVisited - before
	}
	cluster, clusterVisited := run(false)
	full, fullVisited := run(true)
	for _, obj := range []wal.ObjectID{1, 2, 3} {
		cv, cok, _ := cluster.ReadObject(obj)
		fv, fok, _ := full.ReadObject(obj)
		if string(cv) != string(fv) || (cok && len(cv) > 0) != (fok && len(fv) > 0) {
			t.Fatalf("object %d differs: cluster=%q full=%q", obj, cv, fv)
		}
	}
	wantValue(t, cluster, 1, "delegated")
	wantValue(t, cluster, 2, "")
	wantValue(t, cluster, 3, "")
	if fullVisited <= clusterVisited*2 {
		t.Fatalf("full scan visited %d vs cluster %d — expected a clear gap", fullVisited, clusterVisited)
	}
}

// TestAbortCancelsBlockedUpdate: aborting a transaction whose Update is
// queued for a lock ends that Update with an error at once, and takes its
// request out of the object's queue, so a reader queued behind it is
// granted while the first reader still holds its shared lock.
func TestAbortCancelsBlockedUpdate(t *testing.T) {
	e := newEngine(t)
	setup := mustBegin(t, e)
	mustUpdate(t, e, setup, 1, "v")
	mustCommit(t, e, setup)

	reader := mustBegin(t, e)
	if _, err := e.Read(reader, 1); err != nil {
		t.Fatal(err)
	}
	writer := mustBegin(t, e)
	updated := make(chan error, 1)
	go func() { updated <- e.Update(writer, 1, []byte("blocked")) }()
	for e.Metrics().Gauge("lock.waiters") != 1 {
		runtime.Gosched()
	}
	late := mustBegin(t, e)
	read := make(chan error, 1)
	go func() {
		_, err := e.Read(late, 1)
		read <- err
	}()
	for e.Metrics().Gauge("lock.waiters") != 2 {
		runtime.Gosched()
	}

	mustAbort(t, e, writer)
	select {
	case err := <-updated:
		if !errors.Is(err, ErrNoSuchTxn) {
			t.Fatalf("Update of an aborted transaction returned %v, want ErrNoSuchTxn", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Update still queued after its transaction aborted")
	}
	select {
	case err := <-read:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reader held behind the aborted writer's request")
	}
	mustCommit(t, e, late)
	mustCommit(t, e, reader)
	if orphans := e.LockOrphans(); len(orphans) != 0 {
		t.Fatalf("lock table names terminated transactions %v", orphans)
	}
	wantValue(t, e, 1, "v")
}

// TestCrashFailsLockWaiters is the regression test for a lock wait that
// outlived Crash: the lock table was reset under a blocked Read, Update or
// Increment, whose request then waited on holders nothing would ever
// release.  The wait must end with ErrCrashed, and the recovered engine's
// lock table must name no transaction.
func TestCrashFailsLockWaiters(t *testing.T) {
	ops := map[string]func(*Engine, wal.TxID) error{
		"read": func(e *Engine, tx wal.TxID) error {
			_, err := e.Read(tx, 1)
			return err
		},
		"update": func(e *Engine, tx wal.TxID) error {
			return e.Update(tx, 1, []byte("blocked"))
		},
		"increment": func(e *Engine, tx wal.TxID) error {
			_, err := e.Increment(tx, 1, 1)
			return err
		},
	}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			e := newEngine(t)
			t1 := mustBegin(t, e)
			mustUpdate(t, e, t1, 1, "holder")
			t2 := mustBegin(t, e)
			done := make(chan error, 1)
			go func() { done <- op(e, t2) }()
			for e.Metrics().Gauge("lock.waiters") != 1 {
				runtime.Gosched()
			}

			if err := e.Crash(); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if !errors.Is(err, ErrCrashed) {
					t.Fatalf("%s blocked across Crash returned %v, want ErrCrashed", name, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s still blocked in the lock manager after Crash", name)
			}
			if g := e.Metrics().Gauge("lock.waiters"); g != 0 {
				t.Fatalf("lock.waiters = %d after Crash, want 0", g)
			}
			if err := e.Recover(); err != nil {
				t.Fatal(err)
			}
			if orphans := e.LockOrphans(); len(orphans) != 0 {
				t.Fatalf("lock table names terminated transactions %v", orphans)
			}
			tx := mustBegin(t, e)
			mustUpdate(t, e, tx, 1, "after")
			mustCommit(t, e, tx)
			wantValue(t, e, 1, "after")
		})
	}
}
