package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"ariesrh/internal/lock"
	"ariesrh/internal/txn"
	"ariesrh/internal/wal"
)

// elrStore is a fault-injecting wal.Dir that gates device Syncs for
// early-lock-release tests.  In gate mode (arm) each armed Sync signals
// entered, blocks on the gate, and — if failOnRelease was set while it
// was blocked — fails with a no-retry device error.  In script mode
// (armScript) each armed Sync signals entered and then consumes one
// directive from script: true fails that one attempt, false lets it
// through — so consecutive device rounds can deterministically fail then
// succeed.
type elrStore struct {
	*wal.MemDir
	mu            sync.Mutex
	armed         bool
	scripted      bool
	failOnRelease bool
	gate          chan struct{}
	entered       chan struct{}
	script        chan bool
}

func newELRStore() *elrStore {
	return &elrStore{
		MemDir:  wal.NewMemDir(),
		gate:    make(chan struct{}),
		entered: make(chan struct{}, 16),
		script:  make(chan bool),
	}
}

func (s *elrStore) arm()     { s.mu.Lock(); s.armed = true; s.mu.Unlock() }
func (s *elrStore) disarm()  { s.mu.Lock(); s.armed = false; s.mu.Unlock() }
func (s *elrStore) failAll() { s.mu.Lock(); s.failOnRelease = true; s.mu.Unlock() }

func (s *elrStore) armScript() {
	s.mu.Lock()
	s.armed = true
	s.scripted = true
	s.mu.Unlock()
}

// reset returns the store to passthrough: future Syncs hit the device
// directly.  In-flight Syncs are unaffected (they already read the mode
// on entry), so a directive consumed before the reset still applies.
func (s *elrStore) reset() {
	s.mu.Lock()
	s.armed = false
	s.scripted = false
	s.failOnRelease = false
	s.mu.Unlock()
}

func (s *elrStore) Open(name string) (wal.Store, error) {
	dev, err := s.MemDir.Open(name)
	if err != nil {
		return nil, err
	}
	return &elrDev{Store: dev, dir: s}, nil
}

type elrDev struct {
	wal.Store
	dir *elrStore
}

func (d *elrDev) Sync() error {
	s := d.dir
	s.mu.Lock()
	armed, scripted := s.armed, s.scripted
	s.mu.Unlock()
	if !armed {
		return d.Store.Sync()
	}
	s.entered <- struct{}{}
	if scripted {
		if <-s.script {
			return fmt.Errorf("%w: injected sync failure", wal.ErrNoRetry)
		}
		return d.Store.Sync()
	}
	<-s.gate
	s.mu.Lock()
	fail := s.failOnRelease
	s.mu.Unlock()
	if fail {
		return fmt.Errorf("%w: injected sync failure", wal.ErrNoRetry)
	}
	return d.Store.Sync()
}

func newELREngine(t *testing.T) (*Engine, *elrStore) {
	t.Helper()
	store := newELRStore()
	e, err := New(Options{PoolSize: 16, LogDir: store, EarlyLockRelease: true})
	if err != nil {
		t.Fatal(err)
	}
	return e, store
}

// horizonOf returns tx's horizon (NilLSN if tx is not in the table).
func horizonOf(e *Engine, tx wal.TxID) wal.LSN {
	e.mu.Lock()
	defer e.mu.Unlock()
	if info := e.txns.Get(tx); info != nil {
		return info.Horizon
	}
	return wal.NilLSN
}

// commitLSN returns the commit record of tx, a committer whose ack is
// still pending.
func commitLSN(e *Engine, tx wal.TxID) wal.LSN {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.txns.Get(tx).LastLSN
}

// commitAsync starts Commit on its own goroutine and returns the error
// channel.
func commitAsync(e *Engine, tx wal.TxID) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- e.Commit(tx) }()
	return ch
}

// TestELRReleasesLocksBeforeDurability is the tentpole's core property:
// with EarlyLockRelease a committer's X lock is available to others
// while its commit record is still waiting on the device, the violator's
// horizon rises to that record, and both commits complete once the
// flush lands.
func TestELRReleasesLocksBeforeDurability(t *testing.T) {
	e, store := newELREngine(t)
	t1 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "from-t1")
	t2 := mustBegin(t, e)

	store.arm()
	c1 := commitAsync(e, t1)
	<-store.entered // t1's commit record is on its way to the device

	// The violation: t2 takes t1's early-released X lock and reads the
	// pre-durable value, all while t1's sync is still in flight.
	updDone := make(chan error, 1)
	go func() { updDone <- e.Update(t2, 1, []byte("from-t2")) }()
	select {
	case err := <-updDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("update blocked on an early-released lock: ELR did not release at commit-record append")
	}

	if got, want := horizonOf(e, t2), commitLSN(e, t1); got != want {
		t.Fatalf("violator's horizon = %d, want the pre-durable commit record %d", got, want)
	}

	store.disarm()
	close(store.gate)
	if err := <-c1; err != nil {
		t.Fatalf("t1 commit: %v", err)
	}
	mustCommit(t, e, t2)
	wantValue(t, e, 1, "from-t2")

	m := e.Metrics()
	if got := m.Counter("elr.commits"); got == 0 {
		t.Fatal("elr.commits not counted")
	}
	if got := m.Counter("elr.violations"); got != 1 {
		t.Fatalf("elr.violations = %d, want 1", got)
	}
	if got := m.Counter("lock.stamps"); got == 0 {
		t.Fatal("lock.stamps not counted")
	}
	if m.Histogram("elr.ack_defer_ns").Count == 0 {
		t.Fatal("elr.ack_defer_ns not observed")
	}
}

// TestELRFlushFailureLeavesViolatorLive: when the commit record cannot
// reach the device, the ELR committer is in doubt (ErrInDoubt) and the
// engine degrades, but nothing is rolled back: the violator that
// overwrote the pre-durable data stays live with its own write, and its
// abort compensates only that write — correct whichever way recovery
// later decides the committer.
func TestELRFlushFailureLeavesViolatorLive(t *testing.T) {
	e, store := newELREngine(t)
	setup := mustBegin(t, e)
	mustUpdate(t, e, setup, 1, "init")
	mustCommit(t, e, setup)

	t1 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "t1-dirty")
	t2 := mustBegin(t, e)

	store.arm()
	c1 := commitAsync(e, t1)
	<-store.entered

	if err := e.Update(t2, 1, []byte("t2-dirty")); err != nil {
		t.Fatal(err)
	}

	store.failAll()
	close(store.gate)

	if err := <-c1; !errors.Is(err, ErrInDoubt) {
		t.Fatalf("t1 commit error = %v, want ErrInDoubt", err)
	}
	if h := e.Health(); h.State != StateDegraded {
		t.Fatalf("health = %v after persistent flush failure, want degraded", h.State)
	}
	// The in-doubt committer cannot be aborted, and the violator is live.
	if err := e.Abort(t1); !errors.Is(err, ErrNoSuchTxn) {
		t.Fatalf("Abort of the in-doubt committer = %v, want ErrNoSuchTxn", err)
	}
	if v, err := e.Read(t2, 1); err != nil || string(v) != "t2-dirty" {
		t.Fatalf("violator's Read = %q, %v; want its own write", v, err)
	}
	mustAbort(t, e, t2)
	wantValue(t, e, 1, "t1-dirty")
	if orphans := e.LockOrphans(); len(orphans) != 0 {
		t.Fatalf("lock table names terminated transactions %v", orphans)
	}
}

// TestELRFailedRoundThenDurableCompletesCommit: the committer's own
// group-flush round fails, but a later flush carries its commit record
// to the device before the waiter reacquires the engine latch (under
// group commit, rounds triggered by other queued waiters can do exactly
// that).  The commit IS durable — its updates are visible and must stay
// — so Commit must finish it and return nil, not ErrInDoubt, and
// must neither leak the transaction as Committed in the table nor
// degrade the engine.
func TestELRFailedRoundThenDurableCompletesCommit(t *testing.T) {
	e, store := newELREngine(t)
	t1 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "v1")

	store.armScript()
	c1 := commitAsync(e, t1)
	<-store.entered // t1's round is at the device, its stamp live

	// Hold the latch so the waiter cannot act on its failure delivery
	// until the record is durable, fail the round, then land the record
	// with a direct flush (standing in for the later group round).  Flush
	// queues on the same leader, so it must not arrive before the failing
	// round is over or it is handed that round's error.
	e.mu.Lock()
	lsn := e.txns.Get(t1).LastLSN
	flushErrors := e.reg.Counter("wal.flush_errors")
	failed := flushErrors.Load()
	store.script <- true
	store.reset()
	for flushErrors.Load() == failed {
		runtime.Gosched()
	}
	if err := e.log.Flush(lsn); err != nil {
		e.mu.Unlock()
		t.Fatalf("rescue flush: %v", err)
	}
	e.mu.Unlock()

	if err := <-c1; err != nil {
		t.Fatalf("commit returned %v with a durable commit record, want nil", err)
	}
	wantValue(t, e, 1, "v1")
	if h := e.Health(); h.State == StateDegraded {
		t.Fatal("engine degraded although the commit became durable")
	}
	e.mu.Lock()
	tracked := e.txns.Get(t1)
	e.mu.Unlock()
	if tracked != nil {
		t.Fatal("durably committed transaction leaked in the txn table")
	}
	// t1's stamp is dead: a later acquirer of its object passes nothing.
	t2 := mustBegin(t, e)
	mustUpdate(t, e, t2, 1, "v2")
	if h := horizonOf(e, t2); h != wal.NilLSN {
		t.Fatalf("horizon %d raised by a durably committed transaction's stamp", h)
	}
	mustCommit(t, e, t2)
	wantValue(t, e, 1, "v2")
}

// TestFailedRoundThenDurableCompletesCommit is the same failed round and
// rescue flush for the commits that keep their locks across the force —
// a plain Commit and a coordinator's CommitPrepared (the decision; a
// participant's commit is not forced): the record is durable, so the
// commit finishes, returns nil and releases its locks, and the engine
// stays healthy.
func TestFailedRoundThenDurableCompletesCommit(t *testing.T) {
	for _, prepared := range []bool{false, true} {
		t.Run(fmt.Sprintf("prepared=%v", prepared), func(t *testing.T) {
			store := newELRStore()
			e, err := New(Options{PoolSize: 16, LogDir: store, ShardID: 1})
			if err != nil {
				t.Fatal(err)
			}
			t1 := mustBegin(t, e)
			mustUpdate(t, e, t1, 1, "v1")
			commit := e.Commit
			if prepared {
				if err := e.Prepare(t1, 7, 1); err != nil {
					t.Fatal(err)
				}
				commit = func(tx wal.TxID) error {
					_, err := e.CommitPrepared(tx)
					return err
				}
			}

			store.armScript()
			c1 := make(chan error, 1)
			go func() { c1 <- commit(t1) }()
			<-store.entered // t1's commit record is at the device

			e.mu.Lock()
			lsn := e.log.Head()
			flushErrors := e.reg.Counter("wal.flush_errors")
			failed := flushErrors.Load()
			store.script <- true
			store.reset()
			for flushErrors.Load() == failed {
				runtime.Gosched()
			}
			if err := e.log.Flush(lsn); err != nil {
				e.mu.Unlock()
				t.Fatalf("rescue flush: %v", err)
			}
			e.mu.Unlock()

			if err := <-c1; err != nil {
				t.Fatalf("commit returned %v with a durable commit record, want nil", err)
			}
			if h := e.Health(); h.State == StateDegraded {
				t.Fatal("engine degraded although the commit became durable")
			}
			if n := len(e.InDoubt()); n != 0 {
				t.Fatalf("%d transactions in doubt after a durable commit", n)
			}
			// The locks are released: a later writer of object 1 proceeds.
			t2 := mustBegin(t, e)
			mustUpdate(t, e, t2, 1, "v2")
			mustCommit(t, e, t2)
			wantValue(t, e, 1, "v2")
		})
	}
}

// TestELRDelegationCarriesDependency: a violator that delegates the
// dirty scope hands its horizon to the delegatee — what the delegated
// update rests on travels with responsibility.  When the predecessor's
// force then fails, nothing is rolled back: the delegatee stays live and
// its abort undoes the delegated update.
func TestELRDelegationCarriesDependency(t *testing.T) {
	e, store := newELREngine(t)
	setup := mustBegin(t, e)
	mustUpdate(t, e, setup, 1, "init")
	mustCommit(t, e, setup)

	t1 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "t1-dirty")
	t2 := mustBegin(t, e)
	t3 := mustBegin(t, e)

	store.arm()
	c1 := commitAsync(e, t1)
	<-store.entered

	if err := e.Update(t2, 1, []byte("t2-dirty")); err != nil {
		t.Fatal(err)
	}
	// t2 delegates the violating scope to t3.
	if err := e.Delegate(t2, t3, 1); err != nil {
		t.Fatal(err)
	}
	if got, want := horizonOf(e, t3), commitLSN(e, t1); got != want {
		t.Fatalf("delegatee's horizon = %d, want the delegator's %d", got, want)
	}

	store.failAll()
	close(store.gate)
	if err := <-c1; !errors.Is(err, ErrInDoubt) {
		t.Fatalf("t1 commit error = %v, want ErrInDoubt", err)
	}
	// Nothing is rolled back: t3 owns the delegated scope and is live, and
	// its abort undoes exactly the delegated update.
	if v, err := e.Read(t3, 1); err != nil || string(v) != "t2-dirty" {
		t.Fatalf("delegatee's Read = %q, %v; want the delegated write", v, err)
	}
	mustAbort(t, e, t3)
	wantValue(t, e, 1, "t1-dirty")
}

// TestELRDelegateThenViolate: the delegator commits pre-durably AFTER
// delegating a scope away, and the delegatee then violates the
// delegator's early-released lock on its own object: its horizon rises
// to the delegator's commit record, on top of the horizon it inherited.
// The delegatee commits while that record is still in flight.  The
// delegated updates belong to the delegatee — delegation rewrote history
// — so both survive once the flush lands, in the commit order the log
// dictates.
func TestELRDelegateThenViolate(t *testing.T) {
	e, store := newELREngine(t)
	// t0's commit record is durable: t1 reads over a dead stamp and
	// hands the delegatee nothing.
	t0 := mustBegin(t, e)
	mustUpdate(t, e, t0, 3, "t0")
	mustCommit(t, e, t0)
	t1 := mustBegin(t, e)
	if _, err := e.Read(t1, 3); err != nil {
		t.Fatal(err)
	}
	mustUpdate(t, e, t1, 1, "delegated")
	mustUpdate(t, e, t1, 2, "t1-own")
	t2 := mustBegin(t, e)
	if err := e.Delegate(t1, t2, 1); err != nil {
		t.Fatal(err)
	}
	if h := horizonOf(e, t2); h != wal.NilLSN {
		t.Fatalf("delegatee inherited horizon %d from a delegator that passed only dead stamps", h)
	}

	store.arm()
	c1 := commitAsync(e, t1) // t1 pre-durable, locks released
	<-store.entered
	if v, err := e.Read(t2, 2); err != nil || string(v) != "t1-own" {
		t.Fatalf("delegatee's read of the delegator's object = %q, %v", v, err)
	}
	if got, want := horizonOf(e, t2), commitLSN(e, t1); got != want {
		t.Fatalf("delegatee's horizon = %d, want the delegator's commit record %d", got, want)
	}
	c2 := commitAsync(e, t2) // delegatee commits before delegator durable

	// Both acks are pending on the same (or later) flush rounds; neither
	// may have completed yet.
	select {
	case err := <-c1:
		t.Fatalf("t1 acked before its record was durable: %v", err)
	case err := <-c2:
		t.Fatalf("t2 acked before its record was durable: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	store.disarm()
	close(store.gate)
	if err := <-c1; err != nil {
		t.Fatalf("t1 commit: %v", err)
	}
	if err := <-c2; err != nil {
		t.Fatalf("t2 commit: %v", err)
	}
	wantValue(t, e, 1, "delegated")
	wantValue(t, e, 2, "t1-own")
}

// TestELROffHoldsLocksAcrossFlush pins the seed semantics: without
// EarlyLockRelease a committer's locks stay held until the flush
// completes, so a conflicting acquirer waits out the device sync.
func TestELROffHoldsLocksAcrossFlush(t *testing.T) {
	store := newELRStore()
	e, err := New(Options{PoolSize: 16, LogDir: store})
	if err != nil {
		t.Fatal(err)
	}
	t1 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "from-t1")
	t2 := mustBegin(t, e)

	store.arm()
	c1 := commitAsync(e, t1)
	<-store.entered

	updDone := make(chan error, 1)
	go func() { updDone <- e.Update(t2, 1, []byte("from-t2")) }()
	select {
	case err := <-updDone:
		t.Fatalf("update got the lock during the committer's sync without ELR (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}

	store.disarm()
	close(store.gate)
	if err := <-c1; err != nil {
		t.Fatal(err)
	}
	if err := <-updDone; err != nil {
		t.Fatal(err)
	}
	mustCommit(t, e, t2)
	wantValue(t, e, 1, "from-t2")
}

// TestAbortWhileBlockedReleasesStaleGrant is the regression test for the
// stale-grant cleanup now centralized in activeAfterLockLocked: a
// transaction aborted while blocked in the lock manager receives its
// grant posthumously, and the operation must drop that hold — otherwise
// the object stays locked by a dead transaction forever.
func TestAbortWhileBlockedReleasesStaleGrant(t *testing.T) {
	e := newEngine(t)
	t1 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "holder")
	t2 := mustBegin(t, e)

	updDone := make(chan error, 1)
	go func() { updDone <- e.Update(t2, 1, []byte("blocked")) }()
	deadline := time.Now().Add(2 * time.Second)
	for e.Metrics().Gauge("lock.waiters") != 1 {
		if time.Now().After(deadline) {
			t.Fatal("t2 never blocked on the lock")
		}
		time.Sleep(time.Millisecond)
	}

	// Abort t2 while it is blocked, then release the lock: the grant
	// lands for a dead transaction.
	mustAbort(t, e, t2)
	mustCommit(t, e, t1)
	if err := <-updDone; !errors.Is(err, ErrNoSuchTxn) {
		t.Fatalf("posthumous update error = %v, want ErrNoSuchTxn", err)
	}

	// The regression: a third transaction must be able to lock obj 1.
	t3 := mustBegin(t, e)
	upd3 := make(chan error, 1)
	go func() { upd3 <- e.Update(t3, 1, []byte("after")) }()
	select {
	case err := <-upd3:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("object still locked by a dead transaction's stale grant")
	}
	mustCommit(t, e, t3)
	wantValue(t, e, 1, "after")
}

// TestELRCascadeOntoLockWaiterLeaksNoGrant is the scripted form of the
// tier-1 wedge: T builds on a pre-durable committer H and then parks in
// the lock manager behind K.  H's flush fails: H is in doubt and the
// engine degrades, but no rollback reaches T — it stays live, parked.
// When K then aborts, T is granted the lock, its operation must return
// ErrDegraded, and T must abort cleanly, leaving no lock held by a
// transaction the table no longer knows.
func TestELRCascadeOntoLockWaiterLeaksNoGrant(t *testing.T) {
	ops := map[string]func(*Engine, wal.TxID, wal.ObjectID) error{
		"update": func(e *Engine, tx wal.TxID, obj wal.ObjectID) error {
			return e.Update(tx, obj, []byte("blocked"))
		},
		"increment": func(e *Engine, tx wal.TxID, obj wal.ObjectID) error {
			_, err := e.Increment(tx, obj, 1)
			return err
		},
	}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			e, store := newELREngine(t)
			h := mustBegin(t, e)
			mustUpdate(t, e, h, 1, "h-dirty")
			k := mustBegin(t, e)
			mustUpdate(t, e, k, 2, "k-dirty")
			tx := mustBegin(t, e)

			// H commits: locks released, commit record stuck at the device.
			store.arm()
			ch := commitAsync(e, h)
			<-store.entered
			// T violates H's released lock (abort dependency on H), then
			// parks behind K.
			mustUpdate(t, e, tx, 1, "t-dirty")
			opDone := make(chan error, 1)
			go func() { opDone <- op(e, tx, 2) }()
			for e.Metrics().Gauge("lock.waiters") != 1 {
				runtime.Gosched()
			}

			store.failAll()
			close(store.gate)
			if err := <-ch; !errors.Is(err, ErrInDoubt) {
				t.Fatalf("H commit error = %v, want ErrInDoubt", err)
			}
			if h := e.Health(); h.State != StateDegraded {
				t.Fatalf("health = %v, want degraded", h.State)
			}
			// K's abort hands object 2 to the live T, whose operation then
			// meets the degraded engine.
			mustAbort(t, e, k)
			if err := <-opDone; !errors.Is(err, ErrDegraded) {
				t.Fatalf("%s after K's abort = %v, want ErrDegraded", name, err)
			}
			mustAbort(t, e, tx)
			wantValue(t, e, 1, "h-dirty")
			if orphans := e.LockOrphans(); len(orphans) != 0 {
				t.Fatalf("lock table names terminated transactions %v", orphans)
			}
		})
	}
}

// TestFormDependencyConcurrentNoCycle hammers dependency formation from
// racing goroutines (run under -race in CI) and asserts the graph never
// admits a cycle: every successful FormDependency kept the graph acyclic
// no matter how the cycle checks interleaved.
func TestFormDependencyConcurrentNoCycle(t *testing.T) {
	e := newEngine(t)
	const n = 8
	txs := make([]wal.TxID, n)
	for i := range txs {
		txs[i] = mustBegin(t, e)
	}
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Deterministic per-goroutine pair sequence; collectively the
			// goroutines attempt edges in both directions between many
			// pairs, so only the cycle check keeps the graph acyclic.
			for i := 0; i < 200; i++ {
				dep := txs[(g+i)%n]
				on := txs[(g*3+i*7+1)%n]
				if dep == on {
					continue
				}
				kind := AbortDependency
				if i%2 == 0 {
					kind = CommitDependency
				}
				err := e.FormDependency(dep, on, kind)
				if err != nil && !errors.Is(err, ErrDependencyCycle) {
					t.Errorf("FormDependency(t%d, t%d): %v", dep, on, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Kahn's algorithm: the final graph must topologically sort.
	e.mu.Lock()
	indeg := make(map[wal.TxID]int, n)
	out := make(map[wal.TxID][]wal.TxID, n)
	for _, tx := range txs {
		indeg[tx] = 0
	}
	edges := 0
	for dep, list := range e.deps {
		for _, edge := range list {
			out[edge.on] = append(out[edge.on], dep)
			indeg[dep]++
			edges++
		}
	}
	e.mu.Unlock()
	if edges == 0 {
		t.Fatal("no edges formed; the hammer did not exercise anything")
	}
	var queue []wal.TxID
	for tx, d := range indeg {
		if d == 0 {
			queue = append(queue, tx)
		}
	}
	sorted := 0
	for len(queue) > 0 {
		tx := queue[0]
		queue = queue[1:]
		sorted++
		for _, next := range out[tx] {
			indeg[next]--
			if indeg[next] == 0 {
				queue = append(queue, next)
			}
		}
	}
	if sorted != n {
		t.Fatalf("dependency graph admitted a cycle: %d of %d transactions sorted", sorted, n)
	}
}

// TestELRCommitStatusDuringWindow: while the ack is deferred the
// transaction reports Committed (not Active), so cascading aborts cannot
// victimize it and dependents observe the right state, and its released
// lock carries a live stamp of its commit record.
func TestELRCommitStatusDuringWindow(t *testing.T) {
	e, store := newELREngine(t)
	t1 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "v")
	store.arm()
	c1 := commitAsync(e, t1)
	<-store.entered
	e.mu.Lock()
	info := e.txns.Get(t1)
	status := txn.Aborted
	if info != nil {
		status = info.Status
	}
	stampLSN, stampTx := e.locks.Stamp(1, lock.Exclusive, e.log.FlushedLSN())
	e.mu.Unlock()
	if status != txn.Committed {
		t.Fatalf("pre-durable ELR committer status = %v, want Committed", status)
	}
	if stampLSN != info.LastLSN || stampTx != t1 {
		t.Fatalf("live stamp = (%d, t%d), want t%d's commit record %d", stampLSN, stampTx, t1, info.LastLSN)
	}
	store.disarm()
	close(store.gate)
	if err := <-c1; err != nil {
		t.Fatal(err)
	}
}

// TestELRReadOnlyCommitWaitsForPredecessor: a read-only transaction logs
// nothing, so nothing of its own can make what it read durable.  Having
// read a pre-durable committer's data it releases its locks at Commit
// and then waits for that committer's commit record: it must not return
// while the device still holds the record, it returns nil once the
// record is durable and ErrInDoubt when the flush fails (it is ended
// either way: it logged nothing to roll back), and in both cases it
// appends nothing.
func TestELRReadOnlyCommitWaitsForPredecessor(t *testing.T) {
	for _, fail := range []bool{false, true} {
		e, store := newELREngine(t)
		t1 := mustBegin(t, e)
		mustUpdate(t, e, t1, 1, "t1-pre-durable")
		reader := mustBegin(t, e)

		store.arm()
		c1 := commitAsync(e, t1)
		<-store.entered // t1's commit record is held at the device
		commitLSN := e.Log().Head()
		if v, err := e.Read(reader, 1); err != nil || string(v) != "t1-pre-durable" {
			t.Fatalf("read of the early-released value = %q, %v", v, err)
		}
		cr := commitAsync(e, reader)
		// The reader parks: Committed in the table, its lock released, its
		// Commit still running while the record it depends on is held.
		for parked := false; !parked; {
			select {
			case err := <-cr:
				t.Fatalf("fail=%v: reader's Commit returned (%v) while its predecessor's commit record was held at the device", fail, err)
			default:
			}
			e.mu.Lock()
			info := e.txns.Get(reader)
			parked = info != nil && info.Status == txn.Committed
			_, held := e.locks.Holds(reader, 1)
			e.mu.Unlock()
			if parked && held {
				t.Fatalf("fail=%v: reader still holds its lock while it waits", fail)
			}
			runtime.Gosched()
		}
		if fail {
			store.failAll()
		}
		store.disarm()
		close(store.gate)
		err1, errR := <-c1, <-cr
		if fail {
			if !errors.Is(err1, ErrInDoubt) || !errors.Is(errR, ErrInDoubt) {
				t.Fatalf("flush failed: predecessor %v, reader %v; want ErrInDoubt for both", err1, errR)
			}
			if _, err := e.Read(reader, 1); !errors.Is(err, ErrNoSuchTxn) {
				t.Fatalf("in-doubt reader was not ended: Read err = %v", err)
			}
		} else {
			if err1 != nil || errR != nil {
				t.Fatalf("predecessor %v, reader %v; want both nil", err1, errR)
			}
			if flushed := e.Log().FlushedLSN(); flushed < commitLSN {
				t.Fatalf("reader acknowledged with the log durable through %d, below its predecessor's commit record at %d", flushed, commitLSN)
			}
		}
		if err := e.Log().Scan(1, wal.NilLSN, func(rec *wal.Record) (bool, error) {
			if rec.TxID == reader {
				return false, fmt.Errorf("fail=%v: read-only t%d appended a %v record at %d", fail, reader, rec.Type, rec.LSN)
			}
			return true, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestELRWriterAllocatesNoMoreThanPlain: early lock release costs no
// allocation of its own.  A serial in-memory writer of four updates per
// transaction allocates no more per commit with it than without it.
func TestELRWriterAllocatesNoMoreThanPlain(t *testing.T) {
	perTxn := func(elr bool) float64 {
		e, err := New(Options{PoolSize: 16, EarlyLockRelease: elr})
		if err != nil {
			t.Fatal(err)
		}
		val := []byte("value")
		return testing.AllocsPerRun(500, func() {
			tx := mustBegin(t, e)
			for obj := wal.ObjectID(1); obj <= 4; obj++ {
				if err := e.Update(tx, obj, val); err != nil {
					t.Fatal(err)
				}
			}
			mustCommit(t, e, tx)
		})
	}
	plain, elr := perTxn(false), perTxn(true)
	t.Logf("allocations per transaction: %.1f without early lock release, %.1f with it", plain, elr)
	if elr > plain {
		t.Fatalf("early lock release allocates %.1f per transaction, %.1f without it", elr, plain)
	}
}
