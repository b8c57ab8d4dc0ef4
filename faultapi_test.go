package ariesrh

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"ariesrh/internal/fault"
	"ariesrh/internal/wal"
)

// TestFaultDirOptionAndHealth drives the degraded-mode lifecycle
// through the public API: a fault.Dir injected via Options.FaultDir
// kills the device, commits fail, Health reports degraded, reads and
// Abort keep working, and a restart with a healed device repairs it.
func TestFaultDirOptionAndHealth(t *testing.T) {
	store := fault.NewDir(fault.Plan{})
	db, err := Open(Options{FaultDir: store})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := t1.Update(1, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if h := db.Health(); h.State != StateHealthy {
		t.Fatalf("Health = %v, want healthy", h.State)
	}

	t2, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := t2.Update(2, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	store.SetFailAllSyncs(true)
	if err := t2.Commit(); err == nil {
		t.Fatal("Commit succeeded against a dead device")
	}
	h := db.Health()
	if h.State != StateDegraded || h.Err == nil {
		t.Fatalf("Health = %+v, want degraded with a cause", h)
	}
	if v, ok, err := db.ReadCommitted(1); err != nil || !ok || string(v) != "durable" {
		t.Fatalf("ReadCommitted in degraded mode = %q/%v/%v", v, ok, err)
	}
	if _, err := db.Begin(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Begin in degraded mode = %v, want ErrDegraded", err)
	}
	if err := t2.Abort(); err != nil {
		t.Fatalf("Abort in degraded mode = %v, want success", err)
	}

	// Heal the device and restart.
	store.SetFailAllSyncs(false)
	if _, err := store.CrashNow(); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	if h := db.Health(); h.State != StateHealthy {
		t.Fatalf("Health after restart = %v, want healthy", h.State)
	}
	if v, ok, err := db.ReadCommitted(1); err != nil || !ok || string(v) != "durable" {
		t.Fatalf("ReadCommitted after restart = %q/%v/%v", v, ok, err)
	}
	if _, ok, err := db.ReadCommitted(2); err != nil || ok {
		t.Fatalf("unacknowledged commit survived: ok=%v err=%v", ok, err)
	}
}

// TestFaultDirExcludesDir pins the Options contract: a directory-backed
// database opens its own log directory, so combining Dir with FaultDir
// is rejected rather than silently ignoring one of them.
func TestFaultDirExcludesDir(t *testing.T) {
	store := fault.NewDir(fault.Plan{})
	if _, err := Open(Options{Dir: t.TempDir(), FaultDir: store}); err == nil {
		t.Fatal("Open accepted Dir together with FaultDir")
	}
}

// gatedDir is a wal.Dir whose device syncs, once armed, each announce
// themselves on entered and then park until the gate is opened — holding
// an early-lock-release commit in its pre-durable window for as long as
// a test needs.  What the sync then does is the wrapped fault.Dir's call.
type gatedDir struct {
	*fault.Dir
	mu      sync.Mutex
	armed   bool
	gate    chan struct{}
	entered chan struct{}
}

func (d *gatedDir) Open(name string) (wal.Store, error) {
	dev, err := d.Dir.Open(name)
	if err != nil {
		return nil, err
	}
	return &gatedDev{Store: dev, dir: d}, nil
}

type gatedDev struct {
	wal.Store
	dir *gatedDir
}

func (s *gatedDev) Sync() error {
	s.dir.mu.Lock()
	armed := s.dir.armed
	s.dir.mu.Unlock()
	if armed {
		select {
		case s.dir.entered <- struct{}{}:
		default:
		}
		<-s.dir.gate
	}
	return s.Store.Sync()
}

// TestCommitAbortedContract drives ErrCommitAborted through the public
// API.  H commits with early lock release and its flush is held at the
// device; D overwrites H's pre-durable data and commits behind it; V
// overwrites D's and stays active; W parks in Update behind V.  Then the
// device dies.  Both committers must get ErrCommitAborted, V goes down
// with them, W's Update must return rather than hang, Abort stays
// available, and a restart on a healed device shows none of the writes.
func TestCommitAbortedContract(t *testing.T) {
	store := fault.NewDir(fault.Plan{})
	dir := &gatedDir{Dir: store, gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	db, err := Open(Options{EarlyLockRelease: true, FaultDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	begin := func() *Tx {
		t.Helper()
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}
	base := begin()
	if err := base.Update(1, []byte("base")); err != nil {
		t.Fatal(err)
	}
	if err := base.Commit(); err != nil {
		t.Fatal(err)
	}

	h, d, v, w := begin(), begin(), begin(), begin()
	if err := h.Update(1, []byte("h")); err != nil {
		t.Fatal(err)
	}
	dir.mu.Lock()
	dir.armed = true
	dir.mu.Unlock()
	hDone := make(chan error, 1)
	go func() { hDone <- h.Commit() }()
	<-dir.entered // H's locks are released, its commit record is not durable

	if err := d.Update(1, []byte("d")); err != nil {
		t.Fatal(err)
	}
	dDone := make(chan error, 1)
	go func() { dDone <- d.Commit() }()
	// V's update is granted only once D's commit has released object 1,
	// which happens under the same latch hold that queues D's flush wait.
	if err := v.Update(1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	wDone := make(chan error, 1)
	go func() { wDone <- w.Update(1, []byte("w")) }()
	for db.Metrics().Gauge("lock.waiters") != 1 {
		runtime.Gosched()
	}

	store.SetFailAllSyncs(true)
	close(dir.gate)
	if err := <-hDone; !errors.Is(err, ErrCommitAborted) {
		t.Fatalf("failed committer: Commit = %v, want ErrCommitAborted", err)
	}
	if err := <-dDone; !errors.Is(err, ErrCommitAborted) {
		t.Fatalf("dependent committer: Commit = %v, want ErrCommitAborted", err)
	}
	if !h.Done() || !d.Done() {
		t.Fatal("a rolled-back committer's handle is still live")
	}
	if hl := db.Health(); hl.State != StateDegraded || hl.Err == nil {
		t.Fatalf("Health = %+v, want degraded with a cause", hl)
	}
	// V was rolled back with its predecessors, which is what frees W.
	if err := <-wDone; !errors.Is(err, ErrDegraded) {
		t.Fatalf("blocked Update = %v, want ErrDegraded", err)
	}
	if _, err := v.Read(1); !errors.Is(err, ErrTxGone) {
		t.Fatalf("active dependant survived: Read = %v, want ErrTxGone", err)
	}
	if err := w.Abort(); err != nil {
		t.Fatalf("Abort in degraded mode = %v, want success", err)
	}

	store.SetFailAllSyncs(false)
	if _, err := store.CrashNow(); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	if hl := db.Health(); hl.State != StateHealthy {
		t.Fatalf("Health after restart = %v, want healthy", hl.State)
	}
	if val, ok, err := db.ReadCommitted(1); err != nil || !ok || string(val) != "base" {
		t.Fatalf("ReadCommitted after restart = %q/%v/%v, want the last acknowledged value", val, ok, err)
	}
}
