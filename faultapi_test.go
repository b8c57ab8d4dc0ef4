package ariesrh

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"ariesrh/internal/fault"
	"ariesrh/internal/wal"
)

// TestFaultDirOptionAndHealth drives the degraded-mode lifecycle
// through the public API: a fault.Dir injected via Options.FaultDir
// kills the device, the commit fails in doubt (its handle is done),
// Health reports degraded, reads keep working, and a restart with a
// healed device repairs it.
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
	if err := t2.Abort(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Abort after an in-doubt commit = %v, want ErrTxDone", err)
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
// a commit's force at the device for as long as a test needs.  What the
// sync then does is the wrapped fault.Dir's call.
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

// TestInDoubtContract drives ErrInDoubt through the public API, with and
// without early lock release.  H commits and its force is held at the
// device; D commits behind it — under early lock release after
// overwriting H's pre-durable data, after which V overwrites D's and W
// parks in Update behind V.  Then the device dies.  Both committers get
// ErrInDoubt and their handles are done, the database degrades, and
// nothing is rolled back: V stays live and its Abort succeeds, which
// hands object 1 to W, whose Update returns ErrDegraded.  From there the
// log decides.  When the device heals only after V's abort force failed,
// nothing carries the two commit records and a restart shows object 1 at
// "base"; when it heals first, V's abort force carries the tail and a
// restart keeps D's write and H's.
func TestInDoubtContract(t *testing.T) {
	for _, elr := range []bool{false, true} {
		for _, carried := range []bool{false, true} {
			t.Run(fmt.Sprintf("elr=%v/carried=%v", elr, carried), func(t *testing.T) {
				testInDoubtContract(t, elr, carried)
			})
		}
	}
}

func testInDoubtContract(t *testing.T, elr, carried bool) {
	store := fault.NewDir(fault.Plan{})
	dir := &gatedDir{Dir: store, gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	db, err := Open(Options{EarlyLockRelease: elr, FaultDir: dir})
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
	update := func(tx *Tx, obj ObjectID, val string) {
		t.Helper()
		if err := tx.Update(obj, []byte(val)); err != nil {
			t.Fatal(err)
		}
	}
	base := begin()
	update(base, 1, "base")
	if err := base.Commit(); err != nil {
		t.Fatal(err)
	}

	// H writes objects 1 and 2.  D writes object 1 under early lock
	// release, violating H's released lock, and its own object 3
	// otherwise; without early lock release V cannot follow D onto
	// object 1, so it writes object 4 up front.
	h, d, v, w := begin(), begin(), begin(), begin()
	update(h, 1, "h")
	update(h, 2, "h2")
	dObj := ObjectID(3)
	if elr {
		dObj = 1
	} else {
		update(v, 4, "v")
	}
	dir.mu.Lock()
	dir.armed = true
	dir.mu.Unlock()
	hDone := make(chan error, 1)
	go func() { hDone <- h.Commit() }()
	<-dir.entered // H's commit record is appended, its force held
	queued := db.Metrics().Counter("wal.flush_waiters")

	update(d, dObj, "d")
	dDone := make(chan error, 1)
	go func() { dDone <- d.Commit() }()
	wDone := make(chan error, 1)
	if elr {
		// V's update is granted only once D's commit has released object
		// 1, which happens under the same latch hold that queues D's
		// flush wait.
		update(v, 1, "v")
		go func() { wDone <- w.Update(1, []byte("w")) }()
		for db.Metrics().Gauge("lock.waiters") != 1 {
			runtime.Gosched()
		}
	} else {
		for db.Metrics().Counter("wal.flush_waiters") == queued {
			runtime.Gosched()
		}
	}

	store.SetFailAllSyncs(true)
	close(dir.gate)
	if err := <-hDone; !errors.Is(err, ErrInDoubt) {
		t.Fatalf("failed committer: Commit = %v, want ErrInDoubt", err)
	}
	if err := <-dDone; !errors.Is(err, ErrInDoubt) {
		t.Fatalf("committer behind it: Commit = %v, want ErrInDoubt", err)
	}
	if !h.Done() || !d.Done() {
		t.Fatal("an in-doubt committer's handle is still live")
	}
	if err := h.Abort(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Abort after ErrInDoubt = %v, want ErrTxDone", err)
	}
	if hl := db.Health(); hl.State != StateDegraded || hl.Err == nil {
		t.Fatalf("Health = %+v, want degraded with a cause", hl)
	}

	if carried {
		store.SetFailAllSyncs(false)
	}
	// V was not rolled back with its predecessors: it is live, and its
	// abort is what frees W.
	if err := v.Abort(); err != nil {
		t.Fatalf("Abort of the live dependant = %v, want success", err)
	}
	if elr {
		if err := <-wDone; !errors.Is(err, ErrDegraded) {
			t.Fatalf("blocked Update = %v, want ErrDegraded", err)
		}
		if err := w.Abort(); err != nil {
			t.Fatalf("Abort in degraded mode = %v, want success", err)
		}
	}
	if !carried {
		store.SetFailAllSyncs(false)
	}

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
	want := map[ObjectID]string{1: "base", 2: "", 3: "", 4: ""}
	if carried {
		want[1], want[2] = "h", "h2"
		if elr {
			want[1] = "d"
		} else {
			want[3] = "d"
		}
	}
	for obj, val := range want {
		if got, _, err := db.ReadCommitted(obj); err != nil || string(got) != val {
			t.Errorf("object %d after restart = %q (%v), want %q", obj, got, err, val)
		}
	}
}
