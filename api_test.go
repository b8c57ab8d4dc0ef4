package ariesrh

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
)

func openDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestAPIQuickstartFlow(t *testing.T) {
	db := openDB(t)
	worker, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := worker.Update(1, []byte("result")); err != nil {
		t.Fatal(err)
	}
	coordinator, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := worker.Delegate(coordinator, 1); err != nil {
		t.Fatal(err)
	}
	if err := worker.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := coordinator.Commit(); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.ReadCommitted(1)
	if err != nil || !ok || !bytes.Equal(v, []byte("result")) {
		t.Fatalf("v=%q ok=%v err=%v", v, ok, err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	v, _, err = db.ReadCommitted(1)
	if err != nil || !bytes.Equal(v, []byte("result")) {
		t.Fatalf("after recovery: v=%q err=%v", v, err)
	}
}

func TestAPITerminatedTxRejected(t *testing.T) {
	db := openDB(t)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !tx.Done() {
		t.Fatal("Done() false after commit")
	}
	if err := tx.Update(1, []byte("x")); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Update err = %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Commit err = %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Abort err = %v", err)
	}
	if _, err := tx.Read(1); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Read err = %v", err)
	}
	tx2, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Delegate(tx, 1); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Delegate to done tx err = %v", err)
	}
	tx2.Abort()
}

func TestAPIDelegatePrecondition(t *testing.T) {
	db := openDB(t)
	t1, _ := db.Begin()
	t2, _ := db.Begin()
	if err := t1.Delegate(t2, 42); !errors.Is(err, ErrNotResponsible) {
		t.Fatalf("err = %v", err)
	}
	t1.Abort()
	t2.Abort()
}

func TestAPIObjectsAndResponsibleFor(t *testing.T) {
	db := openDB(t)
	t1, _ := db.Begin()
	t2, _ := db.Begin()
	if err := t1.Update(5, []byte("v")); err != nil {
		t.Fatal(err)
	}
	lsn := uint64(db.Engine().Log().Head())
	objs, err := t1.Objects()
	if err != nil || len(objs) != 1 || objs[0] != 5 {
		t.Fatalf("objects = %v err = %v", objs, err)
	}
	if err := t1.Delegate(t2, 5); err != nil {
		t.Fatal(err)
	}
	owner, err := db.ResponsibleFor(lsn)
	if err != nil {
		t.Fatal(err)
	}
	if owner != t2.ID() {
		t.Fatalf("ResponsibleFor = t%d, want t%d", owner, t2.ID())
	}
	t1.Abort()
	t2.Abort()
}

func TestAPICrashRejectsWork(t *testing.T) {
	db := openDB(t)
	tx, _ := db.Begin()
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Begin(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Begin err = %v", err)
	}
	if err := tx.Update(1, []byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Update err = %v", err)
	}
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Begin(); err != nil {
		t.Fatal(err)
	}
}

func TestAPIFileBacked(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(1, []byte("persistent")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Files exist.
	for _, name := range []string{"wal.log", "pages.db", "master"} {
		if _, err := filepath.Glob(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen: committed state recovered from the files.
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	v, ok, err := db2.ReadCommitted(1)
	if err != nil || !ok || !bytes.Equal(v, []byte("persistent")) {
		t.Fatalf("reopen: v=%q ok=%v err=%v", v, ok, err)
	}
}

func TestAPIFileBackedCrashLosers(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	winner, _ := db.Begin()
	loser, _ := db.Begin()
	if err := winner.Update(1, []byte("keep")); err != nil {
		t.Fatal(err)
	}
	if err := loser.Update(2, []byte("drop")); err != nil {
		t.Fatal(err)
	}
	if err := winner.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	v, _, err := db.ReadCommitted(1)
	if err != nil || !bytes.Equal(v, []byte("keep")) {
		t.Fatalf("winner value %q err=%v", v, err)
	}
	if v, ok, _ := db.ReadCommitted(2); ok && len(v) > 0 {
		t.Fatalf("loser value survived: %q", v)
	}
	db.Close()
}

func TestAPIPermit(t *testing.T) {
	db := openDB(t)
	parent, _ := db.Begin()
	child, _ := db.Begin()
	if err := parent.Update(9, []byte("shared")); err != nil {
		t.Fatal(err)
	}
	if err := parent.Permit(child, 9); err != nil {
		t.Fatal(err)
	}
	v, err := child.Read(9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v, []byte("shared")) {
		t.Fatalf("child read %q", v)
	}
	child.Abort()
	parent.Commit()
}

func TestAPICheckpoint(t *testing.T) {
	db := openDB(t)
	tx, _ := db.Begin()
	if err := tx.Update(1, []byte("before-ckpt")); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	v, _, err := db.ReadCommitted(1)
	if err != nil || !bytes.Equal(v, []byte("before-ckpt")) {
		t.Fatalf("v=%q err=%v", v, err)
	}
	if got := db.Metrics().Counter("core.checkpoints"); got != 1 {
		t.Fatalf("core.checkpoints = %d", got)
	}
}

func TestAPIIncrementAndCounters(t *testing.T) {
	db := openDB(t)
	t1, _ := db.Begin()
	t2, _ := db.Begin()
	if v, err := t1.Increment(1, 10); err != nil || v != 10 {
		t.Fatalf("v=%d err=%v", v, err)
	}
	// Concurrent increment does not block.
	if v, err := t2.Increment(1, 5); err != nil || v != 15 {
		t.Fatalf("v=%d err=%v", v, err)
	}
	// (No ReadCounter here: a shared lock conflicts with t2's increment
	// hold, so reading while another incrementer is live would wait —
	// the intended semantics, but not useful single-threaded.)
	if err := t2.Abort(); err != nil {
		t.Fatal(err)
	}
	if v, err := t1.ReadCounter(1); err != nil || v != 10 {
		t.Fatalf("ReadCounter = %d err=%v", v, err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	v, err := db.CounterValue(1)
	if err != nil || v != 10 {
		t.Fatalf("counter = %d err=%v", v, err)
	}
}

func TestAPISavepoints(t *testing.T) {
	db := openDB(t)
	tx, _ := db.Begin()
	if err := tx.Update(1, []byte("keep")); err != nil {
		t.Fatal(err)
	}
	sp, err := tx.Savepoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(1, []byte("drop")); err != nil {
		t.Fatal(err)
	}
	if err := tx.RollbackTo(sp); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v, _, err := db.ReadCommitted(1)
	if err != nil || string(v) != "keep" {
		t.Fatalf("v=%q err=%v", v, err)
	}
}

func TestAPIMinRequiredLSNAndArchive(t *testing.T) {
	db := openDB(t)
	tx, _ := db.Begin()
	if err := tx.Update(1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	min, err := db.MinRequiredLSN()
	if err != nil {
		t.Fatal(err)
	}
	if min != 1 {
		t.Fatalf("min = %d before any checkpoint", min)
	}
}

func TestAPIParallelRecovery(t *testing.T) {
	db, err := Open(Options{ParallelRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Update(ObjectID(i), []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	loser, _ := db.Begin()
	if err := loser.Update(9, []byte("loser")); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	// The hold keeps the pipeline from flipping the database writable, so
	// the recovering-but-readable window is deterministic.
	hold := make(chan struct{})
	db.Engine().SetRecoveryHold(hold)
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	if st := db.Health().State; st != StateRecovering {
		t.Fatalf("state = %v mid-recovery, want %v", st, StateRecovering)
	}
	v, ok, err := db.ReadCommitted(3)
	if err != nil || !ok || !bytes.Equal(v, []byte{'d'}) {
		t.Fatalf("mid-recovery read: v=%q ok=%v err=%v", v, ok, err)
	}
	if _, err := db.Begin(); !errors.Is(err, ErrRecovering) {
		t.Fatalf("mid-recovery Begin: err=%v, want ErrRecovering", err)
	}
	close(hold)
	if err := db.WaitRecovered(); err != nil {
		t.Fatal(err)
	}
	if st := db.Health().State; st != StateHealthy {
		t.Fatalf("state = %v after WaitRecovered", st)
	}
	if _, _, err := db.ReadCommitted(9); err != nil {
		t.Fatal(err)
	}
	if !db.LastRecoveryTrace().Parallel {
		t.Fatal("trace does not mark the pipeline")
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(1, []byte("post")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}
