package ariesrh

import (
	"errors"
	"net"
	"path/filepath"
	"testing"
	"time"
)

func waitStandby(t *testing.T, s *Standby, target uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.ReplayedLSN() < target {
		if time.Now().After(deadline) {
			t.Fatalf("standby stuck at %d, want %d", s.ReplayedLSN(), target)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStandbyBootstrapFollowPromote drives the full operator sequence
// through the public API: attach the replica feed, take the bootstrap
// backup, restore it as a standby, stream the tail, read at the replayed
// LSN, then promote after "losing" the primary.
func TestStandbyBootstrapFollowPromote(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	// Pre-backup history: a committed value and a delegation whose
	// delegatee commits.
	t1, _ := db.Begin()
	t2, _ := db.Begin()
	if err := t1.Update(1, []byte("pre-backup")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Delegate(t2, 1); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}

	// Attach BEFORE the backup so the retention pin covers the gap
	// between backup and first connect.
	feed, err := db.AttachReplica()
	if err != nil {
		t.Fatal(err)
	}
	backupDir := filepath.Join(t.TempDir(), "standby")
	if err := db.Backup(backupDir); err != nil {
		t.Fatal(err)
	}

	// Post-backup, pre-connect history — only the stream can deliver it.
	t3, _ := db.Begin()
	if err := t3.Update(2, []byte("post-backup")); err != nil {
		t.Fatal(err)
	}
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}

	sb, err := OpenStandby(StandbyOptions{Dir: backupDir})
	if err != nil {
		t.Fatal(err)
	}
	if h := sb.Health(); h.State != StateFollower {
		t.Fatalf("standby state = %v", h.State)
	}
	// Catch-up over the restored log already happened at open.
	if v, ok, _, err := sb.Read(1); err != nil || !ok || string(v) != "pre-backup" {
		t.Fatalf("restored read = %q, %v, %v", v, ok, err)
	}

	c1, c2 := net.Pipe()
	serveDone := make(chan error, 1)
	followDone := make(chan error, 1)
	go func() { serveDone <- feed.Serve(c1) }()
	go func() { followDone <- sb.Follow(c2) }()

	// An in-flight transaction streams too; its fate is undecided.
	loser, _ := db.Begin()
	if err := loser.Update(3, []byte("in-flight")); err != nil {
		t.Fatal(err)
	}
	if err := db.Engine().Log().Flush(db.Engine().Log().Head()); err != nil {
		t.Fatal(err)
	}
	target := uint64(db.Engine().Log().FlushedLSN())
	waitStandby(t, sb, target)

	if v, ok, at, err := sb.Read(2); err != nil || !ok || string(v) != "post-backup" || at < target {
		t.Fatalf("streamed read = %q, %v, at %d, %v", v, ok, at, err)
	}
	h := sb.Health()
	if h.ReplayedLSN != target || h.LagRecords != 0 {
		t.Fatalf("health = %+v, want replayed %d", h, target)
	}
	// The primary's metrics report the replication lag series.
	deadline := time.Now().Add(5 * time.Second)
	for feed.AckedLSN() < target {
		if time.Now().After(deadline) {
			t.Fatalf("acks stuck at %d, want %d", feed.AckedLSN(), target)
		}
		time.Sleep(time.Millisecond)
	}
	snap := db.Metrics()
	if snap.Counter("repl.shipped_records") == 0 || snap.Counter("repl.shipped_bytes") == 0 {
		t.Fatalf("shipped counters missing: %d records, %d bytes",
			snap.Counter("repl.shipped_records"), snap.Counter("repl.shipped_bytes"))
	}
	if lag := snap.Gauge("repl.lag_records"); lag != 0 {
		t.Fatalf("lag_records = %d after full catch-up", lag)
	}

	// "Lose" the primary: sever the stream and promote the standby.
	c2.Close()
	<-serveDone
	<-followDone
	promoted, err := sb.Promote()
	if err != nil {
		t.Fatal(err)
	}
	// Winners survive, the in-flight loser is rolled back.
	if v, ok, err := promoted.ReadCommitted(1); err != nil || !ok || string(v) != "pre-backup" {
		t.Fatalf("promoted obj1 = %q, %v, %v", v, ok, err)
	}
	if v, ok, err := promoted.ReadCommitted(2); err != nil || !ok || string(v) != "post-backup" {
		t.Fatalf("promoted obj2 = %q, %v, %v", v, ok, err)
	}
	if _, ok, _ := promoted.ReadCommitted(3); ok {
		t.Fatal("in-flight transaction survived promotion")
	}
	// The promoted DB accepts writes and is file-backed (Backup works).
	tx, err := promoted.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(4, []byte("new-epoch")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := promoted.Backup(filepath.Join(t.TempDir(), "gen2")); err != nil {
		t.Fatalf("promoted Backup = %v", err)
	}
	if err := promoted.Close(); err != nil {
		t.Fatal(err)
	}
	feed.Detach()
	db.Close()
}

func TestStandbyRejectsWrites(t *testing.T) {
	sb, err := OpenStandby()
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	if _, err := sb.Engine().Begin(); !errors.Is(err, ErrFollower) {
		t.Fatalf("Begin on standby = %v, want ErrFollower", err)
	}
}

func TestStandbySnapshotNeededSurfaces(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	if err := tx.Update(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	log := db.Engine().Log()
	if err := log.Flush(log.Head()); err != nil {
		t.Fatal(err)
	}
	if err := log.Archive(log.FlushedLSN()); err != nil {
		t.Fatal(err)
	}
	feed, err := db.AttachReplica()
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Detach()
	sb, err := OpenStandby()
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	c1, c2 := net.Pipe()
	go feed.Serve(c1)
	if err := sb.Follow(c2); !errors.Is(err, ErrSnapshotNeeded) {
		t.Fatalf("Follow = %v, want ErrSnapshotNeeded", err)
	}
}

func TestStandbyParallelPromote(t *testing.T) {
	// An empty-stream standby promoted through the pipeline: Promote
	// returns with the sweep in flight (trivially short here) and the
	// promoted DB accepts writes after WaitRecovered.
	s, err := OpenStandby(StandbyOptions{ParallelRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	db, err := s.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.WaitRecovered(); err != nil {
		t.Fatal(err)
	}
	if st := db.Health().State; st != StateHealthy {
		t.Fatalf("state = %v after promotion", st)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(1, []byte("post-promotion")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
