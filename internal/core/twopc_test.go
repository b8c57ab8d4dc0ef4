package core

import (
	"errors"
	"testing"

	"ariesrh/internal/txn"
	"ariesrh/internal/wal"
)

// TestPrepareCommitLifecycle covers the happy path of the participant
// hooks: prepare forces the vote, the prepared transaction refuses
// ordinary operations, CommitPrepared finishes it and retains the
// decision, ReleaseGlobal drops it.
func TestPrepareCommitLifecycle(t *testing.T) {
	e, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 7, "v1")
	if err := e.Prepare(tx, 41, 0); err != nil {
		t.Fatal(err)
	}
	// Prepared transactions are frozen: no updates, no plain commit/abort.
	if err := e.Update(tx, 7, []byte("v2")); err == nil {
		t.Fatal("update on a prepared transaction succeeded")
	}
	if err := e.Commit(tx); err == nil {
		t.Fatal("plain Commit on a prepared transaction succeeded")
	}
	if err := e.Abort(tx); err == nil {
		t.Fatal("plain Abort on a prepared transaction succeeded")
	}
	if got := e.InDoubt(); len(got) != 1 || got[0].GID != 41 || got[0].Tx != tx {
		t.Fatalf("InDoubt = %+v, want one entry for t%d gid 41", got, tx)
	}
	if _, err := e.CommitPrepared(tx); err != nil {
		t.Fatal(err)
	}
	if !e.GlobalDecision(41) {
		t.Fatal("decision for gid 41 not retained after CommitPrepared")
	}
	if v, _, _ := e.ReadObject(7); string(v) != "v1" {
		t.Fatalf("object 7 = %q, want v1", v)
	}
	e.ReleaseGlobal(41)
	if e.GlobalDecision(41) {
		t.Fatal("decision survived ReleaseGlobal")
	}
	if got := e.MaxSeenGID(); got != 41 {
		t.Fatalf("MaxSeenGID = %d, want 41", got)
	}
}

// TestCoordinatorPrepareRidesDecision pins the coordinator side of the
// force rule: its prepare record is appended, not forced — nobody waits
// on it — and the decision's force makes it durable; twopc.prepare_ns
// observes only forced votes, and twopc.retained_decisions counts the
// decision until ReleaseGlobal.
func TestCoordinatorPrepareRidesDecision(t *testing.T) {
	e, err := New(Options{ShardID: 1})
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 6, "decided")
	if err := e.Prepare(tx, 12, 1); err != nil {
		t.Fatal(err)
	}
	if flushed, head := e.Log().FlushedLSN(), e.Log().Head(); flushed >= head {
		t.Fatalf("coordinator prepare forced: flushed %d, head %d", flushed, head)
	}
	m := e.Metrics()
	if got := m.Counter("twopc.prepares"); got != 1 {
		t.Fatalf("twopc.prepares = %d, want 1", got)
	}
	if got := m.Histogram("twopc.prepare_ns").Count; got != 0 {
		t.Fatalf("twopc.prepare_ns observed %d unforced prepares, want 0", got)
	}
	lsn, err := e.CommitPrepared(tx)
	if err != nil {
		t.Fatal(err)
	}
	if flushed := e.Log().FlushedLSN(); flushed < lsn {
		t.Fatalf("decision at %d not durable (flushed %d)", lsn, flushed)
	}
	if got := e.Metrics().Gauge("twopc.retained_decisions"); got != 1 {
		t.Fatalf("twopc.retained_decisions = %d, want 1", got)
	}
	e.ReleaseGlobal(12)
	if got := e.Metrics().Gauge("twopc.retained_decisions"); got != 0 {
		t.Fatalf("twopc.retained_decisions = %d after ReleaseGlobal, want 0", got)
	}

	// A participant's vote is forced and observed.
	p := mustBegin(t, e)
	mustUpdate(t, e, p, 7, "voted")
	if err := e.Prepare(p, 13, 0); err != nil {
		t.Fatal(err)
	}
	if flushed, head := e.Log().FlushedLSN(), e.Log().Head(); flushed < head {
		t.Fatalf("participant vote not forced: flushed %d, head %d", flushed, head)
	}
	if got := e.Metrics().Histogram("twopc.prepare_ns").Count; got != 1 {
		t.Fatalf("twopc.prepare_ns count = %d after one forced vote, want 1", got)
	}
}

// TestPreparedSurvivesCrashInDoubt pins the analysis contract: a durable
// prepare with no decision leaves the transaction in the table as
// Prepared after recovery — its update neither undone nor committed —
// and AbortPrepared (presumed abort) then rolls it back.
func TestPreparedSurvivesCrashInDoubt(t *testing.T) {
	e, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := mustBegin(t, e)
	mustUpdate(t, e, base, 9, "committed-base")
	if err := e.Commit(base); err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 9, "in-doubt")
	if err := e.Prepare(tx, 7, 3); err != nil {
		t.Fatal(err)
	}
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	ind := e.InDoubt()
	if len(ind) != 1 || ind[0].GID != 7 || ind[0].Coord != 3 {
		t.Fatalf("InDoubt after recovery = %+v, want one entry gid=7 coord=3", ind)
	}
	// Effects stay redone until resolution.
	if v, _, _ := e.ReadObject(9); string(v) != "in-doubt" {
		t.Fatalf("object 9 = %q before resolution, want in-doubt (redone, not undone)", v)
	}
	// The in-doubt transaction's lock was re-acquired: another
	// transaction cannot write the object (deadlock error expected since
	// nothing will ever release it on this single-engine test).
	// Resolution by presumed abort rolls it back.
	if err := e.ResolveInDoubt(ind[0].Tx, false); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := e.ReadObject(9); string(v) != "committed-base" {
		t.Fatalf("object 9 = %q after presumed abort, want committed-base", v)
	}
	if len(e.InDoubt()) != 0 {
		t.Fatal("in-doubt entry survived resolution")
	}
}

// TestDecisionSurvivesCrash pins the coordinator side: prepare + commit
// on the same local transaction is the decision, and recovery rebuilds
// the retained decision from the forward pass — and from checkpoint
// state when the records are behind a checkpoint.  The engine is opened
// as shard 1 and the prepare names shard 1 as coordinator, so retention
// applies.
func TestDecisionSurvivesCrash(t *testing.T) {
	for _, withCkpt := range []bool{false, true} {
		e, err := New(Options{ShardID: 1})
		if err != nil {
			t.Fatal(err)
		}
		tx := mustBegin(t, e)
		mustUpdate(t, e, tx, 4, "decided")
		if err := e.Prepare(tx, 99, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := e.CommitPrepared(tx); err != nil {
			t.Fatal(err)
		}
		if withCkpt {
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Crash(); err != nil {
			t.Fatal(err)
		}
		if err := e.Recover(); err != nil {
			t.Fatal(err)
		}
		if !e.GlobalDecision(99) {
			t.Fatalf("withCkpt=%v: commit decision for gid 99 lost across crash", withCkpt)
		}
		if got := e.MaxSeenGID(); got != 99 {
			t.Fatalf("withCkpt=%v: MaxSeenGID = %d, want 99", withCkpt, got)
		}
	}
}

// TestParticipantCommitRetainsNoDecision pins the participant side of
// phase 2: committing a prepared branch whose coordinator is ANOTHER
// shard must not retain a decision — only the coordinator's log answers
// decision queries, and a participant entry would pin this shard's
// archive forever (one leaked entry per cross-shard commit).  The commit
// is not forced: a crash before its record is durable brings the branch
// back in doubt, and resolution commits it again.  Recovery's rebuild
// from the durable prepare+commit pair retains nothing either.
func TestParticipantCommitRetainsNoDecision(t *testing.T) {
	e, err := New(Options{}) // shard 0
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 3, "phase2")
	if err := e.Prepare(tx, 8, 2); err != nil { // coordinated elsewhere
		t.Fatal(err)
	}
	lsn, err := e.CommitPrepared(tx)
	if err != nil {
		t.Fatal(err)
	}
	if flushed := e.Log().FlushedLSN(); flushed >= lsn {
		t.Fatalf("participant commit record %d forced (flushed through %d)", lsn, flushed)
	}
	if e.GlobalDecision(8) {
		t.Fatal("participant retained a decision for gid 8")
	}
	if v, _, _ := e.ReadObject(3); string(v) != "phase2" {
		t.Fatalf("object 3 = %q, want phase2", v)
	}
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	ind := e.InDoubt()
	if len(ind) != 1 || ind[0].GID != 8 || ind[0].Coord != 2 {
		t.Fatalf("InDoubt after losing the unforced commit = %+v, want gid 8 coordinated by 2", ind)
	}
	if err := e.ResolveInDoubt(ind[0].Tx, true); err != nil {
		t.Fatal(err)
	}
	if err := e.Log().Flush(e.Log().Head()); err != nil {
		t.Fatal(err)
	}
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	if e.GlobalDecision(8) {
		t.Fatal("recovery rebuilt a participant-side decision for gid 8")
	}
	if len(e.InDoubt()) != 0 {
		t.Fatal("durably committed participant branch came back in doubt")
	}
	if v, _, _ := e.ReadObject(3); string(v) != "phase2" {
		t.Fatalf("object 3 = %q after recovery, want phase2", v)
	}
}

// TestArchiveClampedBelowUnreleasedDecision is the presumed-abort edge
// regression (satellite 2): while a commit decision is retained, Archive
// must not reclaim the prepare record that binds its gid — an in-doubt
// peer recovering after the archive would otherwise presume abort on a
// committed transaction.  ReleaseGlobal lifts the pin.
func TestArchiveClampedBelowUnreleasedDecision(t *testing.T) {
	e, err := New(Options{LogSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 2, "pinned")
	if err := e.Prepare(tx, 5, 0); err != nil {
		t.Fatal(err)
	}
	prepLSN := e.Log().Head() // prepare is the last record appended
	if _, err := e.CommitPrepared(tx); err != nil {
		t.Fatal(err)
	}
	// Pile on unrelated committed work so there is something to archive.
	for i := 0; i < 40; i++ {
		w := mustBegin(t, e)
		mustUpdate(t, e, w, wal.ObjectID(100+i), "filler")
		if err := e.Commit(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.FlushPages(); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	min, err := e.MinRequiredLSN()
	if err != nil {
		t.Fatal(err)
	}
	if min > prepLSN {
		t.Fatalf("MinRequiredLSN = %d, want <= prepare LSN %d while the decision is retained", min, prepLSN)
	}
	if _, err := e.ArchiveLog(); err != nil {
		t.Fatal(err)
	}
	if base := e.Log().Base(); base >= prepLSN {
		t.Fatalf("archive base %d reached prepare LSN %d despite the decision pin", base, prepLSN)
	}
	// The decision must still be re-derivable after a crash right here.
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	if !e.GlobalDecision(5) {
		t.Fatal("decision for gid 5 lost after archive + crash")
	}
	// Releasing the decision unpins; the next archive may pass it.
	e.ReleaseGlobal(5)
	if err := e.FlushPages(); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	min2, err := e.MinRequiredLSN()
	if err != nil {
		t.Fatal(err)
	}
	if min2 <= prepLSN {
		t.Fatalf("MinRequiredLSN = %d still pinned at prepare LSN %d after ReleaseGlobal", min2, prepLSN)
	}
}

// TestInDoubtRelockBlocksWriters verifies that recovery re-acquires an
// in-doubt transaction's object locks: a new transaction trying to write
// the object must not be granted the lock (it deadlocks against a holder
// that never releases until resolution).  The prepare is coordinated by
// another shard, so it is a forced vote that survives the crash.
func TestInDoubtRelockBlocksWriters(t *testing.T) {
	e, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 11, "held")
	if err := e.Prepare(tx, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	intruder := mustBegin(t, e)
	done := make(chan error, 1)
	go func() { done <- e.Update(intruder, 11, []byte("stolen")) }()
	// Resolve the in-doubt holder as committed: the lock is then
	// released and the blocked intruder proceeds.
	ind := e.InDoubt()
	if len(ind) != 1 {
		t.Fatalf("InDoubt = %+v, want 1", ind)
	}
	if err := e.ResolveInDoubt(ind[0].Tx, true); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil && !errors.Is(err, ErrNoSuchTxn) {
		t.Fatalf("intruder update after resolution: %v", err)
	}
}

// TestPreparedStatusString pins the new status rendering.
func TestPreparedStatusString(t *testing.T) {
	if got := txn.Prepared.String(); got != "prepared" {
		t.Fatalf("txn.Prepared.String() = %q", got)
	}
}
