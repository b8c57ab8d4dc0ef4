package aries

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ariesrh/internal/wal"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(Options{PoolSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mustBegin(t *testing.T, e *Engine) wal.TxID {
	t.Helper()
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func mustUpdate(t *testing.T, e *Engine, tx wal.TxID, obj wal.ObjectID, val string) {
	t.Helper()
	if err := e.Update(tx, obj, []byte(val)); err != nil {
		t.Fatalf("update: %v", err)
	}
}

func wantValue(t *testing.T, e *Engine, obj wal.ObjectID, want string) {
	t.Helper()
	v, ok, err := e.ReadObject(obj)
	if err != nil {
		t.Fatal(err)
	}
	if want == "" {
		if ok && len(v) > 0 {
			t.Fatalf("object %d = %q, want empty", obj, v)
		}
		return
	}
	if !ok || !bytes.Equal(v, []byte(want)) {
		t.Fatalf("object %d = %q (ok=%v), want %q", obj, v, ok, want)
	}
}

func crashAndRecover(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
}

func TestCommitAbortBasics(t *testing.T) {
	e := newEngine(t)
	t1 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "one")
	if err := e.Commit(t1); err != nil {
		t.Fatal(err)
	}
	wantValue(t, e, 1, "one")
	t2 := mustBegin(t, e)
	mustUpdate(t, e, t2, 1, "two")
	mustUpdate(t, e, t2, 2, "junk")
	if err := e.Abort(t2); err != nil {
		t.Fatal(err)
	}
	wantValue(t, e, 1, "one")
	wantValue(t, e, 2, "")
}

func TestAbortFollowsBackwardChain(t *testing.T) {
	e := newEngine(t)
	t1 := mustBegin(t, e)
	for i := 0; i < 10; i++ {
		mustUpdate(t, e, t1, wal.ObjectID(i%3+1), fmt.Sprintf("v%d", i))
	}
	if err := e.Abort(t1); err != nil {
		t.Fatal(err)
	}
	for obj := wal.ObjectID(1); obj <= 3; obj++ {
		wantValue(t, e, obj, "")
	}
	if e.Stats().CLRs != 10 {
		t.Fatalf("CLRs = %d, want 10", e.Stats().CLRs)
	}
}

func TestRecoveryWinnersAndLosers(t *testing.T) {
	e := newEngine(t)
	w := mustBegin(t, e)
	l := mustBegin(t, e)
	mustUpdate(t, e, w, 1, "keep")
	mustUpdate(t, e, l, 2, "drop")
	if err := e.Commit(w); err != nil {
		t.Fatal(err)
	}
	if err := e.Log().Flush(e.Log().Head()); err != nil {
		t.Fatal(err)
	}
	crashAndRecover(t, e)
	wantValue(t, e, 1, "keep")
	wantValue(t, e, 2, "")
	s := e.Stats()
	if s.RecWinners != 1 || s.RecLosers != 1 {
		t.Fatalf("winners=%d losers=%d", s.RecWinners, s.RecLosers)
	}
}

func TestRecoveryWithCheckpoint(t *testing.T) {
	e := newEngine(t)
	w := mustBegin(t, e)
	mustUpdate(t, e, w, 1, "pre-ckpt")
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustUpdate(t, e, w, 2, "post-ckpt")
	if err := e.Commit(w); err != nil {
		t.Fatal(err)
	}
	l := mustBegin(t, e)
	mustUpdate(t, e, l, 3, "junk")
	if err := e.Log().Flush(e.Log().Head()); err != nil {
		t.Fatal(err)
	}
	crashAndRecover(t, e)
	wantValue(t, e, 1, "pre-ckpt")
	wantValue(t, e, 2, "post-ckpt")
	wantValue(t, e, 3, "")
}

func TestRecoveryLoserSpanningCheckpoint(t *testing.T) {
	e := newEngine(t)
	l := mustBegin(t, e)
	mustUpdate(t, e, l, 1, "junk")
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustUpdate(t, e, l, 2, "more-junk")
	if err := e.Log().Flush(e.Log().Head()); err != nil {
		t.Fatal(err)
	}
	crashAndRecover(t, e)
	wantValue(t, e, 1, "")
	wantValue(t, e, 2, "")
}

// TestRecoveryLoserLoggedOnlyBeforeCheckpoint: the checkpoint's
// transaction table carries the loser's UndoNextLSN, the head of its
// backward chain, so a loser with no record after the checkpoint is
// still rolled back.  A transaction that never logged is not in that
// table and gets no records at all.
func TestRecoveryLoserLoggedOnlyBeforeCheckpoint(t *testing.T) {
	e := newEngine(t)
	idle := mustBegin(t, e)
	l := mustBegin(t, e)
	mustUpdate(t, e, l, 1, "junk")
	mustUpdate(t, e, l, 2, "more-junk")
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	crashAndRecover(t, e)
	wantValue(t, e, 1, "")
	wantValue(t, e, 2, "")
	if s := e.Stats(); s.RecLosers != 1 {
		t.Fatalf("losers = %d, want 1", s.RecLosers)
	}
	for lsn := wal.LSN(1); lsn <= e.Log().Head(); lsn++ {
		if rec, err := e.Log().Get(lsn); err != nil {
			t.Fatal(err)
		} else if rec.TxID == idle {
			t.Fatalf("never-logged t%d got a %v record at %d", idle, rec.Type, lsn)
		}
	}
}

func TestRecoveryRepeatedCrashes(t *testing.T) {
	e := newEngine(t)
	setup := mustBegin(t, e)
	mustUpdate(t, e, setup, 1, "base")
	if err := e.Commit(setup); err != nil {
		t.Fatal(err)
	}
	l := mustBegin(t, e)
	mustUpdate(t, e, l, 1, "junk")
	if err := e.Log().Flush(e.Log().Head()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		crashAndRecover(t, e)
	}
	wantValue(t, e, 1, "base")
}

func TestAbortedBeforeCrashIdempotent(t *testing.T) {
	e := newEngine(t)
	setup := mustBegin(t, e)
	mustUpdate(t, e, setup, 1, "base")
	if err := e.Commit(setup); err != nil {
		t.Fatal(err)
	}
	l := mustBegin(t, e)
	mustUpdate(t, e, l, 1, "junk")
	if err := e.Abort(l); err != nil {
		t.Fatal(err)
	}
	crashAndRecover(t, e)
	wantValue(t, e, 1, "base")
}

func TestDelegateRecordRejected(t *testing.T) {
	// A conventional ARIES log must never contain delegate records of
	// either form — it never reads a log the ARIES/RH engine wrote — so
	// the engine reports corruption rather than silently misinterpreting.
	for _, rec := range []*wal.Record{
		{Type: wal.TypeDelegate, Tee: 99, Object: 1},
		{Type: wal.TypeDelegateSet, Tee: 99, Objects: []wal.ObjectID{1, 2}},
	} {
		e := newEngine(t)
		t1 := mustBegin(t, e)
		mustUpdate(t, e, t1, 1, "x")
		rec.TxID, rec.Tor = t1, t1
		if _, err := e.Log().Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := e.Log().Flush(e.Log().Head()); err != nil {
			t.Fatal(err)
		}
		if err := e.Crash(); err != nil {
			t.Fatal(err)
		}
		if err := e.Recover(); err == nil {
			t.Fatalf("recovery accepted a %v record", rec.Type)
		}
	}
}

func TestOperationsAfterCrashRejected(t *testing.T) {
	e := newEngine(t)
	tx := mustBegin(t, e)
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Begin(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v", err)
	}
	if err := e.Update(tx, 1, []byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v", err)
	}
}

func TestBackwardPassMonotone(t *testing.T) {
	// Interleaved losers: the undo pass must still read the log in
	// decreasing order; we verify via the wal random-read counter.
	e := newEngine(t)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	for i := 0; i < 20; i++ {
		mustUpdate(t, e, t1, wal.ObjectID(i+1), "a")
		mustUpdate(t, e, t2, wal.ObjectID(i+100), "b")
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
	for i := 0; i < 20; i++ {
		wantValue(t, e, wal.ObjectID(i+1), "")
		wantValue(t, e, wal.ObjectID(i+100), "")
	}
	if got := e.Stats().RecBackwardVisited; got != 40 { // the 40 updates; Begin logs nothing
		t.Fatalf("backward visited %d records", got)
	}
}

func TestSavepointPartialRollback(t *testing.T) {
	e := newEngine(t)
	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 1, "keep")
	sp, err := e.Savepoint(tx)
	if err != nil {
		t.Fatal(err)
	}
	mustUpdate(t, e, tx, 1, "drop")
	mustUpdate(t, e, tx, 2, "drop-too")
	if err := e.RollbackTo(sp); err != nil {
		t.Fatal(err)
	}
	wantValue(t, e, 1, "keep")
	wantValue(t, e, 2, "")
	mustUpdate(t, e, tx, 3, "after")
	if err := e.Commit(tx); err != nil {
		t.Fatal(err)
	}
	wantValue(t, e, 1, "keep")
	wantValue(t, e, 3, "after")
}

func TestSavepointThenFullAbortNoDoubleUndo(t *testing.T) {
	e := newEngine(t)
	setup := mustBegin(t, e)
	mustUpdate(t, e, setup, 1, "base")
	if err := e.Commit(setup); err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 1, "v1")
	sp, _ := e.Savepoint(tx)
	mustUpdate(t, e, tx, 1, "v2")
	if err := e.RollbackTo(sp); err != nil {
		t.Fatal(err)
	}
	wantValue(t, e, 1, "v1")
	mustUpdate(t, e, tx, 1, "v3")
	if err := e.Abort(tx); err != nil {
		t.Fatal(err)
	}
	// UndoNextLSN in the CLRs must have steered the abort past the
	// already-compensated region: final value is the committed base.
	wantValue(t, e, 1, "base")
}

func TestSavepointCrashLosesIt(t *testing.T) {
	e := newEngine(t)
	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 1, "junk")
	sp, _ := e.Savepoint(tx)
	_ = sp
	if err := e.Log().Flush(e.Log().Head()); err != nil {
		t.Fatal(err)
	}
	crashAndRecover(t, e)
	wantValue(t, e, 1, "")
}
