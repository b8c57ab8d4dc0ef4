package core

import (
	"errors"
	"fmt"
	"testing"

	"ariesrh/internal/wal"
)

func TestArchiveLogReclaimsAndRecoveryStillWorks(t *testing.T) {
	e := newEngine(t)
	for i := 0; i < 50; i++ {
		tx := mustBegin(t, e)
		mustUpdate(t, e, tx, wal.ObjectID(i+1), fmt.Sprintf("v%d", i))
		mustCommit(t, e, tx)
	}
	if err := e.store.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	base, err := e.ArchiveLog()
	if err != nil {
		t.Fatal(err)
	}
	if base == wal.NilLSN {
		t.Fatal("nothing archived despite a clean checkpoint")
	}
	// Archived records are gone...
	if _, err := e.Log().Get(1); !errors.Is(err, wal.ErrArchived) {
		t.Fatalf("Get(1) err = %v", err)
	}
	// ...but work continues and recovery still functions.
	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 999, "post-archive")
	mustCommit(t, e, tx)
	loser := mustBegin(t, e)
	mustUpdate(t, e, loser, 998, "junk")
	if err := e.Log().Flush(e.Log().Head()); err != nil {
		t.Fatal(err)
	}
	crashAndRecover(t, e)
	wantValue(t, e, 999, "post-archive")
	wantValue(t, e, 998, "")
	for i := 0; i < 50; i++ {
		wantValue(t, e, wal.ObjectID(i+1), fmt.Sprintf("v%d", i))
	}
}

func TestArchiveLogBlockedByDelegatedScope(t *testing.T) {
	e := newEngine(t)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "pinned")
	pinned := e.Log().Head()
	mustDelegate(t, e, t1, t2, 1)
	mustCommit(t, e, t1)
	if err := e.store.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Pad.
	for i := 0; i < 30; i++ {
		w := mustBegin(t, e)
		mustUpdate(t, e, w, wal.ObjectID(100+i), "pad")
		mustCommit(t, e, w)
	}
	base, err := e.ArchiveLog()
	if err != nil {
		t.Fatal(err)
	}
	if base >= pinned {
		t.Fatalf("archived through %d despite t2's live scope at LSN %d", base, pinned)
	}
	// The pinned record is still readable and the update recoverable.
	if _, err := e.Log().Get(pinned); err != nil {
		t.Fatal(err)
	}
	if err := e.Log().Flush(e.Log().Head()); err != nil {
		t.Fatal(err)
	}
	crashAndRecover(t, e) // t2 is a loser: the pinned update is undone
	wantValue(t, e, 1, "")
}

func TestArchiveLogAfterDelegateeCommits(t *testing.T) {
	e := newEngine(t)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "pinned")
	mustDelegate(t, e, t1, t2, 1)
	mustCommit(t, e, t1)
	mustCommit(t, e, t2) // the pin is released
	if err := e.store.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	base, err := e.ArchiveLog()
	if err != nil {
		t.Fatal(err)
	}
	if base < 3 {
		t.Fatalf("base = %d; expected the old records reclaimed", base)
	}
	wantValue(t, e, 1, "pinned")
}

// TestArchiveBoundPinsFirstRecordOfLiveChain: a live transaction's chain
// is kept back to its first record even where no scope of its own covers
// that record.  Begin logs nothing, so the first record is its first
// update — here one whose scope was delegated away and committed — and
// the walk must stop there rather than run off the chain's end and drop
// the pin.
func TestArchiveBoundPinsFirstRecordOfLiveChain(t *testing.T) {
	e := newEngine(t)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "delegated")
	first := e.Log().Head()
	mustDelegate(t, e, t1, t2, 1)
	mustCommit(t, e, t2)
	if err := e.store.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	min, err := e.MinRequiredLSN()
	if err != nil {
		t.Fatal(err)
	}
	if min != first {
		t.Fatalf("MinRequiredLSN = %d, want %d: live t%d's first record", min, first, t1)
	}
	mustAbort(t, e, t1)
}
