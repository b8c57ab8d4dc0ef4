package core

import (
	"fmt"
	"testing"

	"ariesrh/internal/wal"
)

// TestOpListSingleBoundedScan is the regression test for the OpList
// rewrite: the old implementation did a latched log.Get per LSN per
// scope, so k interleaved scopes spanning a shared range cost ~k× the
// range in log reads — and a scope above an archived prefix still worked
// only by luck of iteration order.  The new implementation is one bounded
// Scan with a per-record filter: wide interleaved scopes after ArchiveLog
// must produce the exact Op_List with ~one read per position in the
// union of the scope ranges.
func TestOpListSingleBoundedScan(t *testing.T) {
	e := newEngine(t)

	// Committed, flushed, checkpointed prefix so ArchiveLog reclaims it.
	for i := 0; i < 20; i++ {
		tx := mustBegin(t, e)
		mustUpdate(t, e, tx, wal.ObjectID(1000+i), fmt.Sprintf("old%d", i))
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
		t.Fatal("nothing archived; the test needs a non-trivial log base")
	}

	// Two live transactions with wide interleaved scopes above the
	// archived base: t1 round-robins over four objects (four overlapping
	// scopes spanning nearly the whole live range) with t2's updates
	// interleaved between every one of them.
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	var want1, want2 []wal.LSN
	const rounds, objs = 10, 4
	for i := 0; i < rounds; i++ {
		for k := 0; k < objs; k++ {
			mustUpdate(t, e, t1, wal.ObjectID(1+k), fmt.Sprintf("t1-%d-%d", i, k))
			want1 = append(want1, e.Log().Head())
			mustUpdate(t, e, t2, wal.ObjectID(50+k), fmt.Sprintf("t2-%d-%d", i, k))
			want2 = append(want2, e.Log().Head())
		}
	}

	readsBefore := e.Metrics().Counter("wal.reads")
	ops, err := e.OpList(t1)
	if err != nil {
		t.Fatalf("OpList(t1): %v", err)
	}
	readsDelta := e.Metrics().Counter("wal.reads") - readsBefore

	if len(ops) != len(want1) {
		t.Fatalf("OpList(t1) has %d entries, want %d", len(ops), len(want1))
	}
	for i := range ops {
		if ops[i] != want1[i] {
			t.Fatalf("OpList(t1)[%d] = %d, want %d (ascending update LSNs)", i, ops[i], want1[i])
		}
	}

	// One bounded scan: the read count is the span of the union of t1's
	// scopes, not objs× it.  t1's scopes run from its first update to its
	// last, with t2's records in between.
	span := uint64(want1[len(want1)-1] - want1[0] + 1)
	if readsDelta > span+2 {
		t.Fatalf("OpList(t1) performed %d log reads over a %d-position span; per-scope rescans (old behavior would be ~%d)",
			readsDelta, span, uint64(objs)*span)
	}

	ops2, err := e.OpList(t2)
	if err != nil {
		t.Fatalf("OpList(t2): %v", err)
	}
	if len(ops2) != len(want2) {
		t.Fatalf("OpList(t2) has %d entries, want %d", len(ops2), len(want2))
	}

	// Delegation moves the scopes but not the arithmetic: after t1
	// delegates one object away, its Op_List shrinks by that object's
	// updates and the delegatee's grows by them.
	mustDelegate(t, e, t1, t2, 1)
	ops, err = e.OpList(t1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != (objs-1)*rounds {
		t.Fatalf("OpList(t1) after delegating object 1 has %d entries, want %d", len(ops), (objs-1)*rounds)
	}
	ops2, err = e.OpList(t2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops2) != (objs+1)*rounds {
		t.Fatalf("OpList(t2) after receiving object 1 has %d entries, want %d", len(ops2), (objs+1)*rounds)
	}
	mustAbort(t, e, t2)
	mustCommit(t, e, t1)
}
