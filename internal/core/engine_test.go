package core

import (
	"bytes"
	"errors"
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
		t.Fatalf("update t%d obj %d: %v", tx, obj, err)
	}
}

func mustDelegate(t *testing.T, e *Engine, tor, tee wal.TxID, obj wal.ObjectID) {
	t.Helper()
	if err := e.Delegate(tor, tee, obj); err != nil {
		t.Fatalf("delegate(t%d, t%d, %d): %v", tor, tee, obj, err)
	}
}

func mustCommit(t *testing.T, e *Engine, tx wal.TxID) {
	t.Helper()
	if err := e.Commit(tx); err != nil {
		t.Fatalf("commit t%d: %v", tx, err)
	}
}

func mustAbort(t *testing.T, e *Engine, tx wal.TxID) {
	t.Helper()
	if err := e.Abort(tx); err != nil {
		t.Fatalf("abort t%d: %v", tx, err)
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
			t.Fatalf("object %d = %q, want absent/empty", obj, v)
		}
		return
	}
	if !ok || !bytes.Equal(v, []byte(want)) {
		t.Fatalf("object %d = %q (ok=%v), want %q", obj, v, ok, want)
	}
}

func TestCommitMakesUpdatesVisible(t *testing.T) {
	e := newEngine(t)
	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 1, "hello")
	mustCommit(t, e, tx)
	wantValue(t, e, 1, "hello")
}

func TestAbortRestoresBeforeImages(t *testing.T) {
	e := newEngine(t)
	setup := mustBegin(t, e)
	mustUpdate(t, e, setup, 1, "base")
	mustCommit(t, e, setup)

	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 1, "dirty")
	mustUpdate(t, e, tx, 2, "new")
	mustAbort(t, e, tx)
	wantValue(t, e, 1, "base")
	wantValue(t, e, 2, "")
	if got := e.Metrics().Counter("core.clrs"); got != 2 {
		t.Fatalf("core.clrs = %d, want 2", got)
	}
}

func TestAbortUndoesInReverseOrder(t *testing.T) {
	e := newEngine(t)
	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 1, "v1")
	mustUpdate(t, e, tx, 1, "v2")
	mustUpdate(t, e, tx, 1, "v3")
	mustAbort(t, e, tx)
	wantValue(t, e, 1, "")
}

// TestFigure2Interpretation replays the log of §3.1 Example 1 / Figure 2
// and checks that ARIES/RH achieves the "after rewriting" picture by
// interpretation: the log records still carry t1's transaction ID, but
// ResponsibleTr for t1's updates to a is t2.
func TestFigure2Interpretation(t *testing.T) {
	e := newEngine(t)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	const a, b, x, y = 100, 101, 102, 103
	// update appends one record and returns its LSN, read off the log.
	update := func(tx wal.TxID, obj wal.ObjectID, val string) wal.LSN {
		mustUpdate(t, e, tx, obj, val)
		return e.Log().Head()
	}
	a1 := update(t1, a, "1") // update[t1, a]
	update(t2, x, "2")       // update[t2, x]
	// t2 updates a: needs t1's X lock... in the paper's example the
	// updates commute; here t1 delegates nothing yet, so have t1 release
	// by delegating a to t2 later.  Use distinct objects to keep the
	// figure's shape: t2's update of a happens after t1's delegation in
	// lock terms, so this test exercises the scope bookkeeping on b/y
	// and the delegated object a.
	b1 := update(t1, b, "3")      // update[t1, b]
	a2 := update(t1, a, "4")      // update[t1, a]
	update(t2, y, "5")            // update[t2, y]
	mustDelegate(t, e, t1, t2, a) // delegate(t1 -> t2, a)

	// The log itself is NOT rewritten: t1's updates of a still carry t1.
	for _, lsn := range []wal.LSN{a1, a2} {
		rec, err := e.Log().Get(lsn)
		if err != nil {
			t.Fatal(err)
		}
		if rec.TxID != t1 {
			t.Fatalf("record %d physically rewritten to t%d", lsn, rec.TxID)
		}
	}
	// But the interpretation says t2 is responsible for them now...
	for _, lsn := range []wal.LSN{a1, a2} {
		owner, err := e.ResponsibleFor(lsn)
		if err != nil {
			t.Fatal(err)
		}
		if owner != t2 {
			t.Fatalf("ResponsibleTr(record %d) = t%d, want t%d", lsn, owner, t2)
		}
	}
	// ...while t1 keeps responsibility for its update of b.
	owner, err := e.ResponsibleFor(b1)
	if err != nil {
		t.Fatal(err)
	}
	if owner != t1 {
		t.Fatalf("ResponsibleTr(record %d) = t%d, want t%d", b1, owner, t1)
	}
}

// TestPaperExample2 runs §3.4 Example 2 end to end: t updates ob,
// delegates to t1, updates ob again, delegates to t2; then t2 aborts and
// t1 commits.  The first update must persist, the second must be undone —
// "regardless of t's fate".
func TestPaperExample2(t *testing.T) {
	for _, tFate := range []string{"commit", "abort", "active"} {
		t.Run("t_"+tFate, func(t *testing.T) {
			e := newEngine(t)
			tt := mustBegin(t, e)
			t1 := mustBegin(t, e)
			t2 := mustBegin(t, e)
			const ob = 7
			mustUpdate(t, e, tt, ob, "first")
			mustDelegate(t, e, tt, t1, ob)
			mustUpdate(t, e, tt, ob, "second")
			mustDelegate(t, e, tt, t2, ob)
			switch tFate {
			case "commit":
				mustCommit(t, e, tt)
			case "abort":
				mustAbort(t, e, tt)
			}
			mustAbort(t, e, t2) // second update undone → back to "first"
			wantValue(t, e, ob, "first")
			mustCommit(t, e, t1) // first update committed
			wantValue(t, e, ob, "first")
		})
	}
}

func TestDelegatorAbortDoesNotUndoDelegated(t *testing.T) {
	e := newEngine(t)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "delegated")
	mustUpdate(t, e, t1, 2, "kept")
	mustDelegate(t, e, t1, t2, 1)
	mustAbort(t, e, t1)
	// Object 1's update survives t1's abort — t2 is responsible now.
	wantValue(t, e, 1, "delegated")
	wantValue(t, e, 2, "")
	mustCommit(t, e, t2)
	wantValue(t, e, 1, "delegated")
}

func TestDelegateeAbortUndoesReceivedUpdates(t *testing.T) {
	e := newEngine(t)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "doomed")
	mustDelegate(t, e, t1, t2, 1)
	mustCommit(t, e, t1) // invoker commits...
	mustAbort(t, e, t2)  // ...but the responsible transaction aborts
	wantValue(t, e, 1, "")
}

func TestDelegationChain(t *testing.T) {
	// t0 → t1 → t2: the final delegatee decides the fate.
	e := newEngine(t)
	t0 := mustBegin(t, e)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	mustUpdate(t, e, t0, 5, "chained")
	mustDelegate(t, e, t0, t1, 5)
	mustDelegate(t, e, t1, t2, 5)
	mustAbort(t, e, t0)
	mustAbort(t, e, t1)
	wantValue(t, e, 5, "chained")
	mustCommit(t, e, t2)
	wantValue(t, e, 5, "chained")
}

func TestDelegationChainLoserEnd(t *testing.T) {
	e := newEngine(t)
	t0 := mustBegin(t, e)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	mustUpdate(t, e, t0, 5, "doomed")
	mustDelegate(t, e, t0, t1, 5)
	mustDelegate(t, e, t1, t2, 5)
	mustCommit(t, e, t0)
	mustCommit(t, e, t1)
	mustAbort(t, e, t2)
	wantValue(t, e, 5, "")
}

func TestDelegatePreconditions(t *testing.T) {
	e := newEngine(t)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	// t1 has no updates on 9: ill-formed.
	if err := e.Delegate(t1, t2, 9); !errors.Is(err, ErrNotResponsible) {
		t.Fatalf("err = %v, want ErrNotResponsible", err)
	}
	// Unknown transactions.
	mustUpdate(t, e, t1, 9, "v")
	if err := e.Delegate(t1, 999, 9); !errors.Is(err, ErrNoSuchTxn) {
		t.Fatalf("err = %v, want ErrNoSuchTxn", err)
	}
	if err := e.Delegate(999, t2, 9); !errors.Is(err, ErrNoSuchTxn) {
		t.Fatalf("err = %v, want ErrNoSuchTxn", err)
	}
	// Terminated delegatee.
	mustCommit(t, e, t2)
	if err := e.Delegate(t1, t2, 9); !errors.Is(err, ErrNoSuchTxn) {
		t.Fatalf("err = %v, want ErrNoSuchTxn", err)
	}
	// After delegating away, t1 is no longer responsible.
	t3 := mustBegin(t, e)
	mustDelegate(t, e, t1, t3, 9)
	if err := e.Delegate(t1, t3, 9); !errors.Is(err, ErrNotResponsible) {
		t.Fatalf("re-delegation err = %v, want ErrNotResponsible", err)
	}
}

func TestUpdateAfterDelegationSharedAccess(t *testing.T) {
	// §2.1.2: a transaction can keep operating on an object it has
	// delegated (Example 2 depends on it).  The delegator retains its
	// hold, the delegatee co-holds, and third parties stay excluded
	// until every holder terminates.
	e := newEngine(t)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	t3 := mustBegin(t, e)
	mustUpdate(t, e, t1, 3, "first")
	mustDelegate(t, e, t1, t2, 3)
	// The delegator proceeds without blocking.
	mustUpdate(t, e, t1, 3, "second")
	// A third transaction blocks until both holders are done.
	done := make(chan error, 1)
	go func() { done <- e.Update(t3, 3, []byte("intruder")) }()
	select {
	case err := <-done:
		t.Fatalf("third party acquired a co-held lock (err=%v)", err)
	default:
	}
	mustCommit(t, e, t1) // t1's hold released; t2 still holds
	select {
	case err := <-done:
		t.Fatalf("third party acquired while delegatee held (err=%v)", err)
	default:
	}
	mustCommit(t, e, t2)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	mustCommit(t, e, t3)
	wantValue(t, e, 3, "intruder")
}

func TestDelegateAll(t *testing.T) {
	e := newEngine(t)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	for obj := wal.ObjectID(1); obj <= 5; obj++ {
		mustUpdate(t, e, t1, obj, "v")
	}
	if err := e.DelegateAll(t1, t2); err != nil {
		t.Fatal(err)
	}
	mustAbort(t, e, t1)
	mustCommit(t, e, t2)
	for obj := wal.ObjectID(1); obj <= 5; obj++ {
		wantValue(t, e, obj, "v")
	}
}

func TestOpList(t *testing.T) {
	e := newEngine(t)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "a")
	l1 := e.Log().Head()
	mustUpdate(t, e, t1, 2, "b")
	l2 := e.Log().Head()
	mustUpdate(t, e, t2, 3, "c")
	l3 := e.Log().Head()
	mustDelegate(t, e, t1, t2, 1)
	ops, err := e.OpList(t2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 || ops[0] != l1 || ops[1] != l3 {
		t.Fatalf("OpList(t2) = %v, want [%d %d]", ops, l1, l3)
	}
	ops1, err := e.OpList(t1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops1) != 1 || ops1[0] != l2 {
		t.Fatalf("OpList(t1) = %v, want [%d]", ops1, l2)
	}
}

// TestBackwardChains checks the Figure 4/6 structure: the delegate record
// carries pointers to the previous records of both delegator and delegatee.
func TestBackwardChains(t *testing.T) {
	e := newEngine(t)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	mustUpdate(t, e, t1, 7, "a")
	u1 := e.Log().Head()
	mustUpdate(t, e, t2, 8, "b")
	u2 := e.Log().Head()
	mustDelegate(t, e, t1, t2, 7)
	d := e.Log().Head()
	rec, err := e.Log().Get(d)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Type != wal.TypeDelegate || rec.Tor != t1 || rec.Tee != t2 {
		t.Fatalf("delegate record = %+v", rec)
	}
	if rec.TorPrev != u1 {
		t.Fatalf("torBC = %d, want %d (t1's previous record)", rec.TorPrev, u1)
	}
	if rec.TeePrev != u2 {
		t.Fatalf("teeBC = %d, want %d (t2's previous record)", rec.TeePrev, u2)
	}
	// A subsequent update by t1 chains to the delegate record.
	t3 := mustBegin(t, e) // keeps lock simple: update different object
	_ = t3
	mustUpdate(t, e, t1, 9, "c")
	next, err := e.Log().Get(e.Log().Head())
	if err != nil {
		t.Fatal(err)
	}
	if next.PrevLSN != d {
		t.Fatalf("t1's chain head after delegate = %d, want %d", next.PrevLSN, d)
	}
}

func TestReadSeesCommittedAndOwnWrites(t *testing.T) {
	e := newEngine(t)
	t1 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "mine")
	v, err := e.Read(t1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "mine" {
		t.Fatalf("own read = %q", v)
	}
	mustCommit(t, e, t1)
	t2 := mustBegin(t, e)
	v, err = e.Read(t2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "mine" {
		t.Fatalf("committed read = %q", v)
	}
	mustCommit(t, e, t2)
}

func TestOperationsOnTerminatedTxnFail(t *testing.T) {
	e := newEngine(t)
	tx := mustBegin(t, e)
	mustCommit(t, e, tx)
	if err := e.Update(tx, 1, []byte("x")); !errors.Is(err, ErrNoSuchTxn) {
		t.Fatalf("update err = %v", err)
	}
	if err := e.Commit(tx); !errors.Is(err, ErrNoSuchTxn) {
		t.Fatalf("commit err = %v", err)
	}
	if err := e.Abort(tx); !errors.Is(err, ErrNoSuchTxn) {
		t.Fatalf("abort err = %v", err)
	}
}
