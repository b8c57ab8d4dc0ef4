package rewrite

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ariesrh/internal/wal"
)

func newEng(t *testing.T, mode Mode) *Engine {
	t.Helper()
	e, err := New(Options{Mode: mode, PoolSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func begin(t *testing.T, e *Engine) wal.TxID {
	t.Helper()
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func update(t *testing.T, e *Engine, tx wal.TxID, obj wal.ObjectID, val string) {
	t.Helper()
	if err := e.Update(tx, obj, []byte(val)); err != nil {
		t.Fatalf("update: %v", err)
	}
}

func wantVal(t *testing.T, e *Engine, obj wal.ObjectID, want string) {
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

func crashRecover(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
}

// TestFigure1EagerRewrite replays §3.1 Example 1 / Figure 2 through the
// eager engine and asserts the log is physically rewritten exactly as the
// figure's "after rewriting" row: t1's updates to a now carry t2, t1's
// update to b does not.
func TestFigure1EagerRewrite(t *testing.T) {
	e := newEng(t, Eager)
	t1 := begin(t, e) // LSN 1
	t2 := begin(t, e) // LSN 2
	const a, b, x, y = 100, 101, 102, 103
	update(t, e, t1, a, "1")                      // LSN 3
	update(t, e, t2, x, "2")                      // LSN 4
	update(t, e, t1, b, "3")                      // LSN 5
	update(t, e, t1, a, "4")                      // LSN 6
	update(t, e, t2, y, "5")                      // LSN 7
	if err := e.Delegate(t1, t2, a); err != nil { // LSN 8
		t.Fatal(err)
	}
	for _, c := range []struct {
		lsn  wal.LSN
		want wal.TxID
	}{{3, t2}, {4, t2}, {5, t1}, {6, t2}, {7, t2}} {
		rec, err := e.Log().Get(c.lsn)
		if err != nil {
			t.Fatal(err)
		}
		if rec.TxID != c.want {
			t.Fatalf("record %d carries t%d, want t%d", c.lsn, rec.TxID, c.want)
		}
	}
	s := e.Stats()
	if s.Rewrites != 2 {
		t.Fatalf("rewrites = %d, want 2", s.Rewrites)
	}
	if s.DelegateSweepReads == 0 {
		t.Fatal("eager sweep read no records")
	}
}

func TestLazyDoesNotTouchLogDuringNormalProcessing(t *testing.T) {
	e := newEng(t, Lazy)
	t1 := begin(t, e)
	t2 := begin(t, e)
	update(t, e, t1, 1, "v")
	if err := e.Delegate(t1, t2, 1); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Rewrites != 0 {
		t.Fatal("lazy mode rewrote during normal processing")
	}
	rec, err := e.Log().Get(3)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TxID != t1 {
		t.Fatalf("record rewritten eagerly in lazy mode")
	}
}

func TestLazyRewritesDuringRecovery(t *testing.T) {
	e := newEng(t, Lazy)
	t1 := begin(t, e)
	t2 := begin(t, e)
	update(t, e, t1, 1, "delegated") // LSN 3
	if err := e.Delegate(t1, t2, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(t2); err != nil {
		t.Fatal(err)
	}
	e.Log().Flush(e.Log().Head())
	crashRecover(t, e)
	// Recovery rewrote the update to carry the (loser) delegatee... t2
	// committed, so the record now carries t2 and the value survives.
	rec, err := e.Log().Get(3)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TxID != t2 {
		t.Fatalf("record 3 carries t%d after lazy recovery, want t%d", rec.TxID, t2)
	}
	if e.Stats().RecRewrites == 0 {
		t.Fatal("lazy recovery performed no rewrites")
	}
	wantVal(t, e, 1, "delegated")
}

func perMode(t *testing.T, f func(t *testing.T, mode Mode)) {
	for _, mode := range []Mode{Eager, Lazy} {
		t.Run(mode.String(), func(t *testing.T) { f(t, mode) })
	}
}

func TestDelegationSemanticsMatchRH(t *testing.T) {
	// Functionally, both naïve engines realize the same delegation
	// semantics as ARIES/RH — at higher cost.
	perMode(t, func(t *testing.T, mode Mode) {
		e := newEng(t, mode)
		t1 := begin(t, e)
		t2 := begin(t, e)
		update(t, e, t1, 1, "delegated")
		update(t, e, t1, 2, "own")
		if err := e.Delegate(t1, t2, 1); err != nil {
			t.Fatal(err)
		}
		if err := e.Abort(t1); err != nil {
			t.Fatal(err)
		}
		wantVal(t, e, 1, "delegated")
		wantVal(t, e, 2, "")
		if err := e.Commit(t2); err != nil {
			t.Fatal(err)
		}
		wantVal(t, e, 1, "delegated")
	})
}

func TestRecoveryDelegationWinnerLoser(t *testing.T) {
	perMode(t, func(t *testing.T, mode Mode) {
		e := newEng(t, mode)
		t1 := begin(t, e)
		t2 := begin(t, e)
		update(t, e, t1, 1, "keep") // delegated to the winner t2
		update(t, e, t1, 2, "drop") // stays with the loser t1
		if err := e.Delegate(t1, t2, 1); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(t2); err != nil {
			t.Fatal(err)
		}
		e.Log().Flush(e.Log().Head())
		crashRecover(t, e)
		wantVal(t, e, 1, "keep")
		wantVal(t, e, 2, "")
	})
}

func TestRecoveryChain(t *testing.T) {
	perMode(t, func(t *testing.T, mode Mode) {
		e := newEng(t, mode)
		t0 := begin(t, e)
		t1 := begin(t, e)
		t2 := begin(t, e)
		update(t, e, t0, 5, "chained")
		if err := e.Delegate(t0, t1, 5); err != nil {
			t.Fatal(err)
		}
		if err := e.Delegate(t1, t2, 5); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(t2); err != nil {
			t.Fatal(err)
		}
		e.Log().Flush(e.Log().Head())
		crashRecover(t, e)
		wantVal(t, e, 5, "chained")
	})
}

func TestEagerSweepCostGrowsWithLog(t *testing.T) {
	// The eager sweep examines every record back to the delegator's
	// begin — padding the log with unrelated traffic makes one delegation
	// proportionally more expensive.  This is the E4 effect.
	costAt := func(padding int) uint64 {
		e, err := New(Options{Mode: Eager, PoolSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		t1, _ := e.Begin()
		if err := e.Update(t1, 1, []byte("v")); err != nil {
			t.Fatal(err)
		}
		filler, _ := e.Begin()
		for i := 0; i < padding; i++ {
			if err := e.Update(filler, wal.ObjectID(1000+i), []byte("pad")); err != nil {
				t.Fatal(err)
			}
		}
		t2, _ := e.Begin()
		if err := e.Delegate(t1, t2, 1); err != nil {
			t.Fatal(err)
		}
		return e.Stats().DelegateSweepReads
	}
	small := costAt(10)
	large := costAt(1000)
	if large < small*10 {
		t.Fatalf("sweep cost did not grow with log length: %d vs %d", small, large)
	}
}

func TestRewritePersistsAcrossCrash(t *testing.T) {
	// An eager rewrite of already-stable records must hit the device, or
	// recovery would mis-attribute the update.
	e := newEng(t, Eager)
	t1 := begin(t, e)
	t2 := begin(t, e)
	update(t, e, t1, 1, "v")
	e.Log().Flush(e.Log().Head())
	if err := e.Delegate(t1, t2, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(t2); err != nil {
		t.Fatal(err)
	}
	e.Log().Flush(e.Log().Head())
	if e.Stats().StableRewrites == 0 {
		t.Fatal("stable rewrite did not patch the device")
	}
	crashRecover(t, e)
	wantVal(t, e, 1, "v")
}

func TestDelegatePreconditions(t *testing.T) {
	perMode(t, func(t *testing.T, mode Mode) {
		e := newEng(t, mode)
		t1 := begin(t, e)
		t2 := begin(t, e)
		if err := e.Delegate(t1, t2, 9); !errors.Is(err, ErrNotResponsible) {
			t.Fatalf("err = %v", err)
		}
		update(t, e, t1, 9, "v")
		if err := e.Delegate(t1, 99, 9); !errors.Is(err, ErrNoSuchTxn) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestManyDelegationsRecovery(t *testing.T) {
	perMode(t, func(t *testing.T, mode Mode) {
		e := newEng(t, mode)
		var winners []wal.TxID
		for i := 0; i < 10; i++ {
			src := begin(t, e)
			dst := begin(t, e)
			obj := wal.ObjectID(i + 1)
			update(t, e, src, obj, fmt.Sprintf("v%d", i))
			if err := e.Delegate(src, dst, obj); err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				if err := e.Commit(dst); err != nil {
					t.Fatal(err)
				}
				winners = append(winners, dst)
			}
			// src stays active: loser.
		}
		e.Log().Flush(e.Log().Head())
		crashRecover(t, e)
		for i := 0; i < 10; i++ {
			obj := wal.ObjectID(i + 1)
			if i%2 == 0 {
				wantVal(t, e, obj, fmt.Sprintf("v%d", i))
			} else {
				wantVal(t, e, obj, "")
			}
		}
		_ = winners
	})
}

// TestLogRewriteStableVersusVolatile pins the baseline log's cost model: a
// rewrite of a durable record is a random stable write and survives a
// crash; a rewrite in the volatile tail costs no I/O and is lost with the
// tail.
func TestLogRewriteStableVersusVolatile(t *testing.T) {
	l := &Log{}
	l.Append(&wal.Record{Type: wal.TypeUpdate, TxID: 1, Object: 7})
	l.Flush(1)
	l.Append(&wal.Record{Type: wal.TypeUpdate, TxID: 1, Object: 8})
	for lsn := wal.LSN(1); lsn <= 2; lsn++ {
		if err := l.Rewrite(lsn, func(r *wal.Record) { r.TxID = 9 }); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rewrite(3, func(*wal.Record) {}); !errors.Is(err, wal.ErrNoSuchLSN) {
		t.Fatalf("rewrite past the head: err = %v, want ErrNoSuchLSN", err)
	}
	if got := l.Stats().StableRewrites; got != 1 {
		t.Fatalf("stable rewrites = %d, want 1 (only LSN 1 was durable)", got)
	}
	if r, err := l.Get(2); err != nil || r.TxID != 9 {
		t.Fatalf("volatile rewrite not visible before the crash: %+v, %v", r, err)
	}
	l.Crash()
	if l.Head() != 1 {
		t.Fatalf("head after crash = %d, want 1", l.Head())
	}
	if r, err := l.Get(1); err != nil || r.TxID != 9 {
		t.Fatalf("stable rewrite lost by the crash: %+v, %v", r, err)
	}
	// The tail is re-appended from scratch: the lost rewrite does not
	// reappear and was never counted.
	if lsn := l.Append(&wal.Record{Type: wal.TypeUpdate, TxID: 1, Object: 8}); lsn != 2 {
		t.Fatalf("append after crash got LSN %d, want 2", lsn)
	}
	if r, _ := l.Get(2); r.TxID != 1 {
		t.Fatalf("volatile rewrite survived the crash: %+v", r)
	}
	if got := l.Stats(); got.StableRewrites != 1 || got.Appends != 3 {
		t.Fatalf("stats = %+v, want 1 stable rewrite, 3 appends", got)
	}
}

// TestDelegateSetRecordRejected: the rewriting baselines never read a log
// the ARIES/RH engine wrote, and delegate one object at a time, so a
// delegate-set record in their log is corruption, not something to
// interpret.  Recovery refuses it in both modes.
func TestDelegateSetRecordRejected(t *testing.T) {
	for _, mode := range []Mode{Eager, Lazy} {
		e := newEng(t, mode)
		t1 := begin(t, e)
		t2 := begin(t, e)
		update(t, e, t1, 1, "x")
		e.Log().Append(&wal.Record{Type: wal.TypeDelegateSet, TxID: t1, Tor: t1, Tee: t2, Objects: []wal.ObjectID{1}})
		e.Log().Flush(e.Log().Head())
		if err := e.Crash(); err != nil {
			t.Fatal(err)
		}
		if err := e.Recover(); err == nil {
			t.Fatalf("mode %v: recovery accepted a delegate-set record", mode)
		}
	}
}
