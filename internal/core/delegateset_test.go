package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ariesrh/internal/delegation"
	"ariesrh/internal/obs"
	"ariesrh/internal/txn"
	"ariesrh/internal/wal"
)

// delegateSetHistory runs, on p, a history whose delegations include
// single-object Delegates and DelegateAlls of several objects — updates,
// a counter and objects received earlier among them — and leaves winners,
// losers, a live abort and a loser with nothing left to undo.
func delegateSetHistory(t *testing.T, p *Engine) {
	t.Helper()
	t0 := mustBegin(t, p)
	for obj := wal.ObjectID(1); obj <= 13; obj++ {
		mustUpdate(t, p, t0, obj, "base")
	}
	mustCommit(t, p, t0)

	t1, t2, t3 := mustBegin(t, p), mustBegin(t, p), mustBegin(t, p)
	mustUpdate(t, p, t1, 1, "t1-1")
	mustUpdate(t, p, t1, 2, "t1-2")
	mustUpdate(t, p, t2, 4, "t2-4")
	mustUpdate(t, p, t1, 3, "t1-3")
	if _, err := p.Increment(t1, 50, 5); err != nil {
		t.Fatal(err)
	}
	mustUpdate(t, p, t3, 6, "t3-6")
	mustDelegate(t, p, t1, t2, 1)
	mustDo(t, p.DelegateAll(t1, t2)) // {2, 3, 50}
	mustUpdate(t, p, t1, 7, "t1-7")
	mustCommit(t, p, t1) // winner: 7 survives, the rest followed t2
	mustUpdate(t, p, t2, 2, "t2-2")
	mustDo(t, p.DelegateAll(t2, t3)) // {1, 2, 3, 4, 50}
	mustUpdate(t, p, t2, 8, "t2-8")

	t4, t5 := mustBegin(t, p), mustBegin(t, p)
	mustUpdate(t, p, t4, 9, "t4-9")
	mustUpdate(t, p, t4, 10, "t4-10")
	mustDo(t, p.DelegateAll(t4, t5)) // {9, 10}
	mustCommit(t, p, t5)             // 9 and 10 survive; t4 is a loser with nothing to undo

	t6, t7 := mustBegin(t, p), mustBegin(t, p)
	mustUpdate(t, p, t6, 11, "t6-11")
	mustUpdate(t, p, t7, 13, "t7-13")
	mustUpdate(t, p, t6, 12, "t6-12")
	mustDo(t, p.DelegateAll(t6, t7)) // {11, 12}
	mustCommit(t, p, t6)
	mustAbort(t, p, t7) // live abort: 11, 12 and 13 back to base
	// In flight at the crash: t2 (8), t3 (1, 2, 3, 4, 6, 50), t4.
}

// splitSets rewrites a log in the form written before delegate-set
// records existed: each set record becomes one TypeDelegate record per
// object, the first linked to the set's tor and tee chain heads and each
// later one heading both chains, as a per-object DelegateAll wrote them.
// It returns the records, renumbered from LSN 1, and the map from each
// input LSN to its output LSN (a set record maps to its last delegate
// record, which heads both chains as the set record did).
func splitSets(recs []*wal.Record) ([]*wal.Record, map[wal.LSN]wal.LSN) {
	m := map[wal.LSN]wal.LSN{wal.NilLSN: wal.NilLSN}
	var out []*wal.Record
	next := func() wal.LSN { return wal.LSN(len(out) + 1) }
	for _, rec := range recs {
		if rec.Type != wal.TypeDelegateSet {
			c := *rec
			c.LSN = next()
			c.PrevLSN, c.TorPrev, c.TeePrev = m[rec.PrevLSN], m[rec.TorPrev], m[rec.TeePrev]
			c.UndoNextLSN, c.Compensates = m[rec.UndoNextLSN], m[rec.Compensates]
			m[rec.LSN] = c.LSN
			out = append(out, &c)
			continue
		}
		torPrev, teePrev := m[rec.TorPrev], m[rec.TeePrev]
		for _, obj := range rec.Objects {
			d := &wal.Record{Type: wal.TypeDelegate, LSN: next(), TxID: rec.Tor, PrevLSN: torPrev,
				Tor: rec.Tor, Tee: rec.Tee, TorPrev: torPrev, TeePrev: teePrev, Object: obj}
			out = append(out, d)
			torPrev, teePrev = d.LSN, d.LSN
		}
		m[rec.LSN] = torPrev
	}
	return out, m
}

// obListView is a transaction-table entry after the forward pass, with
// every LSN mapped into one numbering.
type obListView struct {
	status txn.Status
	last   wal.LSN
	scopes []delegation.Scope
}

// afterForwardPass feeds recs to a follower — whose state is exactly
// recovery's after its forward pass — and returns its transaction table.
func afterForwardPass(t *testing.T, recs []*wal.Record, m map[wal.LSN]wal.LSN) map[wal.TxID]obListView {
	t.Helper()
	f, err := New(Options{Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	mustDo(t, f.FollowerApply(recs))
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[wal.TxID]obListView)
	for tx, r := range f.recs {
		v := obListView{status: r.Status, last: m[r.LastLSN]}
		for _, s := range r.obs.AllScopes() {
			s.First, s.Last = m[s.First], m[s.Last]
			v.scopes = append(v.scopes, s)
		}
		out[tx] = v
	}
	return out
}

// recovered is what restart recovery of a log produced, LSNs mapped.
type recovered struct {
	visits   []wal.LSN
	losers   uint64
	winners  uint64
	appended []string // the records recovery wrote, LSN fields mapped
	values   map[wal.ObjectID]string
	counter  int64
}

// recoverLog appends recs to a fresh engine's log, crashes it and
// recovers, recording the backward pass's visits.
func recoverLog(t *testing.T, recs []*wal.Record, m map[wal.LSN]wal.LSN, parallel bool) recovered {
	t.Helper()
	e, err := New(Options{ParallelRecovery: parallel})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		c := *rec
		if _, err := e.Log().Append(&c); err != nil {
			t.Fatal(err)
		}
		if c.LSN != rec.LSN {
			t.Fatalf("record %v landed at LSN %d", rec, c.LSN)
		}
	}
	head := e.Log().Head()
	mustDo(t, e.Log().Flush(head))
	mustDo(t, e.Crash())
	var got recovered
	e.SetEventHook(func(ev obs.Event) {
		if ev.Name == "undo.visit" {
			got.visits = append(got.visits, m[wal.LSN(ev.LSN)])
		}
	})
	mustDo(t, e.Recover())
	mustDo(t, e.WaitRecovered())
	e.SetEventHook(nil)
	tr := e.LastRecoveryTrace()
	got.losers, got.winners = tr.Losers, tr.Winners
	for lsn := head + 1; lsn <= e.Log().Head(); lsn++ {
		rec, err := e.Log().Get(lsn)
		if err != nil {
			t.Fatal(err)
		}
		// Records recovery appends name only LSNs of the input log or
		// of records recovery appended itself (identical on both sides).
		mapped := func(l wal.LSN) wal.LSN {
			if l > head {
				return l - head + 1<<32
			}
			return m[l]
		}
		got.appended = append(got.appended, fmt.Sprintf("%v t%d prev=%d obj=%d undoNext=%d comp=%d before=%q logical=%v delta=%d",
			rec.Type, rec.TxID, mapped(rec.PrevLSN), rec.Object, mapped(rec.UndoNextLSN), mapped(rec.Compensates), rec.Before, rec.Logical, rec.Delta))
	}
	got.values = make(map[wal.ObjectID]string)
	for obj := wal.ObjectID(1); obj <= 13; obj++ {
		v, _, err := e.ReadObject(obj)
		if err != nil {
			t.Fatal(err)
		}
		got.values[obj] = string(v)
	}
	if got.counter, err = e.CounterValue(50); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestDelegateSetRecoversAsPerObjectRecords runs one history and recovers
// its log twice: as written, with each DelegateAll one delegate-set
// record, and rewritten in the form logs had before — one TypeDelegate
// record per object.  The old form must still recover, and both must give
// the same Ob_Lists after the forward pass, the same losers, the same
// backward visits in the same order, the same CLRs and the same values.
func TestDelegateSetRecoversAsPerObjectRecords(t *testing.T) {
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	delegateSetHistory(t, p)
	setForm := shipAll(t, p)
	perObject, m := splitSets(setForm)
	var sets int
	for _, rec := range setForm {
		if rec.Type == wal.TypeDelegateSet {
			sets++
		}
	}
	if sets != 4 || len(perObject) != len(setForm)+(2+4+1+1) {
		t.Fatalf("history wrote %d set records over %d records, %d split: want 4 sets of 3, 5, 2 and 2 objects",
			sets, len(setForm), len(perObject))
	}
	identity := make(map[wal.LSN]wal.LSN)
	for _, rec := range perObject {
		identity[rec.LSN] = rec.LSN
	}

	if got, want := afterForwardPass(t, setForm, m), afterForwardPass(t, perObject, identity); !reflect.DeepEqual(got, want) {
		t.Errorf("forward pass over set records:\n %+v\nover per-object records:\n %+v", got, want)
	}

	for _, parallel := range []bool{false, true} {
		got, want := recoverLog(t, setForm, m, parallel), recoverLog(t, perObject, identity, parallel)
		if parallel {
			// The pipeline's undo workers run concurrently: the visit
			// order is not one sequence.
			got.visits, want.visits = nil, nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallel=%v: recovery of set records:\n %+v\nof per-object records:\n %+v", parallel, got, want)
		}
		if want.losers != 3 || want.values[1] != "base" || want.values[7] != "t1-7" || want.values[9] != "t4-9" ||
			want.values[11] != "base" || want.counter != 0 {
			t.Errorf("parallel=%v: recovered %+v", parallel, want)
		}
		if !parallel && len(want.visits) == 0 {
			t.Error("the backward pass visited nothing")
		}
	}
}

// TestDelegateAllOneRecord checks DelegateAll's record and preconditions:
// one delegate-set record naming tor's whole Ob_List, linked into both
// chains; a failed precondition appends and moves nothing; an empty
// Ob_List appends nothing; one txn.delegate event per object.
func TestDelegateAllOneRecord(t *testing.T) {
	e := newEngine(t)
	t1, t2, t3 := mustBegin(t, e), mustBegin(t, e), mustBegin(t, e)
	mustUpdate(t, e, t2, 9, "t2")
	t2Last := e.Log().Head()
	for _, obj := range []wal.ObjectID{300, 5, 70000} {
		mustUpdate(t, e, t1, obj, "t1")
	}
	t1Last := e.Log().Head()

	// Preconditions first: nothing appended, nothing moved.
	mustCommit(t, e, t3)
	for name, tee := range map[string]wal.TxID{"self": t1, "ended": t3, "unknown": 999} {
		if err := e.DelegateAll(t1, tee); err == nil {
			t.Fatalf("DelegateAll to %s tee succeeded", name)
		}
		if e.Log().Head() != t1Last {
			t.Fatalf("DelegateAll to %s tee appended a record", name)
		}
	}
	if objs, _ := e.ObjectsOf(t1); len(objs) != 3 {
		t.Fatalf("failed DelegateAll moved objects: t1 holds %v", objs)
	}

	var events []uint64
	e.SetEventHook(func(ev obs.Event) {
		if ev.Name == "txn.delegate" {
			events = append(events, ev.Object)
		}
	})
	mustDo(t, e.DelegateAll(t1, t2))
	e.SetEventHook(nil)
	rec, err := e.Log().Get(e.Log().Head())
	if err != nil {
		t.Fatal(err)
	}
	want := &wal.Record{Type: wal.TypeDelegateSet, LSN: t1Last + 1, TxID: t1, PrevLSN: t1Last,
		Tor: t1, Tee: t2, TorPrev: t1Last, TeePrev: t2Last, Objects: []wal.ObjectID{5, 300, 70000}}
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("DelegateAll wrote\n %+v\nwant\n %+v", rec, want)
	}
	if !reflect.DeepEqual(events, []uint64{5, 300, 70000}) {
		t.Fatalf("txn.delegate events for objects %v", events)
	}
	if objs, _ := e.ObjectsOf(t2); !reflect.DeepEqual(objs, []wal.ObjectID{5, 9, 300, 70000}) {
		t.Fatalf("t2 holds %v", objs)
	}

	// t1's Ob_List is empty now: nothing to delegate, nothing appended,
	// whatever the delegatee.
	head := e.Log().Head()
	mustDo(t, e.DelegateAll(t1, 999))
	if e.Log().Head() != head {
		t.Fatal("DelegateAll of an empty Ob_List appended a record")
	}
	if err := e.DelegateAll(999, t2); !errors.Is(err, ErrNoSuchTxn) {
		t.Fatalf("DelegateAll from an unknown delegator: %v", err)
	}
	mustCommit(t, e, t1)
	mustCommit(t, e, t2)
}

// TestRollbackAfterDelegateAll rolls back a delegatee to a savepoint set
// before it received a DelegateAll, once with the DelegateAll and once
// with a Delegate per object: the received updates that postdate the
// savepoint are undone, the ones before it stand, and both forms leave
// the same values and the same Op_List.
func TestRollbackAfterDelegateAll(t *testing.T) {
	run := func(all bool) (map[wal.ObjectID]string, []wal.LSN) {
		e := newEngine(t)
		tor, tee := mustBegin(t, e), mustBegin(t, e)
		mustUpdate(t, e, tor, 1, "before")
		mustUpdate(t, e, tee, 2, "tee-before")
		sp, err := e.Savepoint(tee)
		if err != nil {
			t.Fatal(err)
		}
		mustUpdate(t, e, tor, 3, "after")
		mustUpdate(t, e, tor, 4, "after")
		mustUpdate(t, e, tee, 2, "tee-after")
		if all {
			mustDo(t, e.DelegateAll(tor, tee))
		} else {
			for _, obj := range []wal.ObjectID{1, 3, 4} {
				mustDelegate(t, e, tor, tee, obj)
			}
		}
		mustDo(t, e.RollbackTo(sp))
		ops, err := e.OpList(tee)
		if err != nil {
			t.Fatal(err)
		}
		mustCommit(t, e, tee)
		mustCommit(t, e, tor)
		values := make(map[wal.ObjectID]string)
		for obj := wal.ObjectID(1); obj <= 4; obj++ {
			v, _, err := e.ReadObject(obj)
			if err != nil {
				t.Fatal(err)
			}
			values[obj] = string(v)
		}
		return values, ops
	}
	gotValues, gotOps := run(true)
	wantValues, wantOps := run(false)
	if !reflect.DeepEqual(gotValues, wantValues) || !reflect.DeepEqual(gotOps, wantOps) {
		t.Fatalf("DelegateAll then rollback: %v, ops %v; per-object Delegates: %v, ops %v", gotValues, gotOps, wantValues, wantOps)
	}
	if want := map[wal.ObjectID]string{1: "before", 2: "tee-before", 3: "", 4: ""}; !reflect.DeepEqual(gotValues, want) {
		t.Fatalf("values after rollback %v, want %v", gotValues, want)
	}
}

// TestArchiveBoundFollowsDelegateSetTeeChain: a delegatee's backward chain
// runs through a delegate-set record by its TeePrev.  Here t2's first
// record is an update whose scope t2 delegated away, so only the chain
// pins it; t2 then receives t1's later updates in a set record.  Following
// the set record's PrevLSN instead — t1's chain — would put the bound at
// t1's first update and let the archive drop t2's first record.
func TestArchiveBoundFollowsDelegateSetTeeChain(t *testing.T) {
	e := newEngine(t)
	t1, t2, t3 := mustBegin(t, e), mustBegin(t, e), mustBegin(t, e)
	mustUpdate(t, e, t2, 1, "t2")
	first := e.Log().Head()
	mustDo(t, e.DelegateAll(t2, t3))
	mustCommit(t, e, t3)
	mustUpdate(t, e, t1, 2, "t1")
	mustUpdate(t, e, t1, 3, "t1")
	mustDo(t, e.DelegateAll(t1, t2))
	mustCommit(t, e, t1)
	if rec, err := e.Log().Get(e.Log().Head() - 1); err != nil || rec.Type != wal.TypeDelegateSet || rec.Tee != t2 {
		t.Fatalf("t2's last record is %v (%v), want a delegate-set record", rec, err)
	}
	mustDo(t, e.store.FlushAll())
	mustDo(t, e.Checkpoint())
	min, err := e.MinRequiredLSN()
	if err != nil {
		t.Fatal(err)
	}
	if min != first {
		t.Fatalf("MinRequiredLSN = %d, want %d: live t%d's first record", min, first, t2)
	}
	if _, err := e.ArchiveLog(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Log().Get(first); err != nil {
		t.Fatalf("archive dropped t%d's first record: %v", t2, err)
	}
	mustDo(t, e.Log().Flush(e.Log().Head()))
	crashAndRecover(t, e) // t2 is a loser: the updates it received are undone
	wantValue(t, e, 1, "t2")
	wantValue(t, e, 2, "")
	wantValue(t, e, 3, "")
}
