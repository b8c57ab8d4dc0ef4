package delegation

import (
	"reflect"
	"testing"

	"ariesrh/internal/wal"
)

func TestRecordUpdateOpensAndExtendsScopes(t *testing.T) {
	ol := NewObList()
	ol.RecordUpdate(1, 7, 100)
	e := ol.Entry(7)
	if e == nil || len(e.Scopes()) != 1 {
		t.Fatalf("entry = %+v", e)
	}
	want := Scope{Object: 7, Invoker: 1, First: 100, Last: 100}
	if e.Scopes()[0] != want {
		t.Fatalf("scope = %v, want %v", e.Scopes()[0], want)
	}
	ol.RecordUpdate(1, 7, 104)
	if got := e.Scopes()[0]; got.Last != 104 || got.First != 100 {
		t.Fatalf("extended scope = %v", got)
	}
}

func TestDelegateToMovesScopes(t *testing.T) {
	t1, t2 := NewObList(), NewObList()
	t1.RecordUpdate(1, 7, 100)
	t1.RecordUpdate(1, 7, 104)
	if ok := t1.DelegateTo(t2, 1, 7); !ok {
		t.Fatal("well-formed delegation rejected")
	}
	if t1.Has(7) {
		t.Fatal("delegator kept the object")
	}
	e := t2.Entry(7)
	if e == nil || e.Deleg != 1 {
		t.Fatalf("delegatee entry = %+v", e)
	}
	if sc := e.Scopes(); len(sc) != 1 || sc[0] != (Scope{Object: 7, Invoker: 1, First: 100, Last: 104}) {
		t.Fatalf("scopes = %v", sc)
	}
	// Ill-formed: t1 no longer responsible.
	if ok := t1.DelegateTo(t2, 1, 7); ok {
		t.Fatal("ill-formed delegation accepted")
	}
}

func TestDelegateToUnionsWithOwnScope(t *testing.T) {
	// t2 already updated 7 itself, then receives t1's updates on 7: the
	// union keeps both scopes (different invokers; §3.5 remark).
	t1, t2 := NewObList(), NewObList()
	t1.RecordUpdate(1, 7, 100)
	t2.RecordUpdate(2, 7, 102)
	t1.DelegateTo(t2, 1, 7)
	e := t2.Entry(7)
	if sc := e.Scopes(); len(sc) != 2 {
		t.Fatalf("scopes = %v", sc)
	}
	inv := map[wal.TxID]Scope{}
	for _, s := range e.Scopes() {
		if _, dup := inv[s.Invoker]; dup {
			t.Fatalf("two scopes share invoker t%d", s.Invoker)
		}
		inv[s.Invoker] = s
	}
}

func TestDelegateToKeepsSameInvokerScopesDisjoint(t *testing.T) {
	// t1's two disjoint scopes on the same object reunite in one list:
	// they must stay SEPARATE ranges.  Merging them into [100, 105]
	// would swallow position 103 — an update t1 delegated to someone
	// else entirely.
	a, b, c := NewObList(), NewObList(), NewObList()
	a.RecordUpdate(1, 7, 100) // scope (t1, 100, 100)
	a.DelegateTo(b, 1, 7)
	a.RecordUpdate(1, 7, 103) // scope (t1, 103, 103), stays with a third party
	third := NewObList()
	a.DelegateTo(third, 1, 7)
	a.RecordUpdate(1, 7, 105) // scope (t1, 105, 105)
	a.DelegateTo(c, 1, 7)
	// b and c both delegate to a common destination.
	dst := NewObList()
	b.DelegateTo(dst, 10, 7)
	c.DelegateTo(dst, 11, 7)
	sc := dst.Entry(7).Scopes()
	if len(sc) != 2 {
		t.Fatalf("scopes = %v, want two disjoint scopes", sc)
	}
	for _, s := range sc {
		if s.Contains(103) {
			t.Fatalf("scope %v covers the third party's update at 103", s)
		}
	}
}

func TestPaperExample2Scopes(t *testing.T) {
	// §3.4 Example 2: t updates ob, delegates to t1, updates ob again,
	// delegates to t2.  t1 and t2 must end up with disjoint scopes so
	// that t1's commit preserves the first update while t2's abort
	// undoes the second.
	lt, lt1, lt2 := NewObList(), NewObList(), NewObList()
	const ob = 9
	lt.RecordUpdate(5, ob, 200) // update[t, ob]
	lt.DelegateTo(lt1, 5, ob)   // delegate(t, t1, ob)
	lt.RecordUpdate(5, ob, 202) // update[t, ob]
	lt.DelegateTo(lt2, 5, ob)   // delegate(t, t2, ob)
	s1 := lt1.Entry(ob).Scopes()
	s2 := lt2.Entry(ob).Scopes()
	if len(s1) != 1 || s1[0] != (Scope{Object: ob, Invoker: 5, First: 200, Last: 200}) {
		t.Fatalf("t1 scopes = %v", s1)
	}
	if len(s2) != 1 || s2[0] != (Scope{Object: ob, Invoker: 5, First: 202, Last: 202}) {
		t.Fatalf("t2 scopes = %v", s2)
	}
	if lt.Has(ob) {
		t.Fatal("t still responsible for ob")
	}
}

func TestUpdateAfterDelegationOpensFreshScope(t *testing.T) {
	// §2.1.2: a transaction can keep operating on an object it has
	// delegated; the new updates form a new responsibility.
	a, b := NewObList(), NewObList()
	a.RecordUpdate(1, 7, 100)
	a.DelegateTo(b, 1, 7)
	a.RecordUpdate(1, 7, 110)
	e := a.Entry(7)
	if e == nil || len(e.Scopes()) != 1 || e.Scopes()[0].First != 110 {
		t.Fatalf("fresh scope = %+v", e)
	}
}

func TestMinFirst(t *testing.T) {
	ol := NewObList()
	if ol.MinFirst() != wal.NilLSN {
		t.Fatal("empty list MinFirst")
	}
	ol.RecordUpdate(1, 7, 50)
	ol.RecordUpdate(1, 8, 30)
	ol.RecordUpdate(2, 8, 40)
	if ol.MinFirst() != 30 {
		t.Fatalf("MinFirst = %d", ol.MinFirst())
	}
}

func TestObListCloneIndependent(t *testing.T) {
	ol := NewObList()
	ol.RecordUpdate(1, 7, 10)
	c := ol.Clone()
	c.RecordUpdate(1, 7, 20)
	if ol.Entry(7).Scopes()[0].Last != 10 {
		t.Fatal("clone aliases original")
	}
}

// TestObListRemoveKeepsIndex: delegating an entry away moves the last
// entry into its slot; every remaining object must still be found with
// its own scopes, and an object added into a slot a removed entry left
// behind starts without that entry's scopes.
func TestObListRemoveKeepsIndex(t *testing.T) {
	ol, dst := NewObList(), NewObList()
	for obj := wal.ObjectID(1); obj <= 4; obj++ {
		ol.RecordUpdate(1, obj, wal.LSN(obj*10))
	}
	ol.DelegateTo(dst, 1, 2)
	ol.RecordUpdate(1, 3, 35)
	if ol.Has(2) || ol.Len() != 3 {
		t.Fatalf("after delegating 2 away: has 2 = %v, len %d", ol.Has(2), ol.Len())
	}
	for obj, want := range map[wal.ObjectID]Scope{
		1: {Object: 1, Invoker: 1, First: 10, Last: 10},
		3: {Object: 3, Invoker: 1, First: 30, Last: 35},
		4: {Object: 4, Invoker: 1, First: 40, Last: 40},
	} {
		if sc := ol.Entry(obj).Scopes(); len(sc) != 1 || sc[0] != want {
			t.Fatalf("object %d scopes = %v, want [%v]", obj, sc, want)
		}
	}
	// 2's slot now lies past the length with a Closed buffer; a new
	// object takes it and must start empty.
	dst.DelegateTo(ol, 2, 2)
	ol.DelegateTo(dst, 1, 2)
	ol.RecordUpdate(1, 9, 90)
	if e := ol.Entry(9); len(e.Closed) != 0 || e.Deleg != wal.NilTx {
		t.Fatalf("new entry inherited %+v", e)
	}
	if got := ol.Objects(); !reflect.DeepEqual(got, []wal.ObjectID{1, 3, 4, 9}) {
		t.Fatalf("objects = %v", got)
	}
}

// TestObListResetReusesStorage: a list refilled after Reset — the life
// of a recycled transaction record — allocates nothing.
func TestObListResetReusesStorage(t *testing.T) {
	ol, dst := NewObList(), NewObList()
	fill := func() {
		ol.Reset()
		dst.Reset()
		for obj := wal.ObjectID(1); obj <= 8; obj++ {
			ol.RecordUpdate(1, obj, wal.LSN(obj))
			ol.RecordUpdate(1, obj, wal.LSN(obj+8))
		}
		ol.DelegateTo(dst, 1, 3)
		dst.DelegateTo(ol, 2, 3)
	}
	fill()
	if n := testing.AllocsPerRun(100, fill); n != 0 {
		t.Fatalf("refilling a reset list allocates %.1f times", n)
	}
	if ol.Len() != 8 || len(ol.Entry(3).Closed) != 1 {
		t.Fatalf("refilled list: len %d, object 3 = %+v", ol.Len(), ol.Entry(3))
	}
}

// TestObListTrim: a rollback to a savepoint at cut keeps scopes wholly
// before it, closes an active scope that straddles it, and drops what
// lies wholly after it.
func TestObListTrim(t *testing.T) {
	ol, other := NewObList(), NewObList()
	ol.RecordUpdate(1, 1, 10) // before the cut: stays active
	ol.RecordUpdate(1, 2, 15)
	ol.RecordUpdate(1, 2, 25) // straddles the cut: closed at 20
	ol.RecordUpdate(1, 3, 30) // after the cut: dropped
	other.RecordUpdate(2, 4, 12)
	other.RecordUpdate(2, 4, 22)
	other.DelegateTo(ol, 2, 4) // closed (2, 12, 22): clipped to 20
	ol.Trim(20)
	if got := ol.Objects(); !reflect.DeepEqual(got, []wal.ObjectID{1, 2, 4}) {
		t.Fatalf("objects = %v", got)
	}
	if e := ol.Entry(1); !e.HasActive || e.Active.Last != 10 {
		t.Fatalf("object 1 = %+v", e)
	}
	if e := ol.Entry(2); e.HasActive || len(e.Closed) != 1 || e.Closed[0].Last != 20 {
		t.Fatalf("object 2 = %+v", e)
	}
	if e := ol.Entry(4); len(e.Closed) != 1 || e.Closed[0] != (Scope{Object: 4, Invoker: 2, First: 12, Last: 20}) {
		t.Fatalf("object 4 = %+v", e)
	}
}

func TestStateEncodeDecodeRoundTrip(t *testing.T) {
	st := State{}
	a := NewObList()
	a.RecordUpdate(1, 7, 10)
	a.RecordUpdate(1, 8, 12)
	b := NewObList()
	b.RecordUpdate(2, 7, 14)
	a.DelegateTo(b, 1, 7)
	st[1] = a
	st[2] = b
	st[3] = NewObList()
	buf := EncodeState(st)
	got, err := DecodeState(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d lists", len(got))
	}
	for tx, ol := range st {
		g := got[tx]
		if g == nil {
			t.Fatalf("missing tx %d", tx)
		}
		if !reflect.DeepEqual(g.AllScopes(), ol.AllScopes()) {
			t.Fatalf("tx %d scopes: got %v want %v", tx, g.AllScopes(), ol.AllScopes())
		}
		for _, obj := range ol.Objects() {
			if g.Entry(obj).Deleg != ol.Entry(obj).Deleg {
				t.Fatalf("tx %d obj %d deleg mismatch", tx, obj)
			}
		}
	}
	// Determinism.
	if string(EncodeState(st)) != string(buf) {
		t.Fatal("encoding not deterministic")
	}
}

func TestDecodeStateRejectsGarbage(t *testing.T) {
	st := State{1: NewObList()}
	st[1].RecordUpdate(1, 7, 10)
	buf := EncodeState(st)
	for n := 1; n < len(buf); n++ {
		if _, err := DecodeState(buf[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	if _, err := DecodeState(append(buf, 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}
