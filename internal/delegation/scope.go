// Package delegation implements the volatile data structures of the
// paper's RH ("rewrite history") algorithm (§3.4): update scopes, the
// per-transaction object lists that carry them, and the backward-pass
// machinery — the loser-scope priority queue and the cluster sweep of
// §3.6.2 (Figures 7 and 8).
//
// A scope (invoker, firstLSN, lastLSN) covers the updates to one object
// that were invoked by one transaction within an LSN range and whose fate
// travels together under delegation.  The dual views of §2.1.1 —
// ResponsibleTr(update) and Op_List(t) — are both computable from the
// scopes, which is exactly why the paper stores them: responsibility can
// be tracked without touching the log.
//
// Scope discipline.  A transaction extends at most one ACTIVE scope per
// object — the one opened by its first update since it began or since it
// last delegated the object.  Scopes received through delegation are
// CLOSED: they are never extended or merged, only carried.  Two scopes
// with the same invoking transaction therefore cover disjoint LSN ranges
// (the invoker's active scope closed before the next one opened), which is
// the invariant the backward pass relies on: a log position is covered by
// a scope if and only if the update there belongs to that scope's
// responsibility thread.  (The paper's §3.5 remark instead states that
// same-invoker scopes never co-occur in one entry; we allow them — they
// arise when responsibility threads reunite via delegation chains — and
// rely on range disjointness, which is strictly safer than merging:
// merging two same-invoker ranges could swallow an intervening update that
// was delegated to a third transaction.)
package delegation

import (
	"fmt"
	"sort"

	"ariesrh/internal/wal"
)

// Scope covers the updates to Object invoked by Invoker with LSNs in
// [First, Last].  The transaction whose Ob_List holds the scope is
// responsible for those updates (it invoked them, or received them through
// a chain of delegations).
type Scope struct {
	// Object is the object the covered updates touched.
	Object wal.ObjectID
	// Invoker is the transaction that physically performed the updates
	// (the paper's "invoking transaction"; the log records carry its ID).
	Invoker wal.TxID
	// First and Last bound the LSNs of the covered updates, inclusive.
	First wal.LSN
	Last  wal.LSN
	// Owner is the transaction currently responsible for the covered
	// updates.  Inside an ObList it is implied by the containing list
	// and left as NilTx; OwnedScopes stamps it when scopes are pulled
	// out to build LsrScopes, so the backward pass can attribute
	// compensation log records to the right loser.
	Owner wal.TxID
}

// Contains reports whether lsn falls inside the scope.
func (s Scope) Contains(lsn wal.LSN) bool { return s.First <= lsn && lsn <= s.Last }

// String renders the scope like the paper's figures: "(t0, 5, 9) on 7".
func (s Scope) String() string {
	return fmt.Sprintf("(t%d, %d, %d) on %d", s.Invoker, s.First, s.Last, s.Object)
}

// Entry is the per-object record inside a transaction's Ob_List (Figure 5).
type Entry struct {
	// Deleg is the transaction that delegated the object to the owner,
	// or NilTx if the owner put it in its own list by updating.
	Deleg wal.TxID
	// Active is the scope the owner is currently extending with its own
	// updates (Invoker == owner), valid when HasActive.  It closes —
	// moves to Closed — when the owner delegates the object.
	HasActive bool
	Active    Scope
	// Closed are scopes no longer extended: received through delegation,
	// or the owner's own scopes from before a round-trip delegation.
	Closed []Scope

	obj wal.ObjectID // the entry's key in its list
}

// Scopes returns all scopes in the entry (closed ones first, then the
// active one).
func (e *Entry) Scopes() []Scope {
	out := append([]Scope(nil), e.Closed...)
	if e.HasActive {
		out = append(out, e.Active)
	}
	return out
}

// ObList is a transaction's object list: the objects holding updates the
// transaction is currently responsible for.  Its entries live inline in
// one slice, indexed by object, and Reset keeps both — with every
// entry's Closed buffer — for the list's next owner, so a recycled list
// fills again without allocating.  The zero value is an empty list.
// Methods are not synchronized; the owning engine serializes access.
type ObList struct {
	ents []Entry
	idx  map[wal.ObjectID]int
}

// NewObList returns an empty object list.
func NewObList() *ObList { return &ObList{} }

// Reset empties the list, keeping its storage for reuse.
func (o *ObList) Reset() {
	clear(o.idx)
	o.ents = o.ents[:0]
}

// Cap returns how many entries the list's storage holds — what a recycled
// list keeps.
func (o *ObList) Cap() int { return cap(o.ents) }

// Has reports whether the list contains obj — the well-formedness test of
// delegate(t1, t2, ob) in §3.5 (ResponsibleTr(update[ob]) = t1).
func (o *ObList) Has(obj wal.ObjectID) bool {
	_, ok := o.idx[obj]
	return ok
}

// Entry returns the entry for obj, or nil.  The pointer is valid until
// the list next changes.
func (o *ObList) Entry(obj wal.ObjectID) *Entry {
	if i, ok := o.idx[obj]; ok {
		return &o.ents[i]
	}
	return nil
}

// Len returns the number of objects in the list.
func (o *ObList) Len() int { return len(o.ents) }

// Objects returns the object IDs in the list, sorted.
func (o *ObList) Objects() []wal.ObjectID {
	out := make([]wal.ObjectID, len(o.ents))
	for i := range o.ents {
		out[i] = o.ents[i].obj
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ensure returns obj's entry, adding an empty one if obj is not listed.
// A slot past the length left by Reset or a removal is taken back with
// its Closed buffer.
func (o *ObList) ensure(obj wal.ObjectID) *Entry {
	if i, ok := o.idx[obj]; ok {
		return &o.ents[i]
	}
	if o.idx == nil {
		o.idx = make(map[wal.ObjectID]int)
	}
	n := len(o.ents)
	if n < cap(o.ents) {
		o.ents = o.ents[:n+1]
		o.ents[n] = Entry{Closed: o.ents[n].Closed[:0]}
	} else {
		o.ents = append(o.ents, Entry{})
	}
	o.ents[n].obj = obj
	o.idx[obj] = n
	return &o.ents[n]
}

// remove drops obj's entry, at index i, by swapping the last entry into
// its place; the removed entry's Closed buffer stays past the length for
// the next entry.
func (o *ObList) remove(obj wal.ObjectID, i int) {
	last := len(o.ents) - 1
	if i != last {
		o.ents[i], o.ents[last] = o.ents[last], o.ents[i]
		o.idx[o.ents[i].obj] = i
	}
	delete(o.idx, obj)
	o.ents = o.ents[:last]
}

// RecordUpdate adjusts scopes for update[owner, obj] logged at lsn (§3.5,
// step ADJUST SCOPES): the owner's active scope on obj extends to lsn; if
// there is none (first update since begin, or since the owner last
// delegated obj) a new active scope [lsn, lsn] opens.
func (o *ObList) RecordUpdate(owner wal.TxID, obj wal.ObjectID, lsn wal.LSN) {
	e := o.ensure(obj)
	if e.HasActive {
		if lsn > e.Active.Last {
			e.Active.Last = lsn
		}
		return
	}
	e.HasActive = true
	e.Active = Scope{Object: obj, Invoker: owner, First: lsn, Last: lsn}
}

// DelegateTo transfers this list's entry for obj into dst (§3.5, step
// TRANSFER RESPONSIBILITY): the delegator's active scope closes, all
// scopes move into dst's entry as closed scopes (dst's own active scope,
// if any, is untouched), the delegator is recorded, and the entry is
// removed from the delegator's list.  It returns false if obj is not in
// the list (ill-formed delegation).  dst must be another list.
func (o *ObList) DelegateTo(dst *ObList, from wal.TxID, obj wal.ObjectID) bool {
	i, ok := o.idx[obj]
	if !ok {
		return false
	}
	src := &o.ents[i]
	d := dst.ensure(obj)
	d.Deleg = from
	d.Closed = append(d.Closed, src.Closed...)
	if src.HasActive {
		d.Closed = append(d.Closed, src.Active)
	}
	o.remove(obj, i)
	return true
}

// AllScopes returns every scope in the list, ordered by object, then
// invoker, then first LSN (deterministic for tests and checkpoint
// encoding).
func (o *ObList) AllScopes() []Scope {
	var out []Scope
	for _, obj := range o.Objects() {
		scopes := o.Entry(obj).Scopes()
		sort.Slice(scopes, func(i, j int) bool {
			if scopes[i].Invoker != scopes[j].Invoker {
				return scopes[i].Invoker < scopes[j].Invoker
			}
			return scopes[i].First < scopes[j].First
		})
		out = append(out, scopes...)
	}
	return out
}

// OwnedScopes returns every scope in the list with Owner stamped to owner,
// the form the backward pass's LsrScopes is built from.
func (o *ObList) OwnedScopes(owner wal.TxID) []Scope {
	scopes := o.AllScopes()
	for i := range scopes {
		scopes[i].Owner = owner
	}
	return scopes
}

// MinFirst returns the smallest First across all scopes (the minLSN used
// by abort processing in §3.5), or NilLSN if the list is empty.
func (o *ObList) MinFirst() wal.LSN {
	min := wal.NilLSN
	note := func(s Scope) {
		if min == wal.NilLSN || s.First < min {
			min = s.First
		}
	}
	for i := range o.ents {
		e := &o.ents[i]
		for _, s := range e.Closed {
			note(s)
		}
		if e.HasActive {
			note(e.Active)
		}
	}
	return min
}

// Trim clips every scope to LSNs ≤ cut — a partial rollback to a
// savepoint at cut has undone the rest — and drops entries left with no
// scopes.
func (o *ObList) Trim(cut wal.LSN) {
	for i := 0; i < len(o.ents); {
		e := &o.ents[i]
		kept := e.Closed[:0]
		for _, s := range e.Closed {
			if s.First > cut {
				continue
			}
			if s.Last > cut {
				s.Last = cut
			}
			kept = append(kept, s)
		}
		e.Closed = kept
		if e.HasActive && e.Active.First > cut {
			e.HasActive = false
		} else if e.HasActive && e.Active.Last > cut {
			// The active scope straddled the savepoint: its tail was
			// just undone (CLRs written).  Close the surviving prefix
			// so a later update opens a FRESH scope rather than
			// re-extending this one across the compensated gap —
			// re-covering those LSNs would make a later full abort
			// undo them twice.
			clipped := e.Active
			clipped.Last = cut
			e.Closed = append(e.Closed, clipped)
			e.HasActive = false
		}
		if len(e.Closed) == 0 && !e.HasActive {
			o.remove(e.obj, i)
			continue // the swapped-in entry now sits at i
		}
		i++
	}
}

// Clone deep-copies the list.
func (o *ObList) Clone() *ObList {
	c := NewObList()
	for i := range o.ents {
		src := &o.ents[i]
		d := c.ensure(src.obj)
		*d = *src
		d.Closed = append([]Scope(nil), src.Closed...)
	}
	return c
}

// SetEntry installs a copy of e as obj's entry (checkpoint decoding).
func (o *ObList) SetEntry(obj wal.ObjectID, e *Entry) {
	d := o.ensure(obj)
	*d = *e
	d.obj = obj
}
