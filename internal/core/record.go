package core

import (
	"cmp"
	"slices"

	"ariesrh/internal/delegation"
	"ariesrh/internal/txn"
	"ariesrh/internal/wal"
)

// record is one live transaction's volatile state: its Tr_List entry and
// its Ob_List, kept together as the paper's per-transaction structure
// (§3.4, Figure 5), with its form-dependency edges, its two-phase-commit
// vote and the channel its log forces report on.  The engine's one
// TxID → *record map is the transaction table.
//
// Records are recycled.  Begin and recovery's analysis (registerLocked,
// sequential or pipelined) take them from the engine's bounded free list;
// a commit, an abort, analysis of a commit or abort record and loser
// termination put them back; Crash and Recover's reset drop the list.  So whoever keeps a *record across an unlatched wait
// must look its ID up again afterwards and compare pointers: once the
// transaction has ended, the record may already serve a newer one.
type record struct {
	txn.Info
	obs  delegation.ObList
	deps []depEdge
	// prep is the bookkeeping of a prepared transaction (twopc.go), valid
	// while prepared is set.
	prep     preparedInfo
	prepared bool
	// wait receives the outcome of the transaction's log force
	// (wal.Log.FlushAsync).  One goroutine at a time waits on it — the
	// one that took the transaction out of Active, or ended it — and it
	// receives the one value before the record can be recycled.
	wait chan error
}

// Free-list bounds, as in the lock manager: the list absorbs the swing in
// live transactions, and a record whose Ob_List or edge list grew past
// maxRecycledLen is left to the collector rather than kept.
const (
	maxFreeRecords = 64
	maxRecycledLen = 32
)

// newRecordLocked enters an Active record for tx in the table, taking a
// recycled one if the free list has any.
func (e *Engine) newRecordLocked(tx wal.TxID) *record {
	var r *record
	if n := len(e.free); n > 0 {
		r = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		r = &record{wait: make(chan error, 1)}
	}
	r.Info = txn.Info{ID: tx, Status: txn.Active}
	e.recs[tx] = r
	return r
}

// dropLocked removes r's transaction from the table.  The record is not
// recycled yet: the caller does that (recycleLocked) once nobody waits
// on it, or leaves it to the collector.
func (e *Engine) dropLocked(r *record) {
	delete(e.recs, r.ID)
	e.depEdges -= len(r.deps)
}

// recycleLocked empties a dropped record and puts it on the free list,
// unless the list is full or the record grew too large to keep.
func (e *Engine) recycleLocked(r *record) {
	if len(e.free) >= maxFreeRecords || r.obs.Cap() > maxRecycledLen || cap(r.deps) > maxRecycledLen {
		return
	}
	r.obs.Reset()
	r.deps = r.deps[:0]
	r.prep, r.prepared = preparedInfo{}, false
	e.free = append(e.free, r)
}

// endLocked drops r's transaction and recycles its record.
func (e *Engine) endLocked(r *record) {
	e.dropLocked(r)
	e.recycleLocked(r)
}

// resetTxnsLocked empties the transaction table and drops the free list,
// seeding transaction IDs from 1: recovery re-registers every ID the log
// names, so new transactions start above them.
func (e *Engine) resetTxnsLocked() {
	clear(e.recs)
	e.free = nil
	e.nextTx = 1
	e.depEdges = 0
}

// sortedRecsLocked returns the live records ordered by transaction ID —
// the order recovery classifies losers in and checkpoints list them.
func (e *Engine) sortedRecsLocked() []*record {
	out := make([]*record, 0, len(e.recs))
	for _, r := range e.recs {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b *record) int { return cmp.Compare(a.ID, b.ID) })
	return out
}
