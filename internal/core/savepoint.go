package core

import (
	"ariesrh/internal/delegation"
	"ariesrh/internal/txn"
	"ariesrh/internal/wal"
)

// Savepoints implement partial rollback — one of the "variety of recovery
// primitives" the paper's conclusion calls for (§6: "making recovery a
// first-class concept").  A savepoint is an LSN marker; RollbackTo undoes
// exactly the updates the transaction is currently responsible for that
// were logged after the marker, writing CLRs as usual, and trims its
// scopes accordingly.
//
// Interaction with delegation follows from responsibility:
//
//   - updates the transaction delegated AWAY after the savepoint are NOT
//     undone (they are no longer its responsibility — the delegation
//     stands, exactly as a full abort would leave it);
//   - updates received THROUGH delegation after the savepoint ARE undone
//     (they are its responsibility, and they postdate the marker).
//
// Savepoints are volatile: they do not survive a crash (a crash aborts
// the transaction entirely), so nothing is logged for the savepoint
// itself, mirroring ARIES.

// Savepoint marks a rollback point inside a transaction.
type Savepoint struct {
	tx  wal.TxID
	lsn wal.LSN
}

// Savepoint records a rollback point for tx at the current end of its
// history.
func (e *Engine) Savepoint(tx wal.TxID) (Savepoint, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.writableLocked(); err != nil {
		return Savepoint{}, err
	}
	if _, err := e.activeInfo(tx); err != nil {
		return Savepoint{}, err
	}
	return Savepoint{tx: tx, lsn: e.log.Head()}, nil
}

// RollbackTo undoes every update tx is responsible for with LSN greater
// than the savepoint, in reverse LSN order, and trims tx's scopes to the
// savepoint.  The transaction remains active and may continue.
func (e *Engine) RollbackTo(sp Savepoint) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.writableLocked(); err != nil {
		return err
	}
	r, err := e.activeInfo(sp.tx)
	if err != nil {
		return err
	}
	// Clip each scope to the part after the savepoint and undo that.
	var after []delegation.Scope
	for _, s := range r.obs.OwnedScopes(sp.tx) {
		if s.Last <= sp.lsn {
			continue
		}
		clipped := s
		if clipped.First <= sp.lsn {
			clipped.First = sp.lsn + 1
		}
		after = append(after, clipped)
	}
	if err := e.undoScopes(after, nil, nil); err != nil {
		return err
	}
	// Trim the object list: drop or shorten scopes past the marker.
	r.obs.Trim(sp.lsn)
	return nil
}

// MinRequiredLSN returns the oldest log record a future recovery could
// need: the minimum of the last checkpoint's redo start and the first LSN
// of any live scope.  Everything before it may be archived.
//
// This exposes a consequence of delegation the paper leaves implicit:
// because a delegated scope can travel between long-lived transactions,
// a live scope may reach arbitrarily far back in the log, pinning it —
// log reclamation interacts with the transaction model, not just with
// checkpoints.
func (e *Engine) MinRequiredLSN() (wal.LSN, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return wal.NilLSN, ErrCrashed
	}
	min := e.log.Head() + 1
	// Checkpoint bound: next recovery starts at the last checkpoint's
	// redo start (or 1 with no checkpoint).
	ckptEnd, err := e.master.Get()
	if err != nil {
		return wal.NilLSN, err
	}
	if ckptEnd == wal.NilLSN {
		if e.log.Head() == 0 {
			return 1, nil
		}
		min = 1
	} else {
		rec, err := e.log.Get(ckptEnd)
		if err != nil {
			return wal.NilLSN, err
		}
		ck, err := decodeCheckpoint(rec.Payload)
		if err != nil {
			return wal.NilLSN, err
		}
		redoStart := ck.beginLSN
		for _, recLSN := range ck.dpt {
			if recLSN != wal.NilLSN && recLSN < redoStart {
				redoStart = recLSN
			}
		}
		if redoStart < min {
			min = redoStart
		}
	}
	for _, r := range e.recs {
		// Scope bound: any live transaction's scopes may need undoing.
		if first := r.obs.MinFirst(); first != wal.NilLSN && first < min {
			min = first
		}
		// Uncommitted chains: a live transaction's own records back to
		// its begin may be traversed (e.g. CLR UndoNextLSN bookkeeping).
		// A prepared (in-doubt) transaction is live in exactly the same
		// sense: the decision may yet be abort, and its whole chain must
		// survive for the undo.
		if (r.Status == txn.Active || r.Status == txn.Prepared) && r.LastLSN != wal.NilLSN {
			// Conservative: keep from its first record; scopes
			// already bound updates, this bounds the rest of the chain.
			if first := e.firstOf(r); first != wal.NilLSN && first < min {
				min = first
			}
		}
	}
	// Decision pins: a retained coordinator commit decision must stay
	// re-derivable from this shard's log until every participant has a
	// durable commit (ReleaseGlobal), or an in-doubt peer recovering
	// after an archive could no longer learn the verdict and presumed
	// abort would contradict a committed participant.  Mirrors repl's
	// retention pins: the prepare record that binds the gid is the pin.
	for _, g := range e.globals {
		if g.prepareLSN != wal.NilLSN && g.prepareLSN < min {
			min = g.prepareLSN
		}
	}
	return min, nil
}

// ArchiveLog reclaims log space: it computes MinRequiredLSN and discards
// every earlier record from the log, compacting the stable device.  It
// returns the new base (the highest archived LSN).  Safe at any time; with
// live delegated scopes reaching far back it simply reclaims little.
func (e *Engine) ArchiveLog() (wal.LSN, error) {
	min, err := e.MinRequiredLSN()
	if err != nil {
		return wal.NilLSN, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.writableLocked(); err != nil {
		// Compaction rewrites the stable device; a degraded device
		// must not be touched.
		return wal.NilLSN, err
	}
	if min <= 1 {
		return e.log.Base(), nil
	}
	upTo := min - 1
	if flushed := e.log.FlushedLSN(); upTo > flushed {
		upTo = flushed
	}
	if err := e.log.Archive(upTo); err != nil {
		return wal.NilLSN, err
	}
	return e.log.Base(), nil
}

// firstOf walks tx's backward chain to its first record — the one whose
// back pointer (PrevLSN, or TeePrev where tx is the delegatee of a
// delegate record of any form) is NilLSN;
// in logs written before Begin became lazy, that is the begin record.
// Used only by the archive bound, which is not on the hot path.
func (e *Engine) firstOf(r *record) wal.LSN {
	tx, lsn := r.ID, r.LastLSN
	for lsn != wal.NilLSN {
		rec, err := e.log.Get(lsn)
		if err != nil {
			return wal.NilLSN
		}
		prev := rec.PrevLSN
		if rec.Tee == tx && rec.Delegated() != nil {
			prev = rec.TeePrev
		}
		if prev == wal.NilLSN {
			return lsn
		}
		if prev >= lsn {
			return wal.NilLSN // defensive: chains must strictly decrease
		}
		lsn = prev
	}
	return wal.NilLSN
}
