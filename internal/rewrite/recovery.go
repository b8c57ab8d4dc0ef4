package rewrite

import (
	"fmt"
	"sort"

	"ariesrh/internal/txn"
	"ariesrh/internal/wal"
)

// Recover restarts a rewrite-based engine.
//
// Eager mode: the log was already rewritten at delegation time, so the
// forward pass attributes each update to the transaction ID now stored in
// its record; delegate records are ignored.
//
// Lazy mode: the forward pass replays delegate records into the volatile
// responsibility map, then — before undo — physically rewrites every
// update record whose responsibility moved so it carries its final
// delegatee's ID ("rewriting history" for real, the cost RH avoids).
//
// Both modes then undo the losers with a full backward scan: in-place
// rewriting leaves per-transaction backward chains stale, so chains cannot
// be trusted and every record in the loser range must be examined.
func (e *Engine) Recover() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.crashed {
		return fmt.Errorf("rewrite: Recover called without a crash")
	}

	applied := make(map[wal.ObjectID]wal.LSN)
	compensated := make(map[wal.LSN]bool)
	err := e.log.Scan(func(rec *wal.Record) (bool, error) {
		e.stats.RecForwardRecords++
		switch rec.Type {
		case wal.TypeBegin:
			info := e.txns.Register(rec.TxID)
			info.Status = txn.Active
			info.LastLSN = rec.LSN
			// Eager rewriting can place a transaction's (rewritten)
			// update records BEFORE its begin record; never clobber
			// state already accumulated for it.
			if _, ok := e.beginLSN[rec.TxID]; !ok {
				e.beginLSN[rec.TxID] = rec.LSN
			}
		case wal.TypeUpdate:
			info := e.txns.Register(rec.TxID)
			info.LastLSN = rec.LSN
			e.ops[rec.TxID] = append(e.ops[rec.TxID], opRef{lsn: rec.LSN, obj: rec.Object})
			if e.beginLSN[rec.TxID] == wal.NilLSN {
				e.beginLSN[rec.TxID] = rec.LSN
			}
			if err := e.redoApply(applied, rec.Object, rec.After, rec.LSN); err != nil {
				return false, err
			}
		case wal.TypeCLR:
			compensated[rec.Compensates] = true
			if info := e.txns.Get(rec.TxID); info != nil {
				info.LastLSN = rec.LSN
			}
			if err := e.redoApply(applied, rec.Object, rec.Before, rec.LSN); err != nil {
				return false, err
			}
		case wal.TypeDelegate:
			if e.mode == Lazy {
				// Replay the responsibility transfer.
				var moved []opRef
				kept := e.ops[rec.Tor][:0]
				for _, ref := range e.ops[rec.Tor] {
					if ref.obj == rec.Object {
						moved = append(moved, ref)
					} else {
						kept = append(kept, ref)
					}
				}
				e.ops[rec.Tor] = kept
				e.ops[rec.Tee] = append(e.ops[rec.Tee], moved...)
			}
			// Eager mode: the log already reflects the delegation.
		case wal.TypeCommit:
			e.stats.RecWinners++
			if info := e.txns.Get(rec.TxID); info != nil {
				info.Status = txn.Committed
			}
		case wal.TypeAbort:
			if info := e.txns.Get(rec.TxID); info != nil {
				info.Status = txn.Aborted
			}
		case wal.TypeEnd:
			if e.mode == Lazy {
				// The ending transaction is the final owner of
				// everything still in its ops list; rewrite its
				// delegated-in records now, before the list is
				// dropped, or the backward scan would attribute
				// them to their (possibly loser) invokers.
				if err := e.rewriteOwned(rec.TxID); err != nil {
					return false, err
				}
			}
			e.txns.Remove(rec.TxID)
			delete(e.ops, rec.TxID)
			delete(e.beginLSN, rec.TxID)
		default:
			return false, fmt.Errorf("rewrite: unexpected record %v", rec.Type)
		}
		return true, nil
	})
	if err != nil {
		return err
	}

	// Lazy mode: rewrite history now — patch every update record whose
	// responsibility moved so its TxID names the final delegatee.
	// (Records owned by transactions that ended before the crash were
	// already patched during the forward pass.)
	if e.mode == Lazy {
		for owner := range e.ops {
			if err := e.rewriteOwned(owner); err != nil {
				return err
			}
		}
	}

	// Classify losers.
	losers := make(map[wal.TxID]bool)
	minBegin := wal.NilLSN
	for _, info := range e.txns.Snapshot() {
		if info.Status == txn.Committed {
			e.log.Append(&wal.Record{Type: wal.TypeEnd, TxID: info.ID, PrevLSN: info.LastLSN})
			e.txns.Remove(info.ID)
			delete(e.ops, info.ID)
			delete(e.beginLSN, info.ID)
			continue
		}
		e.stats.RecLosers++
		losers[info.ID] = true
		// The sweep must reach back to the oldest update a loser is
		// responsible for; with rewriting, record TxIDs are authoritative,
		// but delegated-in updates may precede the loser's own begin.
		for _, ref := range e.ops[info.ID] {
			if minBegin == wal.NilLSN || ref.lsn < minBegin {
				minBegin = ref.lsn
			}
		}
		if b := e.beginLSN[info.ID]; b != wal.NilLSN && (minBegin == wal.NilLSN || b < minBegin) {
			minBegin = b
		}
	}

	// Backward pass: full scan — every record between the head and the
	// oldest loser position is examined (chains are stale).
	if len(losers) > 0 && minBegin != wal.NilLSN {
		head := e.log.Head()
		clrStop := head // CLRs appended below must not be re-visited
		for k := clrStop; k >= minBegin; k-- {
			rec, err := e.log.Get(k)
			if err != nil {
				return err
			}
			e.stats.RecBackwardVisited++
			if rec.Type != wal.TypeUpdate || !losers[rec.TxID] || compensated[rec.LSN] {
				continue
			}
			info := e.txns.Get(rec.TxID)
			if err := e.writeCLR(info, rec); err != nil {
				return err
			}
			e.stats.RecCLRs++
		}
	}

	// Terminate losers.
	ids := make([]wal.TxID, 0, len(losers))
	for id := range losers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		info := e.txns.Get(id)
		if info == nil {
			continue
		}
		lsn := e.log.Append(&wal.Record{Type: wal.TypeAbort, TxID: id, PrevLSN: info.LastLSN})
		e.log.Append(&wal.Record{Type: wal.TypeEnd, TxID: id, PrevLSN: lsn})
		e.txns.Remove(id)
		delete(e.ops, id)
		delete(e.beginLSN, id)
	}
	e.log.Flush(e.log.Head())
	e.crashed = false
	return nil
}

// rewriteOwned patches every update record in owner's ops list that does
// not yet carry owner's transaction ID — the physical "rewriting of
// history" the lazy design performs during recovery.
func (e *Engine) rewriteOwned(owner wal.TxID) error {
	for _, ref := range e.ops[owner] {
		rec, err := e.log.Get(ref.lsn)
		if err != nil {
			return err
		}
		if rec.Type == wal.TypeUpdate && rec.TxID != owner {
			if err := e.log.Rewrite(ref.lsn, func(r *wal.Record) { r.TxID = owner }); err != nil {
				return err
			}
			e.stats.Rewrites++
			e.stats.RecRewrites++
		}
	}
	return nil
}

// redoApply repeats history for one logged change (see internal/core for
// the pageLSN-coverage argument).
func (e *Engine) redoApply(applied map[wal.ObjectID]wal.LSN, obj wal.ObjectID, val []byte, lsn wal.LSN) error {
	la, ok := applied[obj]
	if !ok {
		pl, err := e.store.PageLSN(obj)
		if err != nil {
			return err
		}
		la = pl
		applied[obj] = la
	}
	if lsn <= la {
		return nil
	}
	if err := e.store.Write(obj, val, lsn); err != nil {
		return err
	}
	applied[obj] = lsn
	e.stats.RecRedone++
	return nil
}
