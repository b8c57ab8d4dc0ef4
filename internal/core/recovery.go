package core

import (
	"errors"
	"fmt"
	"time"

	"ariesrh/internal/delegation"
	"ariesrh/internal/obs"
	"ariesrh/internal/txn"
	"ariesrh/internal/wal"
)

// ErrInjectedRecoveryFailure is returned by Recover when an armed
// failpoint fires (see SetRecoveryFailpoint).
var ErrInjectedRecoveryFailure = errors.New("core: injected recovery failure")

// replayState is the working state of recovery's forward pass (analysis +
// redo).  Recover builds one for the duration of the scan; a follower
// engine keeps one alive for its whole lifetime, because a follower IS a
// forward pass that never finishes — until Promote runs the backward pass
// over it.
type replayState struct {
	// applied tracks, per object, the LSN through which the stable page
	// image already reflects the object's updates (discovered lazily from
	// the pageLSN of the page holding it); redo applies only younger
	// records, making redo idempotent across repeated crashes.
	applied map[wal.ObjectID]wal.LSN
	// compensated lists the update LSNs already undone by a CLR seen in
	// the forward direction; the backward pass skips them.
	compensated map[wal.LSN]bool
	// redone counts the changes redone onto pages and winners the commit
	// records analysed; Recover copies both into its trace.
	redone, winners uint64
}

func newReplayState() *replayState {
	return &replayState{
		applied:     make(map[wal.ObjectID]wal.LSN),
		compensated: make(map[wal.LSN]bool),
	}
}

// recoveryBook carries a Recover (or Promote) run into
// finishRecoveryLocked: the run's trace, which each pass counts in place
// as it goes, and the run's start time.
type recoveryBook struct {
	tr         RecoveryTrace
	totalStart time.Time
}

// Recover restores the engine after a Crash, following §3.6:
//
//  1. A single forward pass (analysis + redo) from the last checkpoint —
//     or from the minimum recLSN in its dirty-page table, if smaller —
//     rebuilds the transaction table and the object lists, replaying
//     delegate records into the scopes exactly as normal processing did,
//     and repeats history by redoing logged updates not yet on the pages.
//  2. Winners (committed before the crash) and Losers (everything else
//     still live, including a rollback the crash interrupted before its
//     abort record) are identified; LsrScopes
//     is the union of the loser objects' scopes.
//  3. The backward pass sweeps the clusters of overlapping loser scopes in
//     strictly decreasing LSN order, undoing exactly the loser updates —
//     updates whose *final delegatee* is a loser — and writing a CLR per
//     undo.  Updates invoked by losers but delegated to winners survive;
//     updates invoked by winners but delegated to losers are obliterated.
//
// The log is never modified in place: history is rewritten by
// interpretation, not mutation.
func (e *Engine) Recover() error {
	if e.opts.ParallelRecovery {
		return e.recoverParallel()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.follower {
		return fmt.Errorf("core: a follower does not Recover; reopen it in follower mode or Promote it")
	}
	if !e.crashed {
		return fmt.Errorf("core: Recover called without a crash")
	}
	// Start from a clean slate even if a previous Recover attempt died
	// midway (e.g. an injected failure): replaying analysis onto
	// half-built tables would double-apply delegate records.
	e.resetTxnsLocked()
	e.globals = make(map[uint64]globalDecision)

	e.met.recRuns.Inc()
	book := recoveryBook{totalStart: time.Now()}

	scanStart, analysisAfter, err := e.locateCheckpointLocked()
	if err != nil {
		return err
	}

	// ---- Forward pass: analysis + redo in one sweep (§3.6.1). ----
	rs := newReplayState()
	forwardStart := time.Now()
	err = e.log.Scan(scanStart, wal.NilLSN, func(rec *wal.Record) (bool, error) {
		book.tr.ForwardRecords++
		if err := e.applyRecordLocked(rec, rec.LSN > analysisAfter, rs); err != nil {
			return false, err
		}
		return true, nil
	})
	if err != nil {
		return err
	}
	book.tr.ForwardDur = time.Since(forwardStart)
	book.tr.Redone, book.tr.Winners = rs.redone, rs.winners

	return e.finishRecoveryLocked(rs, book)
}

// locateCheckpointLocked consults the master record, seeds the transaction
// table and the object lists from the last complete checkpoint, and
// returns where the forward scan starts (the checkpoint's redo point, or
// LSN 1 without one) and the LSN at or below which records are redo-only
// because analysis state comes from the checkpoint snapshot.
func (e *Engine) locateCheckpointLocked() (scanStart, analysisAfter wal.LSN, err error) {
	scanStart = 1
	analysisAfter = wal.NilLSN
	head := e.log.Head()
	ckptEnd, err := e.master.Get()
	if err != nil {
		return 0, 0, err
	}
	if ckptEnd == wal.NilLSN || ckptEnd > head {
		return scanStart, analysisAfter, nil
	}
	rec, err := e.log.Get(ckptEnd)
	if err != nil {
		return 0, 0, err
	}
	if rec.Type != wal.TypeCheckpointEnd {
		return 0, 0, fmt.Errorf("core: master record points at %v, not a checkpoint end", rec.Type)
	}
	ck, err := decodeCheckpoint(rec.Payload)
	if err != nil {
		return 0, 0, err
	}
	for _, info := range ck.txns {
		r := e.registerLocked(info.ID)
		r.Status = info.Status
		r.LastLSN = info.LastLSN
		r.UndoNextLSN = info.UndoNextLSN
		if ol := ck.state[info.ID]; ol != nil {
			r.obs = *ol
		}
	}
	for tx, pi := range ck.prepared {
		if r := e.recs[tx]; r != nil {
			r.prep, r.prepared = pi, true
		}
		if pi.gid > e.maxGID {
			e.maxGID = pi.gid
		}
	}
	for gid, g := range ck.globals {
		e.globals[gid] = g
		if gid > e.maxGID {
			e.maxGID = gid
		}
	}
	redoStart := ck.beginLSN
	for _, recLSN := range ck.dpt {
		if recLSN == wal.NilLSN {
			// A dirty page with no known recLSN forces a full redo
			// (defensive; the buffer layer always records one).
			redoStart = 1
			break
		}
		if recLSN < redoStart {
			redoStart = recLSN
		}
	}
	return redoStart, ckptEnd, nil
}

// applyRecordLocked replays one log record into the volatile tables: when
// analyze is set the transaction table and the object lists absorb it
// (delegate records rewrite scopes exactly as normal processing did), and
// updates/CLRs are redone onto pages not already covering them.  This is
// the body of recovery's forward pass; a follower engine calls it once
// per shipped record, forever.
func (e *Engine) applyRecordLocked(rec *wal.Record, analyze bool, rs *replayState) error {
	if err := e.analyzeRecordLocked(rec, analyze, rs); err != nil {
		return err
	}
	switch rec.Type {
	case wal.TypeUpdate:
		return e.redoApply(rs, rec.Object, rec.After, rec.LSN)
	case wal.TypeIncrement:
		return e.redoApplyDelta(rs, rec.Object, rec.Delta, rec.LSN)
	case wal.TypeCLR:
		if rec.Logical {
			return e.redoApplyDelta(rs, rec.Object, rec.Delta, rec.LSN)
		}
		return e.redoApply(rs, rec.Object, rec.Before, rec.LSN)
	}
	return nil
}

// analyzeRecordLocked is the analysis half of the forward pass: the
// transaction-table and object-list bookkeeping for one record, with no
// page access.  The parallel pipeline runs it sequentially in LSN order
// over the scanned shards (analysis is inherently ordered — a delegate
// record rewrites the scopes the records before it built) while the redo
// half is deferred to the per-object chains.
func (e *Engine) analyzeRecordLocked(rec *wal.Record, analyze bool, rs *replayState) error {
	switch rec.Type {
	case wal.TypeBegin:
		// Logs written before Begin became lazy open each chain with one.
		if analyze {
			e.registerLocked(rec.TxID).LastLSN = rec.LSN
		}
	case wal.TypeUpdate, wal.TypeIncrement:
		if analyze {
			r := e.registerLocked(rec.TxID)
			r.LastLSN = rec.LSN
			r.obs.RecordUpdate(rec.TxID, rec.Object, rec.LSN)
		}
	case wal.TypeCLR:
		rs.compensated[rec.Compensates] = true
		if analyze {
			if r := e.recs[rec.TxID]; r != nil {
				r.LastLSN = rec.LSN
			}
		}
	case wal.TypeDelegate, wal.TypeDelegateOut:
		// The home-shard half of a cross-shard delegation transfers
		// responsibility between two local transactions exactly like a
		// plain delegate record; the gid/peer fields are audit trail.  The
		// delegator has logged the delegated update already; the delegate
		// record may be the delegatee's first.
		if analyze {
			tor := e.recs[rec.Tor]
			if tor == nil {
				return fmt.Errorf("core: %v record %d references unknown delegator t%d", rec.Type, rec.LSN, rec.Tor)
			}
			tee := e.registerLocked(rec.Tee)
			tee.LastLSN = rec.LSN
			tor.obs.DelegateTo(&tee.obs, rec.Tor, rec.Object)
			tor.LastLSN = rec.LSN
			if rec.GID > e.maxGID {
				e.maxGID = rec.GID
			}
		}
	case wal.TypeCommit, wal.TypeAbort, wal.TypeEnd:
		// A commit or abort record is its transaction's last record: the
		// commit is what recovery needs of a winner, and the abort record
		// follows the rollback's last CLR.  Either ends the chain, and an
		// aborted voter is no longer in-doubt.  An end record ends it the
		// same way: logs written before commit and abort records became
		// terminal follow each of them with one.
		if !analyze {
			break
		}
		if rec.Type == wal.TypeCommit {
			rs.winners++
			// A commit following a prepare record resolves the global
			// transaction.  On the coordinator (the prepare record named
			// this shard) retain the decision — queryable by peer shards,
			// archive-pinned at the prepare record — until released; a
			// participant's commit merely applied it, so retain nothing.
			if r := e.recs[rec.TxID]; r != nil && r.prepared && r.prep.coord == e.opts.ShardID {
				e.globals[r.prep.gid] = globalDecision{prepareLSN: r.prep.prepareLSN}
			}
		}
		if r := e.recs[rec.TxID]; r != nil {
			e.endLocked(r)
		}
	case wal.TypePrepare:
		if analyze {
			r := e.registerLocked(rec.TxID)
			r.Status = txn.Prepared
			r.LastLSN = rec.LSN
			r.prep, r.prepared = preparedInfo{gid: rec.GID, coord: rec.Shard, prepareLSN: rec.LSN}, true
			if rec.GID > e.maxGID {
				e.maxGID = rec.GID
			}
		}
	case wal.TypeDelegateIn:
		// Acquirer-side bookkeeping of a cross-shard delegation: no state
		// change on this shard — the object and its scopes live on the
		// home shard — only the backward chain advances.
		if analyze {
			e.registerLocked(rec.TxID).LastLSN = rec.LSN
			if rec.GID > e.maxGID {
				e.maxGID = rec.GID
			}
		}
	case wal.TypeCheckpointBegin, wal.TypeCheckpointEnd:
		// Checkpoints carry no database changes.
	default:
		return fmt.Errorf("core: unexpected record %v during recovery", rec.Type)
	}
	return nil
}

// registerLocked returns tx's record, entering one with an empty Ob_List
// when analysis meets the first record of its chain.  Transaction IDs
// handed out later start above every ID registered.
func (e *Engine) registerLocked(tx wal.TxID) *record {
	if r := e.recs[tx]; r != nil {
		return r
	}
	if tx >= e.nextTx {
		e.nextTx = tx + 1
	}
	return e.newRecordLocked(tx)
}

// finishRecoveryLocked runs everything after the forward pass:
// classification, the backward cluster sweep, loser termination, the final
// log force, and the trace.  Recover calls it after its scan; Promote
// calls it over the follower's continuously maintained replay state —
// promotion IS this function, there is no separate code path.
func (e *Engine) finishRecoveryLocked(rs *replayState, book recoveryBook) error {
	tr := book.tr
	losers, lsrScopes := e.classifyLocked()
	tr.Losers = uint64(len(losers))

	// ---- Backward pass: cluster sweep undoing loser updates (§3.6.2). ----
	backwardStart := time.Now()
	if e.opts.FullScanUndo {
		// Ablation: the rejected alternative — "scan all log records
		// backwards, identifying the loser updates … unnecessarily
		// inspecting many winner updates."
		if err := e.undoScopesFullScan(lsrScopes, rs.compensated, &tr); err != nil {
			return err
		}
	} else if err := e.undoScopes(lsrScopes, rs.compensated, &tr); err != nil {
		return err
	}
	tr.BackwardDur = time.Since(backwardStart)

	// ---- Terminate losers. ----
	if err := e.terminateLosers(losers); err != nil {
		return err
	}
	if err := e.log.Flush(e.log.Head()); err != nil {
		return err
	}
	e.crashed = false

	// ---- Record the trace and the cumulative recovery metrics. ----
	tr.TotalDur = time.Since(book.totalStart)
	tr.Stages = []RecoveryStage{
		{Name: "forward", Dur: tr.ForwardDur, Units: tr.ForwardRecords},
		{Name: "backward", Dur: tr.BackwardDur, Units: tr.BackwardVisited},
	}
	e.emitRecoveryTraceLocked(tr)
	return nil
}

// emitRecoveryTraceLocked stores tr as the last recovery trace and feeds
// the cumulative recovery metrics and the completion event from it.
// Shared by sequential recovery, promotion and the parallel pipeline's
// finisher (which holds the latch when it calls).
func (e *Engine) emitRecoveryTraceLocked(tr RecoveryTrace) {
	e.lastTrace = tr
	e.met.recForwardRecords.Add(tr.ForwardRecords)
	e.met.recRedone.Add(tr.Redone)
	e.met.recCLRs.Add(tr.CLRs)
	e.met.recLosers.Add(tr.Losers)
	e.met.recWinners.Add(tr.Winners)
	e.met.recForwardNs.Observe(tr.ForwardDur)
	e.met.recBackwardNs.Observe(tr.BackwardDur)
	e.met.recTotalNs.Observe(tr.TotalDur)
	if e.reg.HasEventHook() {
		e.reg.Emit(obs.Event{Name: "recovery.complete", Value: int64(tr.CLRs), Dur: tr.TotalDur})
	}
}

// classifyLocked identifies winners and losers from the transaction
// table after the forward pass (§3.6.1).  Analysis has already dropped
// every transaction whose commit record it read; a Committed entry left
// is a checkpoint-listed committer whose commit record lies before the
// scan window — a winner whose effects are redone, dropped here without
// appending anything.  Everything else but an in-doubt participant is a
// loser and contributes its owned scopes to LsrScopes.  Shared by
// sequential recovery, promotion, and the parallel pipeline's setup
// phase.
func (e *Engine) classifyLocked() (losers []wal.TxID, lsrScopes []delegation.Scope) {
	for _, r := range e.sortedRecsLocked() {
		if r.Status == txn.Committed {
			e.endLocked(r)
			continue
		}
		if r.Status == txn.Prepared {
			// In-doubt 2PC participant: neither winner nor loser.  Its
			// effects stay redone and un-undone, its entry and scopes
			// stay live, until the coordinator's decision (or presumed
			// abort) resolves it via CommitPrepared/AbortPrepared.
			continue
		}
		losers = append(losers, r.ID)
		lsrScopes = append(lsrScopes, r.obs.OwnedScopes(r.ID)...)
	}
	return losers, lsrScopes
}

// terminateLosers appends the abort record that finishes every loser —
// its last record, after the backward pass's CLRs — and drops it from
// the volatile tables.  The caller owns the transaction table — either
// by holding the engine latch (sequential recovery) or by being the
// pipeline's finisher after its workers have drained.
func (e *Engine) terminateLosers(losers []wal.TxID) error {
	for _, id := range losers {
		r := e.recs[id]
		if r == nil {
			continue
		}
		if _, err := e.log.Append(&wal.Record{Type: wal.TypeAbort, TxID: id, PrevLSN: r.LastLSN}); err != nil {
			return err
		}
		e.endLocked(r)
	}
	e.noteGlobalsLocked()
	// With the losers gone the lock table is empty; in-doubt participants
	// re-take their object locks so nothing can touch their data before
	// the decision arrives.
	return e.relockInDoubtLocked()
}

// undoScopesFullScan is the ablation counterpart of undoScopes: it visits
// EVERY log position from the head down to the oldest loser scope,
// checking each update against the scopes.  Functionally identical to the
// cluster sweep; the visit counters expose the cost difference the paper's
// cluster design avoids.
func (e *Engine) undoScopesFullScan(scopes []delegation.Scope, compensated map[wal.LSN]bool, tr *RecoveryTrace) error {
	if len(scopes) == 0 {
		return nil
	}
	low := scopes[0].First
	high := scopes[0].Last
	for _, s := range scopes[1:] {
		if s.First < low {
			low = s.First
		}
		if s.Last > high {
			high = s.Last
		}
	}
	hooked := e.reg.HasEventHook()
	for k := high; k >= low && k != wal.NilLSN; k-- {
		tr.BackwardVisited++
		e.met.undoVisited.Inc()
		if hooked {
			e.reg.Emit(obs.Event{Name: "undo.visit", LSN: uint64(k)})
		}
		rec, err := e.log.Get(k)
		if err != nil {
			return err
		}
		if !rec.IsUndoable() || compensated[k] {
			continue
		}
		for _, s := range scopes {
			if s.Invoker == rec.TxID && s.Object == rec.Object && s.Contains(k) {
				if rec.Type == wal.TypeIncrement {
					if err := e.undoIncrement(s.Owner, rec); err != nil {
						return err
					}
				} else if err := e.undoUpdate(s.Owner, rec); err != nil {
					return err
				}
				tr.CLRs++
				break
			}
		}
	}
	return nil
}

// redoApply repeats history for one logged change: the value is applied
// unless the object's stable image already reflects it.  On the first
// touch of an object the page image's coverage is discovered from its
// pageLSN: a page flushed at pageLSN pl contains exactly the updates with
// LSN ≤ pl for every object stored in it.
func (e *Engine) redoApply(rs *replayState, obj wal.ObjectID, val []byte, lsn wal.LSN) error {
	la, ok := rs.applied[obj]
	if !ok {
		pl, err := e.store.PageLSN(obj)
		if err != nil {
			return err
		}
		la = pl
		rs.applied[obj] = la
	}
	if lsn <= la {
		return nil
	}
	if err := e.store.Write(obj, val, lsn); err != nil {
		return err
	}
	rs.applied[obj] = lsn
	rs.redone++
	return nil
}

// redoApplyDelta repeats history for a logical (increment or logical-CLR)
// change, with the same per-object coverage discipline as redoApply.
func (e *Engine) redoApplyDelta(rs *replayState, obj wal.ObjectID, delta int64, lsn wal.LSN) error {
	la, ok := rs.applied[obj]
	if !ok {
		pl, err := e.store.PageLSN(obj)
		if err != nil {
			return err
		}
		la = pl
		rs.applied[obj] = la
	}
	if lsn <= la {
		return nil
	}
	if err := e.applyDelta(obj, delta, lsn); err != nil {
		return err
	}
	rs.applied[obj] = lsn
	rs.redone++
	return nil
}
