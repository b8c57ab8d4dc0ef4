package aries

import (
	"fmt"

	"ariesrh/internal/txn"
	"ariesrh/internal/wal"
)

// Recover restarts the engine: a forward analysis+redo pass from the last
// checkpoint repeats history; the backward undo pass then rolls back the
// losers by continually taking the maximum outstanding UndoNextLSN across
// all loser transactions, so the log is read in strictly decreasing LSN
// order (§3.3, Figure 3).
func (e *Engine) Recover() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.crashed {
		return fmt.Errorf("aries: Recover called without a crash")
	}

	scanStart := wal.LSN(1)
	analysisAfter := wal.NilLSN
	head := e.log.Head()
	if ckptEnd, err := e.master.Get(); err != nil {
		return err
	} else if ckptEnd != wal.NilLSN && ckptEnd <= head {
		rec, err := e.log.Get(ckptEnd)
		if err != nil {
			return err
		}
		if rec.Type != wal.TypeCheckpointEnd {
			return fmt.Errorf("aries: master record points at %v", rec.Type)
		}
		beginLSN, infos, dpt, err := decodeCkpt(rec.Payload)
		if err != nil {
			return err
		}
		for _, info := range infos {
			reg := e.txns.Register(info.ID)
			reg.Status = info.Status
			reg.LastLSN = info.LastLSN
			reg.UndoNextLSN = info.UndoNextLSN
		}
		redoStart := beginLSN
		for _, recLSN := range dpt {
			if recLSN == wal.NilLSN {
				redoStart = 1
				break
			}
			if recLSN < redoStart {
				redoStart = recLSN
			}
		}
		scanStart = redoStart
		analysisAfter = ckptEnd
	}

	// Forward pass: analysis + redo.
	applied := make(map[wal.ObjectID]wal.LSN)
	err := e.log.Scan(scanStart, wal.NilLSN, func(rec *wal.Record) (bool, error) {
		e.stats.RecForwardRecords++
		analyze := rec.LSN > analysisAfter
		switch rec.Type {
		case wal.TypeBegin:
			// Logs written before Begin became lazy open each chain with one.
			if analyze {
				info := e.txns.Register(rec.TxID)
				info.Status = txn.Active
				info.LastLSN = rec.LSN
				info.UndoNextLSN = rec.LSN
			}
		case wal.TypeUpdate:
			if analyze {
				info := e.txns.Register(rec.TxID)
				info.LastLSN = rec.LSN
				info.UndoNextLSN = rec.LSN
			}
			if err := e.redoApply(applied, rec.Object, rec.After, rec.LSN); err != nil {
				return false, err
			}
		case wal.TypeCLR:
			if analyze {
				if info := e.txns.Get(rec.TxID); info != nil {
					info.LastLSN = rec.LSN
					info.UndoNextLSN = rec.UndoNextLSN
				}
			}
			if err := e.redoApply(applied, rec.Object, rec.Before, rec.LSN); err != nil {
				return false, err
			}
		case wal.TypeCommit, wal.TypeAbort, wal.TypeEnd:
			// A commit or abort record ends its transaction's chain, as in
			// ARIES/RH; older logs follow each with an end record.
			if analyze {
				if rec.Type == wal.TypeCommit {
					e.stats.RecWinners++
				}
				e.txns.Remove(rec.TxID)
			}
		case wal.TypeCheckpointBegin, wal.TypeCheckpointEnd:
		case wal.TypeDelegate:
			return false, fmt.Errorf("aries: delegate record %d in a conventional ARIES log", rec.LSN)
		default:
			return false, fmt.Errorf("aries: unexpected record %v", rec.Type)
		}
		return true, nil
	})
	if err != nil {
		return err
	}

	// Classify and undo losers: continually take the max UndoNextLSN.
	undoNext := make(map[wal.TxID]wal.LSN)
	for _, info := range e.txns.Snapshot() {
		e.stats.RecLosers++
		undoNext[info.ID] = info.UndoNextLSN
	}
	for len(undoNext) > 0 {
		var maxTx wal.TxID
		var maxLSN wal.LSN
		for id, lsn := range undoNext {
			if lsn >= maxLSN {
				maxLSN = lsn
				maxTx = id
			}
		}
		if maxLSN == wal.NilLSN {
			break
		}
		rec, err := e.log.Get(maxLSN)
		if err != nil {
			return err
		}
		e.stats.RecBackwardVisited++
		info := e.txns.Get(maxTx)
		switch rec.Type {
		case wal.TypeUpdate:
			clr := &wal.Record{
				Type:        wal.TypeCLR,
				TxID:        maxTx,
				PrevLSN:     info.LastLSN,
				Object:      rec.Object,
				Before:      rec.Before,
				UndoNextLSN: rec.PrevLSN,
				Compensates: rec.LSN,
			}
			lsn, err := e.log.Append(clr)
			if err != nil {
				return err
			}
			if err := e.store.Write(rec.Object, rec.Before, lsn); err != nil {
				return err
			}
			info.LastLSN = lsn
			e.stats.CLRs++
			e.stats.RecCLRs++
			undoNext[maxTx] = rec.PrevLSN
		case wal.TypeCLR:
			undoNext[maxTx] = rec.UndoNextLSN
		default:
			undoNext[maxTx] = rec.PrevLSN
		}
		if undoNext[maxTx] == wal.NilLSN {
			delete(undoNext, maxTx)
		}
	}
	for _, info := range e.txns.Snapshot() {
		if _, err := e.log.Append(&wal.Record{Type: wal.TypeAbort, TxID: info.ID, PrevLSN: info.LastLSN}); err != nil {
			return err
		}
		e.txns.Remove(info.ID)
	}
	if err := e.log.Flush(e.log.Head()); err != nil {
		return err
	}
	e.crashed = false
	return nil
}

// redoApply repeats history for one logged change (see the identically
// named helper in internal/core for the pageLSN-coverage argument).
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
