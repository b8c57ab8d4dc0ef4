package core

import (
	"fmt"
	"time"

	"ariesrh/internal/lock"
	"ariesrh/internal/obs"
	"ariesrh/internal/txn"
	"ariesrh/internal/wal"
)

// Early lock release (controlled lock violation).  See the
// Options.EarlyLockRelease contract in engine.go and the "Commit
// pipeline" section of ARCHITECTURE.md.  The pipeline is:
//
//	append commit record → release locks (stamped) → group flush → ack
//
// Only the ack is deferred on durability.  The released write locks
// carry a stamp of the commit record (internal/lock).  A transaction
// that acquires a conflicting lock over a stamp not yet durable
// ("violates" the lock) raises its horizon to that record, and a
// never-logged violator's Commit waits for the log to be durable
// through its horizon (commitUnlogged).  Nothing else needs it: a logged
// violator's own commit record has a higher LSN and flushes are
// prefix-ordered, so its ack (and any durable survival across a crash)
// already implies the predecessor's durability.  A failed flush rolls
// nothing back — recovery decides the committer from the log — so
// nothing cascades either.

// commitELR is Commit's early-lock-release tail: entered with the engine
// latch held, the commit record for tx already appended at lsn, and info
// current.  It releases tx's locks, stamping them with lsn, waits for
// the group flush off-latch, and settles the commit (settleForceLocked).
func (e *Engine) commitELR(tx wal.TxID, info *txn.Info, lsn wal.LSN, start time.Time) error {
	// The appended commit record is the commit point: mark Committed
	// before unlatching so cascading aborts (Active victims only) cannot
	// undo the updates during the wait, exactly as in the plain commit
	// path — and release every lock now, which is the whole point: waiters
	// stop paying for this transaction's device sync.
	info.Status = txn.Committed
	info.LastLSN = lsn
	e.locks.ReleaseAll(tx, lock.Early{Commit: lsn, Flushed: e.log.FlushedLSN()})
	e.met.elrCommits.Inc()
	ch := e.log.FlushAsync(lsn)
	e.mu.Unlock()

	deferStart := time.Now()
	ferr := <-ch
	e.met.elrAckDeferNs.Observe(time.Since(deferStart))

	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.settleForceLocked(lsn, ferr); err != nil {
		// In doubt: the record is not durable, so its stamps stay live
		// until Crash and a never-logged reader keeps waiting on it.
		return err
	}
	if info := e.txns.Get(tx); info == nil || info.Status != txn.Committed {
		// Defensive: never finish a commit for a transaction the tables
		// disown.
		return fmt.Errorf("%w: %d", ErrNoSuchTxn, tx)
	}
	e.endCommitLocked(tx, lsn, start)
	return nil
}

// passStampLocked charges info's transaction, just granted obj in mode,
// with the live stamp the grant passed, if any: the transaction may have
// read or overwritten data whose commit record is not yet durable, so
// its horizon rises to that record.  Called under the engine latch right
// after the post-acquire revalidation.  While the transaction holds its
// lock no conflicting lock on obj can be released, so the stamp it
// passed is still the newest conflicting one.
func (e *Engine) passStampLocked(info *txn.Info, obj wal.ObjectID, mode lock.Mode) {
	if !e.opts.EarlyLockRelease {
		return
	}
	lsn, pred := e.locks.Stamp(obj, mode, e.log.FlushedLSN())
	if lsn == wal.NilLSN {
		return
	}
	info.Horizon = max(info.Horizon, lsn)
	e.met.elrViolations.Inc()
	if e.reg.HasEventHook() {
		e.reg.Emit(obs.Event{Name: "elr.violate", Tx: uint64(info.ID), Object: uint64(obj), Value: int64(pred)})
	}
}
