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
//	append commit record → release locks (violable) → group flush → ack
//
// Only the ack is deferred on durability.  A transaction that acquires
// a conflicting lock on an object whose pre-durable committer released
// it ("violates" the lock) forms an abort dependency on that committer;
// a never-logged violator's Commit waits on the highest such commit
// record (predurableHorizonLocked).  Nothing else needs the edge: a
// logged violator's own commit record has a higher LSN and flushes are
// prefix-ordered, so its ack (and any durable survival across a crash)
// already implies the predecessor's durability.  A failed flush rolls
// nothing back — recovery decides the committer from the log — so there
// is no cascade either.

// commitELR is Commit's early-lock-release tail: entered with the engine
// latch held, the commit record for tx already appended at lsn, and info
// current.  It releases tx's locks (marking them violable), waits for
// the group flush off-latch, and settles the commit (settleForceLocked).
func (e *Engine) commitELR(tx wal.TxID, info *txn.Info, lsn wal.LSN, start time.Time) error {
	// The appended commit record is the commit point: mark Committed
	// before unlatching so cascading aborts (Active victims only) cannot
	// undo the updates during the wait, exactly as in the plain commit
	// path — and release every lock now, which is the whole point: waiters
	// stop paying for this transaction's device sync.
	info.Status = txn.Committed
	info.LastLSN = lsn
	e.predurable[tx] = lsn
	e.locks.ReleaseAllViolable(tx)
	e.met.elrCommits.Inc()
	// The durability callback clears the violable markers promptly (so
	// acquirers stop forming edges) even though this committer may still
	// be parked on the flush channel.
	e.log.OnDurable(lsn, func(err error) { e.durableNotify(tx, lsn, err) })
	ch := e.log.FlushAsync(lsn)
	e.mu.Unlock()

	deferStart := time.Now()
	ferr := <-ch
	e.met.elrAckDeferNs.Observe(time.Since(deferStart))

	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.settleForceLocked(lsn, ferr); err != nil {
		// In doubt: the transaction keeps its predurable entry and its
		// violable markers until Crash, so acquirers keep forming edges
		// and a never-logged reader keeps waiting on this record.
		return err
	}
	if info := e.txns.Get(tx); info == nil || info.Status != txn.Committed {
		// Defensive: never finish a commit for a transaction the tables
		// disown.
		return fmt.Errorf("%w: %d", ErrNoSuchTxn, tx)
	}
	// Backstop the durability callback: the WAL drops ALL OnDurable
	// registrations with an error on any failed flush attempt — including
	// a direct Flush of a smaller prefix (e.g. a checkpoint) that never
	// tried our LSN — and durableNotify ignores error deliveries.  If the
	// record then became durable via a succeeding round, nothing else
	// would ever remove the predurable entry or the violable markers, and
	// later acquirers would keep forming abort edges on a long-durable
	// committer.  Both calls are no-ops in the common case where the
	// success delivery already cleaned up.
	delete(e.predurable, tx)
	e.locks.ClearViolable(tx)
	e.endCommitLocked(tx, lsn, start)
	return nil
}

// durableNotify is the wal.OnDurable callback for an early-lock-release
// commit: once tx's commit record (at lsn) is on stable storage its
// violable markers are moot — clear them so later acquirers stop forming
// edges.  The entry is validated against the predurable map before
// acting: TxIDs and LSNs are both reused after a crash, so a stale or
// failed delivery must never touch a reincarnated transaction's state.
// Failure deliveries are ignored outright — the committer's own flush
// wait (or Crash) settles those paths, and commitELR clears the entry
// and markers itself whenever it finds the commit durable, so a dropped
// or failed delivery is never load-bearing.
func (e *Engine) durableNotify(tx wal.TxID, lsn wal.LSN, err error) {
	if err != nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if pending, ok := e.predurable[tx]; !ok || pending != lsn {
		return
	}
	delete(e.predurable, tx)
	e.locks.ClearViolable(tx)
}

// noteViolationsLocked records the controlled lock violations tx just
// committed by acquiring a mode lock on obj: for every pre-durable
// committer whose early-released conflicting lock on obj is still
// marked, tx gains an abort dependency — tx read or overwrote data whose
// commit record is not yet durable.  Called under the engine latch right
// after the post-acquire revalidation; a marker whose releaser already
// left the predurable map (durability won a callback race) forms no edge.
func (e *Engine) noteViolationsLocked(tx wal.TxID, obj wal.ObjectID, mode lock.Mode) {
	if len(e.predurable) == 0 {
		return
	}
	hooked := e.reg.HasEventHook()
	for _, pred := range e.locks.Violators(tx, obj, mode) {
		if _, pending := e.predurable[pred]; !pending {
			continue
		}
		e.addDependencyEdgeLocked(tx, pred, AbortDependency)
		e.met.elrViolations.Inc()
		if hooked {
			e.reg.Emit(obs.Event{Name: "elr.violate", Tx: uint64(tx), Object: uint64(obj), Value: int64(pred)})
		}
	}
}

// predurableHorizonLocked returns the highest commit LSN among the
// pre-durable committers tx holds an abort dependency on (NilLSN if
// none): once the log is durable through it, prefix flushing makes every
// commit tx built on durable.
func (e *Engine) predurableHorizonLocked(tx wal.TxID) wal.LSN {
	horizon := wal.NilLSN
	for _, edge := range e.deps[tx] {
		if lsn, pending := e.predurable[edge.on]; pending && edge.kind == AbortDependency && lsn > horizon {
			horizon = lsn
		}
	}
	return horizon
}
