package core

import (
	"fmt"
	"time"

	"ariesrh/internal/lock"
	"ariesrh/internal/txn"
	"ariesrh/internal/wal"
)

// Two-phase-commit participant hooks for internal/shard's per-shard-logged
// 2PC.  There is no separate coordinator log: every record of the protocol
// rides some participant shard's own WAL.  A participant votes yes by
// forcing a prepare record (Prepare); the coordinator shard's decision IS
// the commit record of its own local transaction — whose prepare record
// ties the global id to it durably — and the protocol is presumed-abort:
// a global transaction with no durable commit decision on its coordinator
// shard aborted.
//
// Only what another shard relies on is forced: a participant's vote (the
// coordinator decides on it) and the coordinator's decision (every
// participant resolves from it).  The coordinator's own prepare record
// rides the decision's force, because flushes are prefix-ordered, and a
// participant's phase-2 commit record rides whatever force comes next on
// its shard: the decision already fixes the outcome, as long as the
// coordinator retains it until that record is durable (internal/shard
// releases it no sooner).
//
// After a crash, recovery's forward pass leaves every prepared-but-
// undecided local transaction in the table with status txn.Prepared:
// neither winner nor loser, its effects redone and not undone, its locks
// re-acquired, until InDoubt/GlobalDecision/CommitPrepared/AbortPrepared
// resolve it (internal/shard does this at open).

// ErrNotPrepared is returned by CommitPrepared and AbortPrepared when the
// transaction has no durable prepare record (it is not in-doubt).
var ErrNotPrepared = fmt.Errorf("core: transaction is not prepared")

// preparedInfo is the volatile bookkeeping for one prepared local
// transaction: which global transaction it participates in, which shard
// coordinates that global transaction, and where its prepare record
// landed on this shard's log.
type preparedInfo struct {
	gid        uint64
	coord      uint32
	prepareLSN wal.LSN
}

// globalDecision is a retained coordinator-side commit decision: the
// global transaction committed, decided by the commit record at
// decideLSN of the coordinator-local transaction whose prepare record
// (at prepareLSN) bound the gid.  Entries pin the archive at prepareLSN
// until ReleaseGlobal so a recovering peer shard can always re-derive
// the decision from this shard's log or checkpoint.  Presumed abort
// means aborted global transactions retain nothing.
type globalDecision struct {
	prepareLSN wal.LSN
}

// InDoubtTxn describes one unresolved prepared local transaction, as
// reported by InDoubt after recovery.
type InDoubtTxn struct {
	// Tx is the local transaction id on this shard.
	Tx wal.TxID
	// GID is the cross-shard transaction it participates in.
	GID uint64
	// Coord is the index of the shard coordinating GID — the shard whose
	// log holds (or durably lacks) the decision.
	Coord uint32
}

// Prepare votes yes on behalf of tx for the cross-shard transaction gid
// coordinated by shard coord: it appends a prepare record to tx's own
// backward chain and, on a participant shard (coord is not this
// engine's ShardID), forces the log through it.  On return the
// transaction is txn.Prepared — it holds its locks, refuses Update/
// Delegate/Commit/Abort, and survives a crash as an in-doubt transaction
// that only CommitPrepared, AbortPrepared or recovery-time resolution
// can finish.
//
// Crash contract: on a participant, a nil return means the prepare record
// is durable — the vote stands, and after any crash the transaction
// re-enters the table as in-doubt rather than being rolled back as a
// loser.  An error return means the vote was never cast: the record may
// or may not be durable, but the transaction stays Active (abortable),
// and a crash before a durable prepare resolves it as an ordinary loser.
// On the coordinator the record is not forced: nobody waits on the
// coordinator's vote, and the decision's force covers it.  A crash before
// that force leaves a coordinator branch that is either a plain loser (no
// durable prepare) or in doubt with no decision on its own log, which
// resolution presumes aborted.
func (e *Engine) Prepare(tx wal.TxID, gid uint64, coord uint32) error {
	start := time.Now()
	e.mu.Lock()
	if err := e.writableLocked(); err != nil {
		e.mu.Unlock()
		return err
	}
	info, err := e.activeInfo(tx)
	if err != nil {
		e.mu.Unlock()
		return err
	}
	if err := e.checkCommitDependenciesLocked(info); err != nil {
		e.mu.Unlock()
		return err
	}
	prevLast := info.LastLSN
	lsn, err := e.log.Append(&wal.Record{Type: wal.TypePrepare, TxID: tx, PrevLSN: prevLast, GID: gid, Shard: coord})
	if err != nil {
		e.mu.Unlock()
		return err
	}
	// Mark Prepared before any unlatched wait so cascading aborts (which
	// victimize Active transactions only) cannot roll the voter back
	// while its prepare record is in flight to the device.
	info.Status = txn.Prepared
	info.LastLSN = lsn
	info.prep, info.prepared = preparedInfo{gid: gid, coord: coord, prepareLSN: lsn}, true
	if gid > e.maxGID {
		e.maxGID = gid
	}
	if coord == e.opts.ShardID {
		e.met.prepares.Inc()
		e.mu.Unlock()
		return nil
	}

	e.log.FlushAsync(lsn, info.wait)
	e.mu.Unlock()
	ferr := <-info.wait

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	if ferr != nil {
		// The vote was never cast: the coordinator is told no and,
		// under presumed abort, aborts.  Unlike a commit record, a
		// prepare record decides nothing by itself, so the vote can be
		// taken back live: return the transaction to Active, abortable,
		// with its chain rewound past the prepare record.
		if e.recs[tx] == info && info.Status == txn.Prepared {
			info.Status = txn.Active
			info.LastLSN = prevLast
			info.prepared = false
		}
		e.degradeLocked(ferr)
		return ferr
	}
	e.met.prepares.Inc()
	e.met.prepareNs.Observe(time.Since(start))
	return nil
}

// CommitPrepared commits a prepared transaction and returns the LSN of its
// commit record: the decision half of the protocol.  On the coordinator
// shard (the engine whose ShardID the prepare record named as
// coordinator) this is the global decision — the forced commit record
// following tx's prepare record is what makes gid committed, and the
// engine retains the decision (queryable via GlobalDecision, archive-
// pinned at the prepare record) until ReleaseGlobal.  On a participant
// shard it applies a decision already durable at the coordinator: it
// appends the commit record, releases the locks and returns without a
// force, retaining nothing — only the coordinator's log answers decision
// queries, so a participant entry would just pin that shard's archive
// forever.
//
// Crash contract, coordinator: a nil return means the commit record is
// durable and the transaction is finished (locks released, tables
// cleaned).  On a failed force the transaction stays committed, in doubt,
// exactly as Commit leaves it: the error wraps ErrInDoubt, the engine
// degrades, the transaction keeps its locks and its prepared entry
// (InDoubt lists it, AbortPrepared refuses it), and the next Recover
// settles it from the log — committed if the record is durable, a loser or
// prepared again otherwise.
//
// Crash contract, participant: a nil return means the transaction is
// finished in volatile state; its commit record is durable only once the
// log is flushed through the returned LSN.  A crash before that brings
// the transaction back in doubt, and resolution commits it again from the
// coordinator's decision — so the coordinator must retain the decision
// (not ReleaseGlobal it) until this shard's log is durable through the
// returned LSN.
func (e *Engine) CommitPrepared(tx wal.TxID) (wal.LSN, error) {
	start := time.Now()
	e.mu.Lock()
	if err := e.writableLocked(); err != nil {
		e.mu.Unlock()
		return wal.NilLSN, err
	}
	info := e.recs[tx]
	if info == nil || info.Status != txn.Prepared || !info.prepared {
		e.mu.Unlock()
		return wal.NilLSN, fmt.Errorf("%w: t%d", ErrNotPrepared, tx)
	}
	pi := info.prep
	lsn, err := e.log.Append(&wal.Record{Type: wal.TypeCommit, TxID: tx, PrevLSN: info.LastLSN})
	if err != nil {
		e.mu.Unlock()
		return wal.NilLSN, err
	}
	info.Status = txn.Committed
	info.LastLSN = lsn
	if pi.coord != e.opts.ShardID {
		e.met.twopcCommits.Inc()
		e.endCommitLocked(info, lsn, start)
		e.mu.Unlock()
		return lsn, nil
	}

	e.log.FlushAsync(lsn, info.wait)
	e.mu.Unlock()
	ferr := <-info.wait

	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.settleForceLocked(lsn, ferr); err != nil {
		return wal.NilLSN, err
	}
	if e.recs[tx] != info {
		return wal.NilLSN, fmt.Errorf("%w: %d", ErrNoSuchTxn, tx)
	}
	e.globals[pi.gid] = globalDecision{prepareLSN: pi.prepareLSN}
	e.noteGlobalsLocked()
	e.met.twopcCommits.Inc()
	e.endCommitLocked(info, lsn, start)
	return lsn, nil
}

// AbortPrepared rolls back a prepared transaction — the presumed-abort
// resolution of an in-doubt participant whose coordinator has no durable
// commit decision.  Identical to Abort thereafter: every update the
// transaction is responsible for is undone with CLRs, the abort needs no
// durability of its own (recovery re-aborts idempotently), and a device
// error degrades the engine rather than failing the abort.
func (e *Engine) AbortPrepared(tx wal.TxID) error {
	e.mu.Lock()
	if e.crashed {
		e.mu.Unlock()
		return ErrCrashed
	}
	if e.recovering != nil {
		e.mu.Unlock()
		return ErrRecovering
	}
	info := e.recs[tx]
	if info == nil || info.Status != txn.Prepared {
		e.mu.Unlock()
		return fmt.Errorf("%w: t%d", ErrNotPrepared, tx)
	}
	// Re-enter the ordinary abort path: flip to Active (abortLocked
	// victimizes Active transactions) and drop the prepared entry — the
	// abort record terminates the chain, so the vote is void.
	info.Status = txn.Active
	info.prepared = false
	e.met.twopcAborts.Inc()
	return e.abortAndForce(tx)
}

// InDoubt returns the prepared local transactions whose global decision
// this engine does not itself hold, sorted by local transaction id: every
// transaction with a live prepare, whether still Prepared or — on the
// coordinator — committed and waiting on (or in doubt after) its decision
// force.  After recovery these are exactly the transactions a shard must
// resolve against their coordinator shards before serving writes.
func (e *Engine) InDoubt() []InDoubtTxn {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []InDoubtTxn
	for tx, r := range e.recs {
		if r.prepared {
			out = append(out, InDoubtTxn{Tx: tx, GID: r.prep.gid, Coord: r.prep.coord})
		}
	}
	sortInDoubt(out)
	return out
}

func sortInDoubt(s []InDoubtTxn) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Tx < s[j-1].Tx; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// GlobalDecision reports this shard's decision for the cross-shard
// transaction gid: committed is true when a durable commit decision
// exists here (this shard coordinated gid and committed it).  With
// presumed abort, an unknown gid IS the abort decision — peers treat
// committed == false as "abort", so the answer is total and needs no
// error path.  Answerable in every state, including degraded: the
// decision was made durable before it was ever recorded here.
func (e *Engine) GlobalDecision(gid uint64) (committed bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.globals[gid]
	return ok
}

// ReleaseGlobal drops the retained commit decision for gid, unpinning
// the archive below its prepare record.  Call it only when every
// participant's log is durable through its commit record (the LSN its
// CommitPrepared returned) — after that no recovery anywhere can ask for
// the decision again (a participant with a durable commit record resolves
// forward on its own).  Released any sooner, a checkpoint here drops the
// decision, and a crash then presumes a committed participant aborted.
func (e *Engine) ReleaseGlobal(gid uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.globals, gid)
	e.noteGlobalsLocked()
}

// ReleaseAllGlobals drops every retained commit decision at once.  A
// sharded DB calls it on all shards after open-time resolution: once no
// in-doubt transaction remains anywhere, no shard can ever ask for a
// decision again, so the pins are dead weight.
func (e *Engine) ReleaseAllGlobals() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.globals = make(map[uint64]globalDecision)
	e.noteGlobalsLocked()
}

// noteGlobalsLocked publishes the number of retained decisions — what
// pins this shard's archive on behalf of its peers — as the
// twopc.retained_decisions gauge.
func (e *Engine) noteGlobalsLocked() {
	e.met.retainedDecisions.Set(int64(len(e.globals)))
}

// MaxSeenGID returns the highest cross-shard transaction id this engine
// has observed (via Prepare, recovery analysis, or checkpoint state); a
// sharded DB restarts its gid counter above the maximum across shards so
// ids never repeat after a crash.
func (e *Engine) MaxSeenGID() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.maxGID
}

// ResolveInDoubt applies a coordinator decision to one in-doubt
// transaction after recovery: CommitPrepared when the coordinator holds
// a durable commit decision, AbortPrepared otherwise (presumed abort).
// It exists so resolution is counted distinctly from normal-processing
// 2PC traffic (twopc.indoubt_committed / twopc.indoubt_aborted).
//
// Crash contract: that of CommitPrepared or AbortPrepared respectively;
// resolution is idempotent across crashes — an unresolved participant
// simply comes back in-doubt and is resolved again.  A commit resolution
// on a participant is not forced, so the caller must flush this shard's
// log before the coordinator releases the decision.
func (e *Engine) ResolveInDoubt(tx wal.TxID, commit bool) error {
	if commit {
		if _, err := e.CommitPrepared(tx); err != nil {
			return err
		}
		e.met.indoubtCommitted.Inc()
		return nil
	}
	if err := e.AbortPrepared(tx); err != nil {
		return err
	}
	e.met.indoubtAborted.Inc()
	return nil
}

// DelegateOut logs the home-shard half of a cross-shard delegation:
// responsibility for obj moves from local transaction tor to local
// transaction tee on THIS shard's log — exactly as Delegate — with the
// record additionally naming the delegatee's global transaction (gid)
// and coordinator shard (peer).  Cluster undo stays local: after a
// crash, this shard alone can rewrite obj's history correctly because
// the scope transfer is on its own log.
//
// Crash contract: identical to Delegate — the record needs no force of
// its own (recovery replays it during analysis), and a crash before it
// is durable simply leaves responsibility with tor.
func (e *Engine) DelegateOut(tor, tee wal.TxID, obj wal.ObjectID, gid uint64, peer uint32) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.writableLocked(); err != nil {
		return err
	}
	if err := e.delegateAsLocked(tor, tee, obj, wal.TypeDelegateOut, gid, peer); err != nil {
		return err
	}
	e.met.delegateOuts.Inc()
	return nil
}

// DelegateIn logs the acquirer-side half of a cross-shard delegation on
// this (the delegatee's coordinator) shard: a bookkeeping record on tx's
// backward chain saying the global transaction gid took responsibility
// for obj, which lives on shard home.  No volatile state changes — the
// object, its scopes, and the undo work all stay on the home shard —
// so redo and undo both skip the record.
//
// Crash contract: the record needs no force; it exists so the
// coordinator shard's log tells the full story of gid for audit and so
// the delegatee's chain reflects the acquisition.
func (e *Engine) DelegateIn(tx wal.TxID, obj wal.ObjectID, gid uint64, home uint32) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.writableLocked(); err != nil {
		return err
	}
	info, err := e.activeInfo(tx)
	if err != nil {
		return err
	}
	lsn, err := e.log.Append(&wal.Record{Type: wal.TypeDelegateIn, TxID: tx, PrevLSN: info.LastLSN, Object: obj, GID: gid, Shard: home})
	if err != nil {
		return err
	}
	info.LastLSN = lsn
	e.met.delegateIns.Inc()
	return nil
}

// relockInDoubtLocked re-acquires object locks for every in-doubt
// transaction after recovery's backward pass: a crash emptied the lock
// table, but a prepared transaction still holds its write intent until
// the decision arrives, and no new transaction may touch its objects
// meanwhile.  Objects delegated between in-doubt transactions are shared
// between their holders, exactly as Delegate left them.  The caller owns
// the transaction table (latch held, or pipeline finisher).
func (e *Engine) relockInDoubtLocked() error {
	holders := make(map[wal.ObjectID]wal.TxID)
	for tx, r := range e.recs {
		if !r.prepared || r.Status != txn.Prepared {
			continue
		}
		for _, obj := range r.obs.Objects() {
			if first, locked := holders[obj]; locked {
				if err := e.locks.Share(first, tx, obj); err != nil {
					return err
				}
				continue
			}
			// Nothing else can hold obj between recovery and this call, so
			// the acquire cannot block.
			if err := e.locks.Acquire(tx, obj, lock.Exclusive); err != nil {
				return err
			}
			holders[obj] = tx
		}
	}
	return nil
}
