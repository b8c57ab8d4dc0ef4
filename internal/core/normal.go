package core

import (
	"errors"
	"fmt"
	"time"

	"ariesrh/internal/delegation"
	"ariesrh/internal/lock"
	"ariesrh/internal/obs"
	"ariesrh/internal/txn"
	"ariesrh/internal/wal"
)

// Begin starts a new transaction and returns its ID (§3.5 begin: add to
// Tr_List, create Ob_List).  Nothing is logged: a transaction's first
// record is its first update, increment, delegation or prepare, which
// heads its backward chain with PrevLSN NilLSN.  Until then LastLSN is
// NilLSN — "never logged" — and Commit and Abort write and force nothing.
func (e *Engine) Begin() (wal.TxID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.writableLocked(); err != nil {
		return wal.NilTx, err
	}
	r := e.newRecordLocked(e.nextTx)
	e.nextTx++
	e.met.begins.Inc()
	return r.ID, nil
}

// activeInfo returns the record of tx if it is active.
func (e *Engine) activeInfo(tx wal.TxID) (*record, error) {
	r := e.recs[tx]
	if r == nil || r.Status != txn.Active {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchTxn, tx)
	}
	return r, nil
}

// acquireLock blocks, without the engine latch, until tx holds obj in
// mode.  A wait that Crash cut short — the lock table was reset under it —
// reports ErrCrashed; a wait that tx's termination cancelled reports
// ErrNoSuchTxn, as activeInfo would for the terminated transaction.
func (e *Engine) acquireLock(tx wal.TxID, obj wal.ObjectID, mode lock.Mode) error {
	err := e.locks.Acquire(tx, obj, mode)
	switch {
	case errors.Is(err, lock.ErrReset):
		return ErrCrashed
	case errors.Is(err, lock.ErrCancelled):
		return fmt.Errorf("%w: %d", ErrNoSuchTxn, tx)
	}
	return err
}

// activeAfterLockLocked revalidates tx after an unlatched lock wait.
// Termination cancels a queued request (lock.ErrCancelled), so the one
// window left is between the caller dropping the latch and entering
// lock.Acquire: a transaction terminated there — a cascading abort, or a
// deadlock victimization on another of its own goroutines — is granted
// afresh, and that hold must be dropped here, or the object stays blocked
// forever.  The caller holds the engine latch, having re-acquired it
// after the lock grant.
func (e *Engine) activeAfterLockLocked(tx wal.TxID) (*record, error) {
	info, err := e.activeInfo(tx)
	if err != nil {
		e.locks.ReleaseAll(tx)
		return nil, err
	}
	return info, nil
}

// Read returns the value of obj under a shared lock held by tx.  Absent
// objects read as an empty value (objects are registers; see
// internal/object).
func (e *Engine) Read(tx wal.TxID, obj wal.ObjectID) ([]byte, error) {
	e.mu.Lock()
	if e.crashed {
		e.mu.Unlock()
		return nil, ErrCrashed
	}
	if _, err := e.activeInfo(tx); err != nil {
		e.mu.Unlock()
		return nil, err
	}
	e.mu.Unlock()

	if err := e.acquireLock(tx, obj, lock.Shared); err != nil {
		return nil, err
	}

	// See Update: take the page fault before re-acquiring the latch.
	e.store.Prefetch(obj)

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return nil, ErrCrashed
	}
	info, err := e.activeAfterLockLocked(tx)
	if err != nil {
		return nil, err
	}
	e.passStampLocked(info, obj, lock.Shared)
	v, _, err := e.store.Read(obj)
	if err != nil {
		return nil, err
	}
	e.met.reads.Inc()
	return v, nil
}

// Update performs update[tx, obj] ← val (§3.5 update): it X-locks the
// object, logs the physical before/after images, adjusts tx's scope on the
// object (open a new scope on the first update since begin or since tx
// last delegated obj; extend the active scope otherwise), and applies the
// change in place.
func (e *Engine) Update(tx wal.TxID, obj wal.ObjectID, val []byte) error {
	start := time.Now()
	e.mu.Lock()
	if err := e.writableLocked(); err != nil {
		e.mu.Unlock()
		return err
	}
	if _, err := e.activeInfo(tx); err != nil {
		e.mu.Unlock()
		return err
	}
	e.mu.Unlock()

	if err := e.acquireLock(tx, obj, lock.Exclusive); err != nil {
		return err
	}

	// Latch-scope reduction: fault the object's page into the buffer pool
	// now, while no latch is held, so the latched section below hits
	// memory.  Any page-fault read — and any eviction write-back with its
	// WAL-rule log flush — lands on this goroutine instead of stalling
	// every other transaction behind the engine latch.
	e.store.Prefetch(obj)

	e.mu.Lock()
	defer e.mu.Unlock()
	// Revalidate before anything else can return: a transaction terminated
	// during the wait must drop the grant it just received whatever state
	// the engine is in.  A live one keeps its grant across the check
	// below and can still abort (which releases everything).
	info, err := e.activeAfterLockLocked(tx)
	if err != nil {
		return err
	}
	if err := e.writableLocked(); err != nil {
		return err
	}
	e.passStampLocked(info, obj, lock.Exclusive)
	// The before-image goes into the engine's scratch buffer: Append
	// copies it into the record's frame, so nothing outlives the latch.
	before, _, err := e.store.AppendValue(e.scratch[:0], obj)
	if err != nil {
		return err
	}
	e.scratch = before
	lsn, err := e.log.Append(&wal.Record{
		Type:    wal.TypeUpdate,
		TxID:    tx,
		PrevLSN: info.LastLSN,
		Object:  obj,
		Before:  before,
		After:   val,
	})
	if err != nil {
		return err
	}
	// The update is on the log: complete ALL volatile bookkeeping — scope
	// and backward chain — before touching the page, so a failed page
	// write leaves the tables consistent with the log and Abort (or
	// recovery) can compensate the logged update.  Advancing LastLSN
	// only after the write would leave a logged update outside the
	// backward chain on error.
	info.obs.RecordUpdate(tx, obj, lsn)
	info.LastLSN = lsn
	if err := e.store.Write(obj, val, lsn); err != nil {
		return err
	}
	e.met.updates.Inc()
	e.met.updateNs.Observe(time.Since(start))
	return nil
}

// Delegate executes delegate(tor, tee, obj) (§3.5): after checking the
// precondition (tor is responsible for updates on obj), it writes a
// delegate log record linked into both backward chains and transfers the
// object's scopes from tor's Ob_List to tee's.  The delegatee also
// inherits tor's lock on the object, broadening its visibility.
func (e *Engine) Delegate(tor, tee wal.TxID, obj wal.ObjectID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.writableLocked(); err != nil {
		return err
	}
	return e.delegateLocked(tor, tee, obj)
}

// delegateLocked is Delegate's body; the caller holds the engine latch.
// Factored out so DelegateAll can apply a whole batch under one latch
// acquisition.
func (e *Engine) delegateLocked(tor, tee wal.TxID, obj wal.ObjectID) error {
	return e.delegateAsLocked(tor, tee, obj, wal.TypeDelegate, 0, 0)
}

// delegateAsLocked is the shared body of Delegate and DelegateOut: the
// record type distinguishes a purely local delegation from the home-shard
// half of a cross-shard one (which additionally stamps the delegatee's
// global transaction id and coordinator shard onto the record).  The
// volatile effects are identical — responsibility moves between two LOCAL
// transactions on this engine's log either way.
func (e *Engine) delegateAsLocked(tor, tee wal.TxID, obj wal.ObjectID, typ wal.RecordType, gid uint64, peer uint32) error {
	start := time.Now()
	if tor == tee {
		return fmt.Errorf("core: delegate(t%d, t%d): delegator and delegatee must differ", tor, tee)
	}
	torInfo, err := e.activeInfo(tor)
	if err != nil {
		return err
	}
	teeInfo, err := e.activeInfo(tee)
	if err != nil {
		return err
	}
	// WELL-FORMED?  (§3.5 step 1)
	if !torInfo.obs.Has(obj) {
		return fmt.Errorf("%w: t%d does not hold updates on object %d", ErrNotResponsible, tor, obj)
	}
	// PREPARE + WRITE DELEGATION LOG RECORD (§3.5 steps 2 and 4).
	rec := &wal.Record{
		Type:    typ,
		TxID:    tor,
		PrevLSN: torInfo.LastLSN,
		Tor:     tor,
		Tee:     tee,
		TorPrev: torInfo.LastLSN,
		TeePrev: teeInfo.LastLSN,
		Object:  obj,
		GID:     gid,
		Shard:   peer,
	}
	lsn, err := e.log.Append(rec)
	if err != nil {
		return err
	}
	// TRANSFER RESPONSIBILITY (§3.5 step 3).
	torInfo.obs.DelegateTo(&teeInfo.obs, tor, obj)
	// The delegatee inherits a hold on the delegator's lock so the
	// delegated updates stay protected by their (new) responsible
	// transaction; the delegator keeps its own hold and may continue to
	// operate on the object (§2.1.2).  Third parties remain excluded
	// until every holder terminates.
	if _, held := e.locks.Holds(tor, obj); held {
		if err := e.locks.Share(tor, tee, obj); err != nil {
			return err
		}
	}
	// The delegatee now owns updates that may rest on pre-durable data
	// the delegator read, so it waits on whatever the delegator would.
	teeInfo.Horizon = max(teeInfo.Horizon, torInfo.Horizon)
	// The delegate record heads both backward chains.
	torInfo.LastLSN = lsn
	teeInfo.LastLSN = lsn
	e.met.delegations.Inc()
	e.met.delegateNs.Observe(time.Since(start))
	if e.reg.HasEventHook() {
		e.reg.Emit(obs.Event{Name: "txn.delegate", Tx: uint64(tor), LSN: uint64(lsn), Object: uint64(obj), Value: int64(tee)})
	}
	return nil
}

// DelegateAll delegates every object in tor's Ob_List to tee — the
// "delegate(t2, t1)" form used by join and nested-transaction commit
// (§2.2).  The delegations are applied atomically with respect to other
// engine operations.
func (e *Engine) DelegateAll(tor, tee wal.TxID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.writableLocked(); err != nil {
		return err
	}
	r := e.recs[tor]
	if r == nil {
		return fmt.Errorf("%w: %d", ErrNoSuchTxn, tor)
	}
	// The latch is held across the whole loop: no other operation — in
	// particular no termination of tor or tee — can interleave between
	// the per-object delegations.
	for _, obj := range r.obs.Objects() {
		if err := e.delegateLocked(tor, tee, obj); err != nil {
			return err
		}
	}
	return nil
}

// Permit grants grantee access to holder's lock on obj without
// transferring responsibility — ASSET's permit primitive: data sharing
// without forming dependencies.  Nothing is logged; permits are pure
// visibility and play no role in recovery.
func (e *Engine) Permit(holder, grantee wal.TxID, obj wal.ObjectID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.writableLocked(); err != nil {
		return err
	}
	if _, err := e.activeInfo(holder); err != nil {
		return err
	}
	if _, err := e.activeInfo(grantee); err != nil {
		return err
	}
	if _, held := e.locks.Holds(holder, obj); !held {
		return fmt.Errorf("core: permit of object %d from t%d which holds no lock", obj, holder)
	}
	return e.locks.Share(holder, grantee, obj)
}

// ObjectsOf returns the objects tx is currently responsible for (its
// Ob_List), sorted.
func (e *Engine) ObjectsOf(tx wal.TxID) ([]wal.ObjectID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.recs[tx]
	if r == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchTxn, tx)
	}
	return r.obs.Objects(), nil
}

// Commit commits tx (§3.5): the operations tx is responsible for are
// already on the log; a commit record is appended and the log is flushed
// through it before the commit is acknowledged.
//
// The flush happens off-latch: the commit record is appended under the
// latch, the latch is released, and the committer waits on
// wal.Log.FlushAsync — one device sync then covers every commit record
// queued meanwhile, and unrelated operations (Update/Delegate/Read)
// proceed during the sync instead of stalling behind it.
//
// Crash contract: a nil return means the commit record is durable.  Once
// the record is appended only the log decides the outcome: if the force
// fails, Commit returns ErrInDoubt wrapping the device error and the
// engine degrades.  The transaction stays committed, in doubt — it keeps
// its locks, and Abort refuses it — until Crash + Recover settles it by
// whether the record reached the device.  (A failed round that a later
// round made durable anyway is simply a commit: Commit returns nil.)
//
// A transaction that never logged a record (LastLSN NilLSN) has nothing
// for recovery to read: it appends no commit record and forces nothing
// (see commitUnlogged).
func (e *Engine) Commit(tx wal.TxID) error {
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
	if info.LastLSN == wal.NilLSN {
		return e.commitUnlogged(info, start)
	}
	lsn, err := e.log.Append(&wal.Record{Type: wal.TypeCommit, TxID: tx, PrevLSN: info.LastLSN})
	if err != nil {
		e.mu.Unlock()
		return err
	}

	if e.opts.EarlyLockRelease {
		// Early lock release: release the locks at the commit point and
		// defer only the durability ack.  See internal/core/elr.go.
		return e.commitELR(info, lsn, start)
	}

	// The appended commit record is the commit point: mark the transaction
	// Committed *before* releasing the latch so cascading aborts (which
	// only victimize Active transactions) cannot undo its updates during
	// the unlatched wait.  A dependent that observes the Committed status
	// and commits ahead of us is safe: its commit record has a higher LSN,
	// and flushes are prefix-ordered, so it cannot become durable unless
	// ours does.
	info.Status = txn.Committed
	info.LastLSN = lsn
	e.log.FlushAsync(lsn, info.wait)
	e.mu.Unlock()
	ferr := <-info.wait

	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.settleForceLocked(lsn, ferr); err != nil {
		return err
	}
	if e.recs[tx] != info {
		return fmt.Errorf("%w: %d", ErrNoSuchTxn, tx)
	}
	e.endCommitLocked(info, lsn, start)
	return nil
}

// settleForceLocked decides a commit after the force of its record at lsn
// returned ferr, and is the one place a failed commit force is handled
// (Commit, commitELR, commitUnlogged's horizon, CommitPrepared).  A crash
// during the wait leaves the outcome to recovery (ErrCrashed).  If the
// record is durable — the force succeeded, or a later round carried it
// past a failed one — it returns nil and the caller finishes the commit.
// Otherwise the record sits in the volatile tail, where nothing can take
// it back: the engine degrades and the error wraps ErrInDoubt.  The caller
// then leaves the transaction exactly as it is; Crash + Recover decide it.
func (e *Engine) settleForceLocked(lsn wal.LSN, ferr error) error {
	switch {
	case e.crashed:
		// The log instance went down while the ack was pending: report
		// the crash rather than degrading a healthy device.
		return ErrCrashed
	case ferr == nil || lsn <= e.log.FlushedLSN():
		return nil
	}
	e.degradeLocked(ferr)
	return fmt.Errorf("%w: %w", ErrInDoubt, ferr)
}

// endCommitLocked releases a committed transaction's locks, drops it from
// the transaction table, recycling its record, and counts the commit (lsn
// is its commit record, NilLSN for a transaction that never logged).  It
// appends nothing: the durable commit record is the transaction's last
// record, and recovery ends the chain there.  The caller has received
// any force outcome r.wait was due.
func (e *Engine) endCommitLocked(r *record, lsn wal.LSN, start time.Time) {
	tx := r.ID
	e.locks.ReleaseAll(tx)
	e.endLocked(r)
	e.met.commits.Inc()
	e.met.commitNs.Observe(time.Since(start))
	if e.reg.HasEventHook() {
		e.reg.Emit(obs.Event{Name: "txn.commit", Tx: uint64(tx), LSN: uint64(lsn)})
	}
}

// commitUnlogged commits tx, which never logged a record: recovery has
// nothing of it to read, so there is no commit record to append and
// nothing of its own to force.  Entered with the latch held; returns with
// it released.
//
// Under early lock release tx may have read data whose commit record was
// not yet durable: its horizon names the newest such record.  Unless the
// log is durable through it already, tx releases its locks and waits
// off-latch for that record — never for one of its own — so a nil
// return still means everything it read survives a crash.  If that
// flush fails, tx logged nothing to roll back: it is ended all the same,
// and Commit returns ErrInDoubt, because whether the data it read
// survives is now up to recovery.
func (e *Engine) commitUnlogged(info *record, start time.Time) error {
	wait := info.Horizon
	if wait <= e.log.FlushedLSN() {
		e.endCommitLocked(info, wal.NilLSN, start)
		e.mu.Unlock()
		return nil
	}
	// Committed keeps further operations on tx out during the wait.
	info.Status = txn.Committed
	e.locks.ReleaseAll(info.ID)
	e.log.FlushAsync(wait, info.wait)
	e.mu.Unlock()
	ferr := <-info.wait

	e.mu.Lock()
	defer e.mu.Unlock()
	err := e.settleForceLocked(wait, ferr)
	if errors.Is(err, ErrCrashed) {
		return err
	}
	if e.recs[info.ID] != info {
		return fmt.Errorf("%w: %d", ErrNoSuchTxn, info.ID)
	}
	e.endCommitLocked(info, wal.NilLSN, start)
	return err
}

// Abort rolls back tx (§3.5): every update tx is responsible for — whether
// invoked by tx or received through delegation — is undone in reverse LSN
// order using the scope machinery, writing a compensation log record per
// undo.  Updates tx delegated away are NOT undone: they now belong to
// their delegatee.
//
// The log force for the abort record happens off-latch on the coalesced
// flusher (wal.Log.FlushAsync), so concurrent aborts — and aborts racing
// commits — share device syncs instead of serializing the whole engine
// behind one sync per abort.  The abort itself (undo, abort record, lock
// release, dependency cascade) happens atomically under the
// latch: ARIES does not require the abort record to be durable before the
// abort completes — an abort that never reaches the device is simply
// re-aborted idempotently by recovery — so deferring the force changes
// only when Abort returns, not what state it leaves behind.
//
// Crash-safety contract: a nil return means the abort took effect in
// volatile state; its durability is NOT guaranteed.  If the device
// refuses the force the abort still stands — recovery re-aborts the
// loser idempotently from the durable log — so Abort succeeds and the
// device error instead degrades the engine (see ErrDegraded, Health).
// This also makes Abort available IN degraded mode: it is the one
// mutating operation that needs no new durable bytes, and the escape
// hatch by which in-flight transactions release their locks.
func (e *Engine) Abort(tx wal.TxID) error {
	start := time.Now()
	e.mu.Lock()
	if err := e.abortAndForce(tx); err != nil {
		return err
	}
	e.met.abortNs.Observe(time.Since(start))
	return nil
}

// abortAndForce is the shared body of Abort and AbortPrepared.  Entered
// with the engine latch held, it returns with the latch released: it
// completes the abort — including any cascaded aborts, whose records are
// appended before Head is read — then waits off-latch for one coalesced
// flush covering all of it.  An abort that appended nothing — the
// transaction and every cascaded victim never logged — forces nothing.
//
// The aborted transaction's record waits out the force before it is
// recycled: its channel carries the force's outcome.
func (e *Engine) abortAndForce(tx wal.TxID) error {
	head := e.log.Head()
	r, err := e.abortLocked(tx)
	if err != nil {
		e.mu.Unlock()
		return err
	}
	if e.log.Head() == head {
		e.recycleLocked(r)
		e.mu.Unlock()
		return nil
	}
	e.log.FlushAsync(e.log.Head(), r.wait)
	e.mu.Unlock()
	ferr := <-r.wait
	e.mu.Lock()
	// The abort stands — the transaction is terminated and recovery
	// would re-abort it regardless — but a failed force is past the
	// WAL's retry budget: degrade instead of failing the abort.
	e.degradeLocked(ferr)
	if !e.crashed {
		e.recycleLocked(r)
	}
	e.mu.Unlock()
	return nil
}

// abortLocked rolls tx back and ends it, cascading to its abort-
// dependents, and returns its record, dropped from the table but not yet
// recycled: the caller recycles it once nobody waits on it.
func (e *Engine) abortLocked(tx wal.TxID) (*record, error) {
	if e.crashed {
		return nil, ErrCrashed
	}
	if e.recovering != nil {
		// The pipeline owns the transaction table until it completes.
		return nil, ErrRecovering
	}
	info, err := e.activeInfo(tx)
	if err != nil {
		return nil, err
	}
	// ABORT OPERATIONS: undo everything covered by tx's scopes, sweeping
	// backwards from the largest covered LSN to minLSN (§3.5).
	if err := e.undoScopes(info.obs.OwnedScopes(tx), nil, nil); err != nil {
		return nil, err
	}
	// WRITE ABORT RECORD.  The force is deferred to the top-level abort's
	// coalesced off-latch flush (every abort — cascaded ones included —
	// runs under exactly one abortAndForce).
	lsn, err := e.endAbortLocked(info) // LastLSN advanced by the CLRs
	if err != nil {
		return nil, err
	}
	if e.reg.HasEventHook() {
		e.reg.Emit(obs.Event{Name: "txn.abort", Tx: uint64(tx), LSN: uint64(lsn)})
	}
	// Cascade: abort-dependents of tx must abort too.
	return info, e.cascadeAbortsLocked(tx)
}

// endAbortLocked terminates a rolled-back transaction: it appends the
// abort record — after the last CLR, so it is the chain's last record —
// releases the locks, drops the transaction from the table and counts
// the abort.  A transaction that never logged appends nothing: recovery
// has no chain of it to close.  It returns the abort record's LSN (NilLSN
// if none was written).
func (e *Engine) endAbortLocked(info *record) (wal.LSN, error) {
	tx, lsn := info.ID, wal.NilLSN
	if info.LastLSN != wal.NilLSN {
		var err error
		if lsn, err = e.log.Append(&wal.Record{Type: wal.TypeAbort, TxID: tx, PrevLSN: info.LastLSN}); err != nil {
			return wal.NilLSN, err
		}
	}
	e.locks.ReleaseAll(tx)
	e.dropLocked(info)
	e.met.aborts.Inc()
	return lsn, nil
}

// undoScopes sweeps the given scopes with the cluster planner, undoing
// every covered update and writing CLRs.  compensated (may be nil) lists
// update LSNs already undone by earlier CLRs; they are skipped.  Used both
// by normal-processing aborts (scopes of one transaction) and by the
// recovery backward pass (all loser scopes), which passes the trace it is
// building as tr to have the sweep counted into it (nil otherwise).
func (e *Engine) undoScopes(scopes []delegation.Scope, compensated map[wal.LSN]bool, tr *RecoveryTrace) error {
	planner := delegation.NewPlanner(scopes)
	hooked := e.reg.HasEventHook()
	var visited, clrs uint64
	for {
		k, ok := planner.Next()
		if !ok {
			break
		}
		visited++
		e.met.undoVisited.Inc()
		if hooked {
			e.reg.Emit(obs.Event{Name: "undo.visit", LSN: uint64(k)})
		}
		rec, err := e.log.Get(k)
		if err != nil {
			return fmt.Errorf("core: undo sweep at %d: %w", k, err)
		}
		if !rec.IsUndoable() {
			continue
		}
		owner, hit := planner.ShouldUndo(rec.TxID, rec.Object, k)
		if !hit || compensated[k] {
			continue
		}
		if rec.Type == wal.TypeIncrement {
			if err := e.undoIncrement(owner, rec); err != nil {
				return err
			}
		} else if err := e.undoUpdate(owner, rec); err != nil {
			return err
		}
		clrs++
		if err := e.fireRecoveryFailpoint(); err != nil {
			return err
		}
	}
	e.met.undoSkipped.Add(planner.Skipped)
	e.met.undoClusters.Add(planner.Clusters)
	if tr != nil {
		tr.BackwardVisited += visited
		tr.BackwardSkipped += planner.Skipped
		tr.Clusters += planner.Clusters
		tr.CLRs += clrs
	}
	return nil
}

// fireRecoveryFailpoint decrements an armed failpoint and reports the
// injected failure when it reaches zero.  Disarmed (or non-recovery)
// contexts are a no-op: the failpoint only counts while Recover holds the
// engine in the crashed state.
func (e *Engine) fireRecoveryFailpoint() error {
	if !e.crashed || e.recoveryFailpoint <= 0 {
		return nil
	}
	e.recoveryFailpoint--
	if e.recoveryFailpoint == 0 {
		return ErrInjectedRecoveryFailure
	}
	return nil
}

// undoUpdate restores rec's before-image and logs a CLR on behalf of the
// responsible transaction owner.
func (e *Engine) undoUpdate(owner wal.TxID, rec *wal.Record) error {
	info := e.recs[owner]
	prev := wal.NilLSN
	if info != nil {
		prev = info.LastLSN
	}
	clr := &wal.Record{
		Type:        wal.TypeCLR,
		TxID:        owner,
		PrevLSN:     prev,
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
	if info != nil {
		info.LastLSN = lsn
	}
	e.met.clrs.Inc()
	return nil
}

// Checkpoint takes a fuzzy checkpoint (no page flushing): it brackets a
// serialized snapshot of the transaction table, the delegation state (all
// object lists with their scopes) and the dirty-page table between
// checkpoint-begin/end records, flushes the log, and updates the master
// record.  Recovery starts analysis at the checkpoint instead of the
// beginning of the log.
func (e *Engine) Checkpoint() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.writableLocked(); err != nil {
		return err
	}
	beginLSN, err := e.log.Append(&wal.Record{Type: wal.TypeCheckpointBegin})
	if err != nil {
		return err
	}
	// A transaction that never logged is left out: recovery would revive
	// it as a loser and log an abort record for it.
	var txns []txn.Info
	state := make(delegation.State, len(e.recs))
	prepared := make(map[wal.TxID]preparedInfo)
	for _, r := range e.sortedRecsLocked() {
		if r.prepared {
			prepared[r.ID] = r.prep
		}
		if r.LastLSN == wal.NilLSN {
			continue
		}
		txns = append(txns, r.Info)
		state[r.ID] = &r.obs
	}
	payload := encodeCheckpoint(&checkpointData{
		beginLSN: beginLSN,
		txns:     txns,
		state:    state,
		dpt:      e.pool.DirtyPageTable(),
		prepared: prepared,
		globals:  e.globals,
	})
	endLSN, err := e.log.Append(&wal.Record{Type: wal.TypeCheckpointEnd, PrevLSN: beginLSN, Payload: payload})
	if err != nil {
		return err
	}
	if err := e.log.Flush(endLSN); err != nil {
		e.degradeLocked(err)
		return err
	}
	if err := e.master.Set(endLSN); err != nil {
		e.degradeLocked(err)
		return err
	}
	e.met.checkpoints.Inc()
	return nil
}
