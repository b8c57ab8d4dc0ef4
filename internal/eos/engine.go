// Package eos implements an EOS-style NO-UNDO/REDO storage manager with
// delegation, per §3.7 of the paper.
//
// EOS avoids undo entirely by never applying a transaction's changes to
// the database until the transaction is ready to commit.  Each transaction
// accumulates its updates in a volatile *private log*; the *global log*
// holds only committed material.  On commit, the private log is written to
// the global log followed by a commit record and a flush, and only then
// are the values applied to the data pages.  On abort — or on a crash,
// which implicitly aborts everything active — the private log is simply
// discarded.
//
// Delegation with private logs ("rewriting history across different
// private logs"): restricted to read/write operations, compatible updates
// execute in isolation, so it suffices for the delegator to hand the
// delegatee an *image* of the object's current state at delegation time
// (§3.7).  The image entry is stored in the delegatee's private log — the
// delegation record at the delegatee — and the delegator *filters out* its
// own entries for the object, so a later commit of the delegator no longer
// publishes them.  The delegatee never needs the delegator again.
//
// Recovery is redo-only: a single forward sweep of the global log replays
// the entries of every transaction whose commit record made it to stable
// storage; entries with no following commit record (a crash mid-commit)
// are discarded.
package eos

import (
	"errors"
	"fmt"
	"sync"

	"ariesrh/internal/buffer"
	"ariesrh/internal/lock"
	"ariesrh/internal/object"
	"ariesrh/internal/storage"
	"ariesrh/internal/txn"
	"ariesrh/internal/wal"
)

// Errors returned by engine operations.
var (
	ErrNoSuchTxn      = errors.New("eos: no such transaction")
	ErrNotResponsible = errors.New("eos: delegator not responsible for object")
	ErrCrashed        = errors.New("eos: engine crashed; run Recover")
)

// entryKind discriminates private-log entries.
type entryKind uint8

const (
	// entryUpdate is a write performed by the owning transaction.
	entryUpdate entryKind = iota
	// entryImage is the object image received through a delegation.
	entryImage
)

// privEntry is one private-log entry.
type privEntry struct {
	kind entryKind
	obj  wal.ObjectID
	val  []byte
	// invoker is the transaction that originally wrote the value (for
	// images: the delegator at the time of hand-over); informational.
	invoker wal.TxID
}

// Stats counts engine activity.
type Stats struct {
	Begins         uint64
	Updates        uint64
	Reads          uint64
	Delegations    uint64
	Commits        uint64
	Aborts         uint64
	PrivateEntries uint64
	// Filtered counts delegated-away entries removed from delegator
	// private logs (the §3.7 commit-time filter, applied at delegation).
	Filtered uint64
	// GlobalRecords counts records published to the global log.
	GlobalRecords uint64

	RecForwardRecords uint64
	RecRedone         uint64
	RecDiscarded      uint64
	RecWinners        uint64
}

// Options configures an Engine.
type Options struct {
	PoolSize int
	LogDir   wal.Dir
	Disk     storage.DiskManager
}

// Engine is the EOS-style transaction manager.
type Engine struct {
	mu     sync.Mutex
	global *wal.Log
	disk   storage.DiskManager
	pool   *buffer.Pool
	store  *object.Store
	locks  *lock.Manager
	txns   *txn.Table

	private map[wal.TxID][]privEntry

	crashed bool
	stats   Stats
}

// New creates an engine over fresh or existing stable storage.
func New(opts Options) (*Engine, error) {
	if opts.PoolSize <= 0 {
		opts.PoolSize = 128
	}
	if opts.LogDir == nil {
		opts.LogDir = wal.NewMemDir()
	}
	if opts.Disk == nil {
		opts.Disk = storage.NewMemDisk()
	}
	log, err := wal.NewLog(opts.LogDir)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		global:  log,
		disk:    opts.Disk,
		locks:   lock.NewManager(),
		txns:    txn.NewTable(),
		private: make(map[wal.TxID][]privEntry),
	}
	// NO-UNDO: data pages only ever hold committed values, so evictions
	// need no WAL coupling beyond flushing the already-flushed global
	// log; pass the flush hook anyway for uniform accounting.
	e.pool = buffer.NewPool(opts.Disk, opts.PoolSize, func(lsn wal.LSN) error { return e.global.Flush(lsn) })
	e.store, err = object.Open(e.pool, opts.Disk)
	if err != nil {
		return nil, err
	}
	if log.Head() > 0 {
		e.crashed = true
		if err := e.Recover(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Log exposes the global log for inspection.
func (e *Engine) Log() *wal.Log { return e.global }

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Begin starts a transaction.  Nothing is logged: the global log holds
// only committed material.
func (e *Engine) Begin() (wal.TxID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return wal.NilTx, ErrCrashed
	}
	info := e.txns.Begin()
	e.private[info.ID] = nil
	e.stats.Begins++
	return info.ID, nil
}

func (e *Engine) activeInfo(tx wal.TxID) (*txn.Info, error) {
	info := e.txns.Get(tx)
	if info == nil || info.Status != txn.Active {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchTxn, tx)
	}
	return info, nil
}

// Read returns tx's view of obj: its own latest private value (including
// delegated-in images) if any, else the committed database value.
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
	if err := e.locks.Acquire(tx, obj, lock.Shared); err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return nil, ErrCrashed
	}
	e.stats.Reads++
	if v, ok := e.privateView(tx, obj); ok {
		return v, nil
	}
	v, _, err := e.store.Read(obj)
	return v, err
}

// privateView returns tx's latest private value for obj, if any.
func (e *Engine) privateView(tx wal.TxID, obj wal.ObjectID) ([]byte, bool) {
	entries := e.private[tx]
	for i := len(entries) - 1; i >= 0; i-- {
		if entries[i].obj == obj {
			return append([]byte(nil), entries[i].val...), true
		}
	}
	return nil, false
}

// Update records update[tx, obj] ← val in tx's private log.  The database
// pages are untouched until commit (NO-UNDO).
func (e *Engine) Update(tx wal.TxID, obj wal.ObjectID, val []byte) error {
	if len(val) > storage.MaxValueSize {
		return fmt.Errorf("eos: value of %d bytes exceeds max %d", len(val), storage.MaxValueSize)
	}
	e.mu.Lock()
	if e.crashed {
		e.mu.Unlock()
		return ErrCrashed
	}
	if _, err := e.activeInfo(tx); err != nil {
		e.mu.Unlock()
		return err
	}
	e.mu.Unlock()
	if err := e.locks.Acquire(tx, obj, lock.Exclusive); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	if _, err := e.activeInfo(tx); err != nil {
		e.locks.ReleaseAll(tx) // stale grant for a dead tx
		return err
	}
	e.private[tx] = append(e.private[tx], privEntry{
		kind:    entryUpdate,
		obj:     obj,
		val:     append([]byte(nil), val...),
		invoker: tx,
	})
	e.stats.Updates++
	e.stats.PrivateEntries++
	return nil
}

// Delegate transfers responsibility for tor's state of obj to tee: tee's
// private log receives an image of tor's current view of the object, and
// tor's entries for obj are filtered out, so tor's commit or abort no
// longer affects them (§3.7).
func (e *Engine) Delegate(tor, tee wal.TxID, obj wal.ObjectID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	if _, err := e.activeInfo(tor); err != nil {
		return err
	}
	if _, err := e.activeInfo(tee); err != nil {
		return err
	}
	image, ok := e.privateView(tor, obj)
	if !ok {
		return fmt.Errorf("%w: t%d holds no private state for object %d", ErrNotResponsible, tor, obj)
	}
	// Filter tor's entries for obj out of its private log.
	kept := e.private[tor][:0]
	for _, en := range e.private[tor] {
		if en.obj == obj {
			e.stats.Filtered++
			continue
		}
		kept = append(kept, en)
	}
	e.private[tor] = kept
	// The delegatee stores the image — its delegation record.
	e.private[tee] = append(e.private[tee], privEntry{
		kind:    entryImage,
		obj:     obj,
		val:     image,
		invoker: tor,
	})
	e.stats.PrivateEntries++
	if _, held := e.locks.Holds(tor, obj); held {
		if err := e.locks.Share(tor, tee, obj); err != nil {
			return err
		}
	}
	e.stats.Delegations++
	return nil
}

// Commit publishes tx's private log: every entry is appended to the global
// log, followed by a commit record; the log is flushed through the commit
// record, and only then are the values applied to the data pages.
func (e *Engine) Commit(tx wal.TxID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	if _, err := e.activeInfo(tx); err != nil {
		return err
	}
	type applyItem struct {
		obj wal.ObjectID
		val []byte
		lsn wal.LSN
	}
	var toApply []applyItem
	for _, en := range e.private[tx] {
		lsn, err := e.global.Append(&wal.Record{
			Type:   wal.TypeUpdate,
			TxID:   tx,
			Object: en.obj,
			After:  en.val,
		})
		if err != nil {
			return err
		}
		e.stats.GlobalRecords++
		toApply = append(toApply, applyItem{obj: en.obj, val: en.val, lsn: lsn})
	}
	commitLSN, err := e.global.Append(&wal.Record{Type: wal.TypeCommit, TxID: tx})
	if err != nil {
		return err
	}
	e.stats.GlobalRecords++
	if err := e.global.Flush(commitLSN); err != nil {
		return err
	}
	// Apply after the flush: the pages only ever hold committed values.
	for _, item := range toApply {
		if err := e.store.Write(item.obj, item.val, item.lsn); err != nil {
			return err
		}
	}
	e.locks.ReleaseAll(tx)
	e.txns.Remove(tx)
	delete(e.private, tx)
	e.stats.Commits++
	return nil
}

// Abort discards tx's private log.  Nothing reached the database, so
// nothing is undone — that is the point of NO-UNDO.
func (e *Engine) Abort(tx wal.TxID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	if _, err := e.activeInfo(tx); err != nil {
		return err
	}
	e.locks.ReleaseAll(tx)
	e.txns.Remove(tx)
	delete(e.private, tx)
	e.stats.Aborts++
	return nil
}

// Crash simulates a failure: all private logs (and with them every active
// transaction) vanish; the global log keeps its flushed prefix.
func (e *Engine) Crash() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.global.Crash(); err != nil {
		return err
	}
	if err := e.store.Crash(); err != nil {
		return err
	}
	e.locks.Reset()
	e.txns.Reset(1)
	e.private = make(map[wal.TxID][]privEntry)
	e.crashed = true
	return nil
}

// Recover replays the global log: a single forward sweep redoes the
// entries of every transaction whose commit record is present; trailing
// entries without a commit record (crash mid-commit) are discarded.
func (e *Engine) Recover() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.crashed {
		return fmt.Errorf("eos: Recover called without a crash")
	}
	type pending struct {
		obj wal.ObjectID
		val []byte
		lsn wal.LSN
	}
	buffered := make(map[wal.TxID][]pending)
	applied := make(map[wal.ObjectID]wal.LSN)
	err := e.global.Scan(1, wal.NilLSN, func(rec *wal.Record) (bool, error) {
		e.stats.RecForwardRecords++
		switch rec.Type {
		case wal.TypeUpdate:
			buffered[rec.TxID] = append(buffered[rec.TxID], pending{obj: rec.Object, val: rec.After, lsn: rec.LSN})
		case wal.TypeCommit:
			e.stats.RecWinners++
			for _, p := range buffered[rec.TxID] {
				la, ok := applied[p.obj]
				if !ok {
					pl, err := e.store.PageLSN(p.obj)
					if err != nil {
						return false, err
					}
					la = pl
					applied[p.obj] = la
				}
				if p.lsn <= la {
					continue
				}
				if err := e.store.Write(p.obj, p.val, p.lsn); err != nil {
					return false, err
				}
				applied[p.obj] = p.lsn
				e.stats.RecRedone++
			}
			delete(buffered, rec.TxID)
		default:
			return false, fmt.Errorf("eos: unexpected record %v in global log", rec.Type)
		}
		return true, nil
	})
	if err != nil {
		return err
	}
	for _, entries := range buffered {
		e.stats.RecDiscarded += uint64(len(entries))
	}
	e.crashed = false
	return nil
}

// ReadObject reads the committed value of obj without locking.
func (e *Engine) ReadObject(obj wal.ObjectID) ([]byte, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return nil, false, ErrCrashed
	}
	return e.store.Read(obj)
}
