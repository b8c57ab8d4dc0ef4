// Package rewrite implements the two naïve delegation designs the paper
// rejects (§3.2), as instrumented baselines:
//
//   - Eager: each delegate(t1, t2, ob) is applied to the log immediately,
//     exactly as the operational semantics of Figure 1 — the log is swept
//     backwards from the delegation point to t1's begin record, and every
//     update[t1, ob] record is rewritten in place to carry t2's transaction
//     ID (setTransID).  Records already on stable storage are patched with
//     random writes.  Cost: one (potentially whole-log) sweep plus random
//     log I/O per delegation.
//
//   - Lazy: delegations are only logged during normal processing (cheap,
//     like RH); during recovery the log is physically rewritten — every
//     update record whose responsibility moved is patched to carry its
//     final delegatee's ID — before the undo pass runs.  Cost: rewrite I/O
//     at recovery time, plus the correctness burden of mutating the log in
//     other than append mode.
//
// Because in-place rewriting leaves per-transaction backward chains stale,
// both engines roll back with full backward log scans (the paper notes
// this very repair problem as a reason the naïve designs are fragile).
// Every access is counted so the benchmark harness can reproduce the
// paper's cost comparison against ARIES/RH.
package rewrite

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"ariesrh/internal/buffer"
	"ariesrh/internal/lock"
	"ariesrh/internal/object"
	"ariesrh/internal/storage"
	"ariesrh/internal/txn"
	"ariesrh/internal/wal"
)

// Mode selects when the log is physically rewritten.
type Mode int

// Rewrite modes.
const (
	// Eager rewrites the log at delegation time (Figure 1 applied
	// literally).
	Eager Mode = iota
	// Lazy logs delegations during normal processing and rewrites the
	// log during recovery.
	Lazy
)

// String names the mode.
func (m Mode) String() string {
	if m == Lazy {
		return "lazy"
	}
	return "eager"
}

// Errors returned by engine operations.
var (
	ErrNoSuchTxn      = errors.New("rewrite: no such transaction")
	ErrNotResponsible = errors.New("rewrite: delegator not responsible for object")
	ErrCrashed        = errors.New("rewrite: engine crashed; run Recover")
)

// Stats counts engine activity, including the rewrite costs that motivate
// ARIES/RH.
type Stats struct {
	Begins      uint64
	Updates     uint64
	Delegations uint64
	Commits     uint64
	Aborts      uint64
	CLRs        uint64

	// DelegateSweepReads counts log records examined by eager delegation
	// sweeps; Rewrites counts in-place record mutations (both modes),
	// StableRewrites those that patched an already-durable record — a
	// random write to the stable log.
	DelegateSweepReads uint64
	Rewrites           uint64
	StableRewrites     uint64

	RecForwardRecords  uint64
	RecRedone          uint64
	RecBackwardVisited uint64
	RecRewrites        uint64
	RecCLRs            uint64
	RecLosers          uint64
	RecWinners         uint64
}

// opRef names one update record a transaction is responsible for.
type opRef struct {
	lsn wal.LSN
	obj wal.ObjectID
}

// Engine is a transaction manager with delegation implemented by physical
// history rewriting.  Functionally it matches ARIES/RH; its costs do not.
type Engine struct {
	mu    sync.Mutex
	mode  Mode
	log   *Log
	pool  *buffer.Pool
	store *object.Store
	locks *lock.Manager
	txns  *txn.Table

	// ops maps each live transaction to the update records it is
	// responsible for; beginLSN records where each transaction's log
	// presence starts (the sweep bound of Figure 1).
	ops      map[wal.TxID][]opRef
	beginLSN map[wal.TxID]wal.LSN

	crashed bool
	stats   Stats
}

// Options configures an Engine.
type Options struct {
	Mode     Mode
	PoolSize int
}

// New creates a rewrite-based engine.
func New(opts Options) (*Engine, error) {
	if opts.PoolSize <= 0 {
		opts.PoolSize = 128
	}
	e := &Engine{
		mode:     opts.Mode,
		log:      &Log{},
		locks:    lock.NewManager(),
		txns:     txn.NewTable(),
		ops:      make(map[wal.TxID][]opRef),
		beginLSN: make(map[wal.TxID]wal.LSN),
	}
	disk := storage.NewMemDisk()
	e.pool = buffer.NewPool(disk, opts.PoolSize, func(lsn wal.LSN) error { e.log.Flush(lsn); return nil })
	var err error
	e.store, err = object.Open(e.pool, disk)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Log exposes the log for inspection.
func (e *Engine) Log() *Log { return e.log }

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.StableRewrites = e.log.Stats().StableRewrites
	return s
}

// Begin starts a transaction.
func (e *Engine) Begin() (wal.TxID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return wal.NilTx, ErrCrashed
	}
	info := e.txns.Begin()
	lsn := e.log.Append(&wal.Record{Type: wal.TypeBegin, TxID: info.ID})
	info.LastLSN = lsn
	e.ops[info.ID] = nil
	e.beginLSN[info.ID] = lsn
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

// Update performs update[tx, obj] ← val.
func (e *Engine) Update(tx wal.TxID, obj wal.ObjectID, val []byte) error {
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
	info, err := e.activeInfo(tx)
	if err != nil {
		e.locks.ReleaseAll(tx) // stale grant for a dead tx
		return err
	}
	before, _, err := e.store.Read(obj)
	if err != nil {
		return err
	}
	lsn := e.log.Append(&wal.Record{
		Type:    wal.TypeUpdate,
		TxID:    tx,
		PrevLSN: info.LastLSN,
		Object:  obj,
		Before:  before,
		After:   val,
	})
	if err := e.store.Write(obj, val, lsn); err != nil {
		return err
	}
	info.LastLSN = lsn
	e.ops[tx] = append(e.ops[tx], opRef{lsn: lsn, obj: obj})
	e.stats.Updates++
	return nil
}

// Delegate transfers responsibility for tor's updates on obj to tee.  In
// Eager mode the log is rewritten on the spot, per Figure 1; in Lazy mode
// a delegate record is appended and the rewrite deferred to recovery.
func (e *Engine) Delegate(tor, tee wal.TxID, obj wal.ObjectID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	torInfo, err := e.activeInfo(tor)
	if err != nil {
		return err
	}
	teeInfo, err := e.activeInfo(tee)
	if err != nil {
		return err
	}
	var moved []opRef
	kept := e.ops[tor][:0]
	for _, ref := range e.ops[tor] {
		if ref.obj == obj {
			moved = append(moved, ref)
		} else {
			kept = append(kept, ref)
		}
	}
	if len(moved) == 0 {
		return fmt.Errorf("%w: t%d has no updates on object %d", ErrNotResponsible, tor, obj)
	}
	e.ops[tor] = kept
	e.ops[tee] = append(e.ops[tee], moved...)
	lsn := e.log.Append(&wal.Record{
		Type:    wal.TypeDelegate,
		TxID:    tor,
		PrevLSN: torInfo.LastLSN,
		Tor:     tor,
		Tee:     tee,
		TorPrev: torInfo.LastLSN,
		TeePrev: teeInfo.LastLSN,
		Object:  obj,
	})
	torInfo.LastLSN = lsn
	teeInfo.LastLSN = lsn
	if e.mode == Eager {
		// Figure 1: sweep backwards from the delegate record to t1's
		// begin record — or further, to the oldest update t1 received
		// through earlier delegations, which can predate its begin.
		// Without intact per-transaction chains the sweep must examine
		// every record in the range — the cost the paper highlights
		// ("in principle sweeping the whole log").
		low := e.beginLSN[tor]
		for _, ref := range moved {
			if ref.lsn < low {
				low = ref.lsn
			}
		}
		for k := lsn - 1; k >= low && k != wal.NilLSN; k-- {
			rec, err := e.log.Get(k)
			if err != nil {
				return err
			}
			e.stats.DelegateSweepReads++
			if rec.Type == wal.TypeUpdate && rec.TxID == tor && rec.Object == obj {
				if err := e.log.Rewrite(k, func(r *wal.Record) { r.TxID = tee }); err != nil {
					return err
				}
				e.stats.Rewrites++
			}
		}
	}
	if _, held := e.locks.Holds(tor, obj); held {
		if err := e.locks.Share(tor, tee, obj); err != nil {
			return err
		}
	}
	e.stats.Delegations++
	return nil
}

// Commit commits tx.
func (e *Engine) Commit(tx wal.TxID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	info, err := e.activeInfo(tx)
	if err != nil {
		return err
	}
	lsn := e.log.Append(&wal.Record{Type: wal.TypeCommit, TxID: tx, PrevLSN: info.LastLSN})
	e.log.Flush(lsn)
	e.log.Append(&wal.Record{Type: wal.TypeEnd, TxID: tx, PrevLSN: lsn})
	e.locks.ReleaseAll(tx)
	e.txns.Remove(tx)
	delete(e.ops, tx)
	delete(e.beginLSN, tx)
	e.stats.Commits++
	return nil
}

// Abort rolls back every update tx is responsible for, in reverse LSN
// order.
func (e *Engine) Abort(tx wal.TxID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	info, err := e.activeInfo(tx)
	if err != nil {
		return err
	}
	refs := append([]opRef(nil), e.ops[tx]...)
	sort.Slice(refs, func(i, j int) bool { return refs[i].lsn > refs[j].lsn })
	for _, ref := range refs {
		rec, err := e.log.Get(ref.lsn)
		if err != nil {
			return err
		}
		if err := e.writeCLR(info, rec); err != nil {
			return err
		}
	}
	lsn := e.log.Append(&wal.Record{Type: wal.TypeAbort, TxID: tx, PrevLSN: info.LastLSN})
	e.log.Flush(lsn)
	e.log.Append(&wal.Record{Type: wal.TypeEnd, TxID: tx, PrevLSN: lsn})
	e.locks.ReleaseAll(tx)
	e.txns.Remove(tx)
	delete(e.ops, tx)
	delete(e.beginLSN, tx)
	e.stats.Aborts++
	return nil
}

func (e *Engine) writeCLR(info *txn.Info, rec *wal.Record) error {
	clr := &wal.Record{
		Type:        wal.TypeCLR,
		TxID:        info.ID,
		PrevLSN:     info.LastLSN,
		Object:      rec.Object,
		Before:      rec.Before,
		UndoNextLSN: rec.PrevLSN,
		Compensates: rec.LSN,
	}
	lsn := e.log.Append(clr)
	if err := e.store.Write(rec.Object, rec.Before, lsn); err != nil {
		return err
	}
	info.LastLSN = lsn
	e.stats.CLRs++
	return nil
}

// Crash simulates a failure.
func (e *Engine) Crash() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.log.Crash()
	if err := e.store.Crash(); err != nil {
		return err
	}
	e.locks.Reset()
	e.txns.Reset(1)
	e.ops = make(map[wal.TxID][]opRef)
	e.beginLSN = make(map[wal.TxID]wal.LSN)
	e.crashed = true
	return nil
}

// ReadObject reads obj without locking; test/tool helper.
func (e *Engine) ReadObject(obj wal.ObjectID) ([]byte, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return nil, false, ErrCrashed
	}
	return e.store.Read(obj)
}
