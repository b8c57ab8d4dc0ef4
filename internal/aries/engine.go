// Package aries implements conventional ARIES (§3.3 of the paper): an
// UNDO/REDO recovery engine with write-ahead logging, per-transaction
// backward chains, compensation log records with UndoNextLSN, fuzzy
// checkpoints, and the classic two-phase restart — a forward analysis+redo
// pass that repeats history, then a backward undo pass that rolls back the
// loser transactions by continually taking the maximum outstanding LSN.
//
// It has no delegation support whatsoever; it is the baseline for the
// paper's "no delegation, no overhead" claim (§4.2): on delegation-free
// workloads, ARIES/RH must match this engine's cost.
package aries

import (
	"encoding/binary"
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
	ErrNoSuchTxn = errors.New("aries: no such transaction")
	ErrCrashed   = errors.New("aries: engine crashed; run Recover")
)

// Options configures an Engine.
type Options struct {
	// PoolSize is the buffer-pool capacity in pages (default 128).
	PoolSize int
	// LogDir, Disk and MasterStore override the default in-memory
	// stable storage.
	LogDir      wal.Dir
	Disk        storage.DiskManager
	MasterStore wal.Store
}

// Stats counts engine activity.
type Stats struct {
	Begins  uint64
	Updates uint64
	Reads   uint64
	Commits uint64
	Aborts  uint64
	CLRs    uint64

	RecForwardRecords  uint64
	RecRedone          uint64
	RecBackwardVisited uint64
	RecCLRs            uint64
	RecLosers          uint64
	RecWinners         uint64
}

// Engine is a conventional ARIES transaction manager.
type Engine struct {
	mu    sync.Mutex
	log   *wal.Log
	disk  storage.DiskManager
	pool  *buffer.Pool
	store *object.Store
	locks *lock.Manager
	txns  *txn.Table

	master  *master
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
	if opts.MasterStore == nil {
		opts.MasterStore = wal.NewMemStore()
	}
	log, err := wal.NewLog(opts.LogDir)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		log:    log,
		disk:   opts.Disk,
		locks:  lock.NewManager(),
		txns:   txn.NewTable(),
		master: &master{store: opts.MasterStore},
	}
	e.pool = buffer.NewPool(opts.Disk, opts.PoolSize, func(lsn wal.LSN) error { return e.log.Flush(lsn) })
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

// Log exposes the write-ahead log for inspection.
func (e *Engine) Log() *wal.Log { return e.log }

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Begin starts a transaction.  As in ARIES/RH nothing is logged: the
// first update opens the backward chain, and a transaction that never
// logged commits and aborts without writing or forcing anything.
func (e *Engine) Begin() (wal.TxID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return wal.NilTx, ErrCrashed
	}
	info := e.txns.Begin()
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

// Read returns the value of obj under a shared lock.
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
	v, _, err := e.store.Read(obj)
	if err != nil {
		return nil, err
	}
	e.stats.Reads++
	return v, nil
}

// Update performs update[tx, obj] ← val with physical before/after logging.
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
	if err := e.store.Write(obj, val, lsn); err != nil {
		return err
	}
	info.LastLSN = lsn
	info.UndoNextLSN = lsn
	e.stats.Updates++
	return nil
}

// Commit commits tx: the log is forced through the commit record, which
// is the transaction's last record, as in ARIES/RH.
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
	if info.LastLSN != wal.NilLSN {
		lsn, err := e.log.Append(&wal.Record{Type: wal.TypeCommit, TxID: tx, PrevLSN: info.LastLSN})
		if err != nil {
			return err
		}
		if err := e.log.Flush(lsn); err != nil {
			return err
		}
	}
	e.locks.ReleaseAll(tx)
	e.txns.Remove(tx)
	e.stats.Commits++
	return nil
}

// Abort rolls tx back by following its backward chain, writing a CLR per
// undone update, then appends the abort record that ends the chain.
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
	if info.LastLSN != wal.NilLSN {
		if err := e.rollbackChain(info, wal.NilLSN); err != nil {
			return err
		}
		lsn, err := e.log.Append(&wal.Record{Type: wal.TypeAbort, TxID: tx, PrevLSN: info.LastLSN})
		if err != nil {
			return err
		}
		if err := e.log.Flush(lsn); err != nil {
			return err
		}
	}
	e.locks.ReleaseAll(tx)
	e.txns.Remove(tx)
	e.stats.Aborts++
	return nil
}

// rollbackChain undoes tx's updates starting at its chain head, stopping
// at stopAt (exclusive; NilLSN = roll back everything).  CLRs advance
// UndoNextLSN so crashes never repeat an undo.
func (e *Engine) rollbackChain(info *txn.Info, stopAt wal.LSN) error {
	next := info.LastLSN
	for next != wal.NilLSN && next > stopAt {
		rec, err := e.log.Get(next)
		if err != nil {
			return err
		}
		switch rec.Type {
		case wal.TypeUpdate:
			clr := &wal.Record{
				Type:        wal.TypeCLR,
				TxID:        info.ID,
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
			info.UndoNextLSN = rec.PrevLSN
			e.stats.CLRs++
			next = rec.PrevLSN
		case wal.TypeCLR:
			next = rec.UndoNextLSN
		default:
			next = rec.PrevLSN
		}
	}
	return nil
}

// Checkpoint takes a fuzzy checkpoint (transaction table + dirty-page
// table) and updates the master record.
func (e *Engine) Checkpoint() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	beginLSN, err := e.log.Append(&wal.Record{Type: wal.TypeCheckpointBegin})
	if err != nil {
		return err
	}
	// A transaction that never logged is left out, as in ARIES/RH.
	var infos []txn.Info
	for _, info := range e.txns.Snapshot() {
		if info.LastLSN != wal.NilLSN {
			infos = append(infos, info)
		}
	}
	payload := encodeCkpt(beginLSN, infos, e.pool.DirtyPageTable())
	endLSN, err := e.log.Append(&wal.Record{Type: wal.TypeCheckpointEnd, PrevLSN: beginLSN, Payload: payload})
	if err != nil {
		return err
	}
	if err := e.log.Flush(endLSN); err != nil {
		return err
	}
	return e.master.Set(endLSN)
}

// Crash simulates a failure.
func (e *Engine) Crash() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.log.Crash(); err != nil {
		return err
	}
	if err := e.store.Crash(); err != nil {
		return err
	}
	e.locks.Reset()
	e.txns.Reset(1)
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

type master struct{ store wal.Store }

func (m *master) Set(lsn wal.LSN) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(lsn))
	if _, err := m.store.WriteAt(buf[:], 0); err != nil {
		return err
	}
	return m.store.Sync()
}

func (m *master) Get() (wal.LSN, error) {
	size, err := m.store.Size()
	if err != nil || size < 8 {
		return wal.NilLSN, err
	}
	var buf [8]byte
	if _, err := m.store.ReadAt(buf[:], 0); err != nil {
		return wal.NilLSN, err
	}
	return wal.LSN(binary.LittleEndian.Uint64(buf[:])), nil
}

func encodeCkpt(beginLSN wal.LSN, infos []txn.Info, dpt map[storage.PageID]wal.LSN) []byte {
	var buf []byte
	buf = binary.LittleEndian.AppendUint64(buf, uint64(beginLSN))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(infos)))
	for _, info := range infos {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(info.ID))
		buf = append(buf, byte(info.Status))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(info.LastLSN))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(info.UndoNextLSN))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(dpt)))
	for pid, recLSN := range dpt {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(pid))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(recLSN))
	}
	return buf
}

func decodeCkpt(buf []byte) (beginLSN wal.LSN, infos []txn.Info, dpt map[storage.PageID]wal.LSN, err error) {
	bad := fmt.Errorf("aries: truncated checkpoint payload")
	off := 0
	need := func(n int) bool { return off+n <= len(buf) }
	if !need(12) {
		return 0, nil, nil, bad
	}
	beginLSN = wal.LSN(binary.LittleEndian.Uint64(buf[off:]))
	off += 8
	n := int(binary.LittleEndian.Uint32(buf[off:]))
	off += 4
	for i := 0; i < n; i++ {
		if !need(21) {
			return 0, nil, nil, bad
		}
		infos = append(infos, txn.Info{
			ID:          wal.TxID(binary.LittleEndian.Uint32(buf[off:])),
			Status:      txn.Status(buf[off+4]),
			LastLSN:     wal.LSN(binary.LittleEndian.Uint64(buf[off+5:])),
			UndoNextLSN: wal.LSN(binary.LittleEndian.Uint64(buf[off+13:])),
		})
		off += 21
	}
	if !need(4) {
		return 0, nil, nil, bad
	}
	m := int(binary.LittleEndian.Uint32(buf[off:]))
	off += 4
	// m comes off the wire; each entry is 12 bytes, so the buffer bounds
	// the real count.  Reject absurd values instead of pre-allocating.
	if m > (len(buf)-off)/12 {
		return 0, nil, nil, bad
	}
	dpt = make(map[storage.PageID]wal.LSN, m)
	for i := 0; i < m; i++ {
		if !need(12) {
			return 0, nil, nil, bad
		}
		pid := storage.PageID(binary.LittleEndian.Uint32(buf[off:]))
		dpt[pid] = wal.LSN(binary.LittleEndian.Uint64(buf[off+4:]))
		off += 12
	}
	if off != len(buf) {
		return 0, nil, nil, fmt.Errorf("aries: trailing checkpoint bytes")
	}
	return beginLSN, infos, dpt, nil
}

// Savepoint marks a partial-rollback point for tx (classic ARIES partial
// rollback via the backward chain and UndoNextLSN).
type Savepoint struct {
	tx  wal.TxID
	lsn wal.LSN
}

// Savepoint records a rollback point at tx's current chain head.
func (e *Engine) Savepoint(tx wal.TxID) (Savepoint, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return Savepoint{}, ErrCrashed
	}
	info, err := e.activeInfo(tx)
	if err != nil {
		return Savepoint{}, err
	}
	return Savepoint{tx: tx, lsn: info.LastLSN}, nil
}

// RollbackTo undoes tx's updates back to (but not including) the
// savepoint, following the backward chain and writing CLRs.  The
// transaction stays active.
func (e *Engine) RollbackTo(sp Savepoint) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	info, err := e.activeInfo(sp.tx)
	if err != nil {
		return err
	}
	return e.rollbackChain(info, sp.lsn)
}
