package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ariesrh/internal/lock"
	"ariesrh/internal/wal"
)

// Counters are objects holding an 8-byte little-endian signed integer,
// mutated with Increment — the paper's example of commuting updates
// (§2.1.1 "not all update operations conflict"; §3.4 "non-conflicting
// updates, e.g., increments of a counter").  Increments by different
// transactions may interleave on one object: the lock manager grants
// compatible Increment locks, the log records a logical delta, and undo
// applies the negated delta instead of restoring a physical before-image —
// physical images would be wrong once another transaction's increment
// lands in between.
//
// Delegation composes: an increment's scope travels exactly like an
// update's, so delegated increments follow their final delegatee's fate.

// ErrNotCounter is returned when Increment meets an object whose value is
// not a counter.
var ErrNotCounter = errors.New("core: object is not a counter")

// DecodeCounter interprets an object value as a counter (absent/empty
// values read as 0).
func DecodeCounter(v []byte) (int64, error) {
	switch len(v) {
	case 0:
		return 0, nil
	case 8:
		return int64(binary.LittleEndian.Uint64(v)), nil
	default:
		return 0, fmt.Errorf("%w: value is %d bytes", ErrNotCounter, len(v))
	}
}

// EncodeCounter renders a counter value as an object value.
func EncodeCounter(v int64) []byte {
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, uint64(v))
	return out
}

// Increment adds delta to the counter obj under an Increment lock and
// returns the new value.  Concurrent increments by other transactions are
// permitted; reads and plain updates still conflict.
func (e *Engine) Increment(tx wal.TxID, obj wal.ObjectID, delta int64) (int64, error) {
	e.mu.Lock()
	if err := e.writableLocked(); err != nil {
		e.mu.Unlock()
		return 0, err
	}
	if _, err := e.activeInfo(tx); err != nil {
		e.mu.Unlock()
		return 0, err
	}
	e.mu.Unlock()

	if err := e.acquireLock(tx, obj, lock.Increment); err != nil {
		return 0, err
	}

	// See Update: take the page fault before re-acquiring the latch.
	e.store.Prefetch(obj)

	e.mu.Lock()
	defer e.mu.Unlock()
	// As in Update: drop a stale grant before any other check can return.
	info, err := e.activeAfterLockLocked(tx)
	if err != nil {
		return 0, err
	}
	if err := e.writableLocked(); err != nil {
		return 0, err
	}
	e.passStampLocked(info, obj, lock.Increment)
	curBytes, _, err := e.store.Read(obj)
	if err != nil {
		return 0, err
	}
	cur, err := DecodeCounter(curBytes)
	if err != nil {
		return 0, err
	}
	rec := &wal.Record{
		Type:    wal.TypeIncrement,
		TxID:    tx,
		PrevLSN: info.LastLSN,
		Object:  obj,
		Delta:   delta,
	}
	lsn, err := e.log.Append(rec)
	if err != nil {
		return 0, err
	}
	// As in Update: finish the volatile bookkeeping before the page write
	// so a write failure leaves the tables consistent with the log.
	e.state[tx].RecordUpdate(tx, obj, lsn)
	info.LastLSN = lsn
	next := cur + delta
	if err := e.store.Write(obj, EncodeCounter(next), lsn); err != nil {
		return 0, err
	}
	return next, nil
}

// ReadCounter returns tx's view of the counter obj under a shared lock.
func (e *Engine) ReadCounter(tx wal.TxID, obj wal.ObjectID) (int64, error) {
	v, err := e.Read(tx, obj)
	if err != nil {
		return 0, err
	}
	return DecodeCounter(v)
}

// CounterValue reads the counter without locking; tool/test helper.
func (e *Engine) CounterValue(obj wal.ObjectID) (int64, error) {
	v, _, err := e.ReadObject(obj)
	if err != nil {
		return 0, err
	}
	return DecodeCounter(v)
}

// undoIncrement compensates an increment logically: a CLR carrying the
// negated delta is logged and applied.
func (e *Engine) undoIncrement(owner wal.TxID, rec *wal.Record) error {
	info := e.txns.Get(owner)
	prev := wal.NilLSN
	if info != nil {
		prev = info.LastLSN
	}
	clr := &wal.Record{
		Type:        wal.TypeCLR,
		TxID:        owner,
		PrevLSN:     prev,
		Object:      rec.Object,
		UndoNextLSN: rec.PrevLSN,
		Compensates: rec.LSN,
		Logical:     true,
		Delta:       -rec.Delta,
	}
	lsn, err := e.log.Append(clr)
	if err != nil {
		return err
	}
	if err := e.applyDelta(rec.Object, clr.Delta, lsn); err != nil {
		return err
	}
	if info != nil {
		info.LastLSN = lsn
	}
	e.met.clrs.Inc()
	return nil
}

// applyDelta adds delta to the stored counter, stamping the page with lsn.
func (e *Engine) applyDelta(obj wal.ObjectID, delta int64, lsn wal.LSN) error {
	curBytes, _, err := e.store.Read(obj)
	if err != nil {
		return err
	}
	cur, err := DecodeCounter(curBytes)
	if err != nil {
		return err
	}
	return e.store.Write(obj, EncodeCounter(cur+delta), lsn)
}
