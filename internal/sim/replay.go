package sim

import (
	"fmt"
	"sort"

	"ariesrh/internal/core"
	"ariesrh/internal/rewrite"
	"ariesrh/internal/wal"
)

// Target abstracts the engines a trace can be replayed against: the
// ARIES/RH engine and the eager/lazy rewriting baselines all implement it
// (via the adapters below).  EOS is excluded: its deferred-apply
// visibility gives histories a different — also correct — final state, so
// it is validated by its own unit tests instead of differentially.
type Target interface {
	Begin() (wal.TxID, error)
	Update(tx wal.TxID, obj wal.ObjectID, val []byte) error
	Delegate(tor, tee wal.TxID, obj wal.ObjectID) error
	Commit(tx wal.TxID) error
	Abort(tx wal.TxID) error
	FlushLog() error
	Crash() error
	Recover() error
	ReadObject(obj wal.ObjectID) ([]byte, bool, error)
}

// CoreTarget adapts the ARIES/RH engine.
type CoreTarget struct{ *core.Engine }

// FlushLog flushes the whole log.
func (t CoreTarget) FlushLog() error { return t.Log().Flush(t.Log().Head()) }

// RewriteTarget adapts a rewriting baseline engine.
type RewriteTarget struct{ *rewrite.Engine }

// FlushLog flushes the whole log.
func (t RewriteTarget) FlushLog() error {
	t.Log().Flush(t.Log().Head())
	return nil
}

// Incrementer is implemented by targets with commutative counters.
type Incrementer interface {
	Increment(tx wal.TxID, obj wal.ObjectID, delta int64) (int64, error)
}

// AllDelegator is implemented by targets with DelegateAll (the ARIES/RH
// engine); traces with delegate-all actions can only be replayed against
// such targets.
type AllDelegator interface {
	DelegateAll(tor, tee wal.TxID) error
}

// PartialRollbacker is implemented by targets that support savepoints
// (currently the ARIES/RH engine); traces with savepoint actions can only
// be replayed against such targets.
type PartialRollbacker interface {
	Savepoint(tx wal.TxID) (core.Savepoint, error)
	RollbackTo(sp core.Savepoint) error
}

// Replayer drives a trace against a Target, tracking the slot → TxID
// mapping and which slots are live.
type Replayer struct {
	target Target
	ids    map[int]wal.TxID
	live   map[int]bool
	sps    map[int]core.Savepoint
	pos    int
	trace  []Action
}

// NewReplayer prepares a replay of trace against target.
func NewReplayer(target Target, trace []Action) *Replayer {
	return &Replayer{
		target: target,
		ids:    make(map[int]wal.TxID),
		live:   make(map[int]bool),
		sps:    make(map[int]core.Savepoint),
		trace:  trace,
	}
}

// Step applies the next action; it returns false when the trace is done.
func (r *Replayer) Step() (bool, error) {
	if r.pos >= len(r.trace) {
		return false, nil
	}
	a := r.trace[r.pos]
	r.pos++
	switch a.Kind {
	case ActBegin:
		id, err := r.target.Begin()
		if err != nil {
			return false, err
		}
		r.ids[a.Tx] = id
		r.live[a.Tx] = true
	case ActUpdate:
		if err := r.target.Update(r.ids[a.Tx], a.Obj, a.Val); err != nil {
			return false, fmt.Errorf("step %d %v: %w", r.pos-1, a.Kind, err)
		}
	case ActDelegate:
		if err := r.target.Delegate(r.ids[a.Tx], r.ids[a.Tee], a.Obj); err != nil {
			return false, fmt.Errorf("step %d %v: %w", r.pos-1, a.Kind, err)
		}
	case ActDelegateAll:
		da, ok := r.target.(AllDelegator)
		if !ok {
			return false, fmt.Errorf("step %d: target does not support DelegateAll", r.pos-1)
		}
		if err := da.DelegateAll(r.ids[a.Tx], r.ids[a.Tee]); err != nil {
			return false, fmt.Errorf("step %d %v: %w", r.pos-1, a.Kind, err)
		}
	case ActCommit:
		if err := r.target.Commit(r.ids[a.Tx]); err != nil {
			return false, fmt.Errorf("step %d %v: %w", r.pos-1, a.Kind, err)
		}
		delete(r.live, a.Tx)
	case ActAbort:
		if err := r.target.Abort(r.ids[a.Tx]); err != nil {
			return false, fmt.Errorf("step %d %v: %w", r.pos-1, a.Kind, err)
		}
		delete(r.live, a.Tx)
	case ActSavepoint:
		pr, ok := r.target.(PartialRollbacker)
		if !ok {
			return false, fmt.Errorf("step %d: target does not support savepoints", r.pos-1)
		}
		sp, err := pr.Savepoint(r.ids[a.Tx])
		if err != nil {
			return false, fmt.Errorf("step %d %v: %w", r.pos-1, a.Kind, err)
		}
		r.sps[a.Tx] = sp
	case ActRollback:
		pr, ok := r.target.(PartialRollbacker)
		if !ok {
			return false, fmt.Errorf("step %d: target does not support savepoints", r.pos-1)
		}
		if err := pr.RollbackTo(r.sps[a.Tx]); err != nil {
			return false, fmt.Errorf("step %d %v: %w", r.pos-1, a.Kind, err)
		}
		delete(r.sps, a.Tx)
	case ActIncrement:
		inc, ok := r.target.(Incrementer)
		if !ok {
			return false, fmt.Errorf("step %d: target does not support increments", r.pos-1)
		}
		if _, err := inc.Increment(r.ids[a.Tx], a.Obj, a.Delta); err != nil {
			return false, fmt.Errorf("step %d %v: %w", r.pos-1, a.Kind, err)
		}
	default:
		return false, fmt.Errorf("sim: unknown action %v", a.Kind)
	}
	return true, nil
}

// Pos returns the index of the next action Step would apply — after a
// failed Step, the index of the action that failed plus one.
func (r *Replayer) Pos() int { return r.pos }

// IDs returns a copy of the slot → TxID assignments made so far.  Crash
// harnesses use it to classify transactions as winners or losers from
// the durable log, which names transactions by TxID, not slot.
func (r *Replayer) IDs() map[int]wal.TxID {
	out := make(map[int]wal.TxID, len(r.ids))
	for s, id := range r.ids {
		out[s] = id
	}
	return out
}

// RunTo replays actions up to (not including) index stop, or the whole
// trace if stop < 0.
func (r *Replayer) RunTo(stop int) error {
	for r.pos < len(r.trace) {
		if stop >= 0 && r.pos >= stop {
			return nil
		}
		if _, err := r.Step(); err != nil {
			return err
		}
	}
	return nil
}

// LiveSlots returns the slots of transactions currently active, sorted.
func (r *Replayer) LiveSlots() []int {
	var out []int
	for s := range r.live {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// CrashRecover flushes the log (so the oracle's view of what is durable
// matches the engine's), crashes, and recovers.  All live transactions
// become losers.
func (r *Replayer) CrashRecover() error {
	if err := r.target.FlushLog(); err != nil {
		return err
	}
	if err := r.target.Crash(); err != nil {
		return err
	}
	if err := r.target.Recover(); err != nil {
		return err
	}
	r.live = make(map[int]bool)
	return nil
}

// AbortLive aborts every still-active transaction in slot order (used to
// settle a trace without a crash).  The order is deterministic because
// physical undo of co-held objects is order-sensitive; the oracle must
// settle in the same order.
func (r *Replayer) AbortLive() error {
	for _, s := range r.LiveSlots() {
		if err := r.target.Abort(r.ids[s]); err != nil {
			return err
		}
		delete(r.live, s)
	}
	return nil
}
