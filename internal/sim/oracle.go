package sim

import (
	"fmt"

	"ariesrh/internal/wal"
)

// Oracle computes the expected database state for a trace by direct
// application of the delegation semantics (§2.1.2): every update has a
// responsible transaction — initially its invoker, changed by delegation —
// and an update survives exactly when the transaction responsible for it
// at termination time committed.  Undo restores before-images in reverse
// history order, matching in-place UNDO/REDO engines.
//
// The oracle is deliberately log-free and scope-free: it is a different
// formulation of the same semantics, so agreement with the engines is
// meaningful evidence of correctness.
type Oracle struct {
	values   map[wal.ObjectID][]byte
	counters map[wal.ObjectID]int64
	ops      []*oracleOp
	// savepoints maps a transaction slot to the ops-index recorded at
	// its (single outstanding) savepoint.
	savepoints map[int]int
}

type oracleOp struct {
	idx         int
	responsible int
	obj         wal.ObjectID
	before      []byte
	dead        bool
	// isDelta marks a commutative increment; undo subtracts delta
	// instead of restoring before.
	isDelta bool
	delta   int64
}

// NewOracle returns an oracle over an empty database.
func NewOracle() *Oracle {
	return &Oracle{
		values:     make(map[wal.ObjectID][]byte),
		counters:   make(map[wal.ObjectID]int64),
		savepoints: make(map[int]int),
	}
}

// Apply advances the oracle by one trace action.
func (o *Oracle) Apply(a Action) error {
	switch a.Kind {
	case ActBegin:
	case ActUpdate:
		before := append([]byte(nil), o.values[a.Obj]...)
		o.values[a.Obj] = append([]byte(nil), a.Val...)
		o.ops = append(o.ops, &oracleOp{
			idx:         len(o.ops),
			responsible: a.Tx,
			obj:         a.Obj,
			before:      before,
		})
	case ActIncrement:
		o.counters[a.Obj] += a.Delta
		o.ops = append(o.ops, &oracleOp{
			idx:         len(o.ops),
			responsible: a.Tx,
			obj:         a.Obj,
			isDelta:     true,
			delta:       a.Delta,
		})
	case ActDelegate, ActDelegateAll:
		for _, op := range o.ops {
			if !op.dead && op.responsible == a.Tx && (a.Kind == ActDelegateAll || op.obj == a.Obj) {
				op.responsible = a.Tee
			}
		}
	case ActCommit:
		for _, op := range o.ops {
			if !op.dead && op.responsible == a.Tx {
				op.dead = true // permanent
			}
		}
		delete(o.savepoints, a.Tx)
	case ActAbort:
		o.undoResponsible(map[int]bool{a.Tx: true})
		delete(o.savepoints, a.Tx)
	case ActSavepoint:
		o.savepoints[a.Tx] = len(o.ops)
	case ActRollback:
		mark, ok := o.savepoints[a.Tx]
		if !ok {
			return fmt.Errorf("sim: rollback without savepoint for slot %d", a.Tx)
		}
		// Undo, in reverse order, every live update the transaction is
		// responsible for that postdates the savepoint.
		for i := len(o.ops) - 1; i >= mark; i-- {
			op := o.ops[i]
			if op.dead || op.responsible != a.Tx {
				continue
			}
			o.undoOp(op)
		}
		delete(o.savepoints, a.Tx)
	default:
		return fmt.Errorf("sim: unknown action %v", a.Kind)
	}
	return nil
}

// undoResponsible restores before-images, in reverse history order, for
// every live update whose responsible transaction is in losers.
func (o *Oracle) undoResponsible(losers map[int]bool) {
	for i := len(o.ops) - 1; i >= 0; i-- {
		op := o.ops[i]
		if op.dead || !losers[op.responsible] {
			continue
		}
		o.undoOp(op)
	}
}

// undoOp reverses one op: physical image restore or logical delta.
func (o *Oracle) undoOp(op *oracleOp) {
	if op.isDelta {
		o.counters[op.obj] -= op.delta
	} else {
		o.values[op.obj] = append([]byte(nil), op.before...)
	}
	op.dead = true
}

// CrashRecover applies crash semantics: every transaction in losers (the
// transactions still active at the crash) has the updates it is
// responsible for undone; everything else is already permanent.
func (o *Oracle) CrashRecover(losers []int) {
	set := make(map[int]bool, len(losers))
	for _, s := range losers {
		set[s] = true
	}
	o.undoResponsible(set)
}

// Value returns the expected value of obj ("" and false when the object
// was never durably written).
func (o *Oracle) Value(obj wal.ObjectID) ([]byte, bool) {
	v, ok := o.values[obj]
	if !ok || len(v) == 0 {
		return nil, false
	}
	return v, true
}

// Counter returns the expected value of the counter obj.
func (o *Oracle) Counter(obj wal.ObjectID) int64 { return o.counters[obj] }

// Objects returns every object the oracle has seen.
func (o *Oracle) Objects() []wal.ObjectID {
	out := make([]wal.ObjectID, 0, len(o.values))
	for obj := range o.values {
		out = append(out, obj)
	}
	return out
}
