// Package sim is the workload and fault-injection harness used to validate
// the correctness properties of §4.1 over randomized histories: after a
// crash, every update whose final delegatee is a loser is undone, and
// every update whose final delegatee is a winner survives.
//
// It provides:
//
//   - a deterministic trace generator (histories of begin / update /
//     delegate / delegate-all / commit / abort that respect locking and
//     the delegation precondition);
//   - an independent oracle that computes the expected database state by
//     direct application of the paper's semantics (no scopes, no clusters,
//     no log — a deliberately different formulation from the engine's);
//   - adapters so the same trace can be replayed against the ARIES/RH
//     engine and the eager/lazy rewriting baselines, whose final states
//     must agree with the oracle and with each other.
package sim

import (
	"fmt"
	"math/rand"

	"ariesrh/internal/wal"
)

// ActionKind discriminates trace actions.
type ActionKind int

// Trace action kinds.
const (
	// ActBegin starts the transaction in slot Tx.
	ActBegin ActionKind = iota
	// ActUpdate sets object Obj to Val through slot Tx.
	ActUpdate
	// ActDelegate delegates Obj from slot Tx to slot Tee.
	ActDelegate
	// ActCommit commits slot Tx.
	ActCommit
	// ActAbort aborts slot Tx.
	ActAbort
	// ActSavepoint records a savepoint for slot Tx (engines that support
	// partial rollback only).
	ActSavepoint
	// ActRollback partially rolls slot Tx back to its latest savepoint.
	ActRollback
	// ActIncrement adds Delta to counter Obj through slot Tx (engines
	// with commutative-increment support only).
	ActIncrement
	// ActDelegateAll delegates every object slot Tx is responsible for
	// to slot Tee — the join and nested-commit form (engines with
	// DelegateAll only).
	ActDelegateAll
)

// String names the action kind.
func (k ActionKind) String() string {
	switch k {
	case ActBegin:
		return "begin"
	case ActUpdate:
		return "update"
	case ActDelegate:
		return "delegate"
	case ActCommit:
		return "commit"
	case ActAbort:
		return "abort"
	case ActSavepoint:
		return "savepoint"
	case ActRollback:
		return "rollback"
	case ActIncrement:
		return "increment"
	case ActDelegateAll:
		return "delegate-all"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Action is one step of a generated history.  Transactions are named by
// dense slot numbers; the replayer maps slots to engine TxIDs.
type Action struct {
	Kind  ActionKind
	Tx    int
	Tee   int
	Obj   wal.ObjectID
	Val   []byte
	Delta int64
}

// Config parameterizes trace generation.
type Config struct {
	// Seed makes the trace deterministic.
	Seed int64
	// Steps is the number of non-begin actions to generate.
	Steps int
	// Objects is the size of the object ID space.
	Objects int
	// MaxActive bounds concurrently live transactions.
	MaxActive int
	// DelegationRate is the probability that a step is a delegation
	// (when one is legal).
	DelegationRate float64
	// TerminateRate is the probability that a step terminates a
	// transaction; of terminations, AbortFraction abort.
	TerminateRate float64
	AbortFraction float64
	// SavepointRate is the probability that a step sets a savepoint or
	// (if the chosen transaction has one) rolls back to it.  Only used
	// with engines that support partial rollback.
	SavepointRate float64
	// Counters adds that many commutative-counter objects (IDs above
	// Objects); IncrementRate is the probability a step increments one.
	// Only used with engines that support increments.
	Counters      int
	IncrementRate float64
	// DelegateAllRate is the probability that a step delegates every
	// object of one live transaction to another.  Only used with engines
	// that support DelegateAll; at 0 the generator draws no number for
	// it, so a config that leaves it unset yields the same trace.
	DelegateAllRate float64
}

// genState tracks, per live transaction slot, what the generator may
// legally do: the objects it may write (free or already held by it) and
// the objects it is responsible for (delegation precondition).
type genState struct {
	live    map[int]bool
	holders map[wal.ObjectID]map[int]bool // lock co-holders
	// maybe names holders the engine may have that holders does not: a
	// delegate-all shares every object in the delegator's Ob_List, which
	// after a rollback can be more or less than responsible tracks.  An
	// object with a possible holder is written only by a certain one.
	maybe       map[wal.ObjectID]map[int]bool
	responsible map[int]map[wal.ObjectID]bool // slot → objects in its Ob_List
	// hasSavepoint/sinceSavepoint track the single outstanding savepoint
	// per slot and the objects whose responsibility was gained after it.
	hasSavepoint   map[int]bool
	sinceSavepoint map[int]map[wal.ObjectID]bool
	nextSlot       int
}

// Generate produces a deterministic legal trace: updates never block (an
// object is written only by a transaction that could acquire its lock
// without waiting), delegations satisfy the paper's precondition, and
// every live transaction is terminated at the end unless cfg says to
// leave them (losers for a crash test are produced by the replayer's
// crash point instead).
func Generate(cfg Config) []Action {
	if cfg.Objects < 1 {
		cfg.Objects = 16
	}
	if cfg.MaxActive < 2 {
		cfg.MaxActive = 4
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	st := &genState{
		live:           make(map[int]bool),
		holders:        make(map[wal.ObjectID]map[int]bool),
		maybe:          make(map[wal.ObjectID]map[int]bool),
		responsible:    make(map[int]map[wal.ObjectID]bool),
		hasSavepoint:   make(map[int]bool),
		sinceSavepoint: make(map[int]map[wal.ObjectID]bool),
	}
	var trace []Action

	begin := func() int {
		slot := st.nextSlot
		st.nextSlot++
		st.live[slot] = true
		st.responsible[slot] = make(map[wal.ObjectID]bool)
		trace = append(trace, Action{Kind: ActBegin, Tx: slot})
		return slot
	}
	liveSlots := func() []int {
		var out []int
		for s := range st.live {
			out = append(out, s)
		}
		// Deterministic order for the rng choices.
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j-1] > out[j]; j-- {
				out[j-1], out[j] = out[j], out[j-1]
			}
		}
		return out
	}
	terminate := func(slot int, abort bool) {
		kind := ActCommit
		if abort {
			kind = ActAbort
		}
		trace = append(trace, Action{Kind: kind, Tx: slot})
		delete(st.live, slot)
		delete(st.responsible, slot)
		delete(st.hasSavepoint, slot)
		delete(st.sinceSavepoint, slot)
		for _, hs := range st.holders {
			delete(hs, slot)
		}
		for _, hs := range st.maybe {
			delete(hs, slot)
		}
	}

	for len(trace) < cfg.Steps {
		if len(st.live) == 0 || (len(st.live) < cfg.MaxActive && rng.Float64() < 0.15) {
			begin()
			continue
		}
		slots := liveSlots()
		slot := slots[rng.Intn(len(slots))]
		r := rng.Float64()
		switch {
		case r < cfg.SavepointRate:
			// Alternate: set a savepoint, or roll back to the one set.
			if st.hasSavepoint[slot] {
				trace = append(trace, Action{Kind: ActRollback, Tx: slot})
				// Rolling back revokes responsibility for every
				// object whose updates all postdate the mark; we
				// conservatively forget responsibility gained
				// since the savepoint so later delegations stay
				// well-formed.
				for obj := range st.sinceSavepoint[slot] {
					delete(st.responsible[slot], obj)
				}
				delete(st.hasSavepoint, slot)
				delete(st.sinceSavepoint, slot)
			} else {
				trace = append(trace, Action{Kind: ActSavepoint, Tx: slot})
				st.hasSavepoint[slot] = true
				st.sinceSavepoint[slot] = make(map[wal.ObjectID]bool)
			}
		case cfg.Counters > 0 && r < cfg.SavepointRate+cfg.IncrementRate:
			// Increment a counter: always lock-compatible (counters
			// are only ever incremented in generated traces).
			obj := wal.ObjectID(cfg.Objects + rng.Intn(cfg.Counters) + 1)
			delta := int64(rng.Intn(21) - 10)
			if delta == 0 {
				delta = 1
			}
			trace = append(trace, Action{Kind: ActIncrement, Tx: slot, Obj: obj, Delta: delta})
			st.responsible[slot][obj] = true
			if st.sinceSavepoint[slot] != nil {
				st.sinceSavepoint[slot][obj] = true
			}
		case r < cfg.SavepointRate+cfg.IncrementRate+cfg.TerminateRate:
			terminate(slot, rng.Float64() < cfg.AbortFraction)
		case r < cfg.SavepointRate+cfg.IncrementRate+cfg.TerminateRate+cfg.DelegationRate:
			// Delegate a responsible object to another live slot.
			var objs []wal.ObjectID
			for obj := range st.responsible[slot] {
				objs = append(objs, obj)
			}
			if len(objs) == 0 || len(slots) < 2 {
				continue
			}
			for i := 1; i < len(objs); i++ {
				for j := i; j > 0 && objs[j-1] > objs[j]; j-- {
					objs[j-1], objs[j] = objs[j], objs[j-1]
				}
			}
			obj := objs[rng.Intn(len(objs))]
			tee := slots[rng.Intn(len(slots))]
			if tee == slot {
				continue
			}
			trace = append(trace, Action{Kind: ActDelegate, Tx: slot, Tee: tee, Obj: obj})
			delete(st.responsible[slot], obj)
			delete(st.sinceSavepoint[slot], obj)
			st.responsible[tee][obj] = true
			if st.sinceSavepoint[tee] != nil {
				st.sinceSavepoint[tee][obj] = true
			}
			if st.holders[obj] == nil {
				st.holders[obj] = make(map[int]bool)
			}
			st.holders[obj][tee] = true
		case cfg.DelegateAllRate > 0 && r < cfg.SavepointRate+cfg.IncrementRate+cfg.TerminateRate+cfg.DelegationRate+cfg.DelegateAllRate:
			// Delegate everything this slot is responsible for to
			// another live slot.  The engine moves every object in the
			// Ob_List and shares each one's lock.  The objects
			// responsible tracks are certainly among them; any other
			// lock the slot may hold may be shared too (a rollback
			// forgets responsibility conservatively, and trims the
			// Ob_List by LSN), so the delegatee becomes a possible
			// holder of it.
			if len(slots) < 2 {
				continue
			}
			tee := slots[rng.Intn(len(slots))]
			if tee == slot {
				continue
			}
			trace = append(trace, Action{Kind: ActDelegateAll, Tx: slot, Tee: tee})
			for obj, hs := range st.holders {
				if hs[slot] || st.maybe[obj][slot] {
					if st.maybe[obj] == nil {
						st.maybe[obj] = make(map[int]bool)
					}
					st.maybe[obj][tee] = true
				}
			}
			for obj := range st.responsible[slot] {
				st.responsible[tee][obj] = true
				if st.sinceSavepoint[tee] != nil {
					st.sinceSavepoint[tee][obj] = true
				}
				if st.holders[obj] == nil {
					st.holders[obj] = make(map[int]bool)
				}
				st.holders[obj][tee] = true
			}
			clear(st.responsible[slot])
			clear(st.sinceSavepoint[slot])
		default:
			// Update an object this slot can lock without blocking.
			obj := wal.ObjectID(rng.Intn(cfg.Objects) + 1)
			if hs := st.holders[obj]; (len(hs) > 0 || len(st.maybe[obj]) > 0) && !hs[slot] {
				continue // would or might block; skip
			}
			val := []byte(fmt.Sprintf("s%d-t%d-o%d-%d", cfg.Seed, slot, obj, len(trace)))
			trace = append(trace, Action{Kind: ActUpdate, Tx: slot, Obj: obj, Val: val})
			if st.holders[obj] == nil {
				st.holders[obj] = make(map[int]bool)
			}
			st.holders[obj][slot] = true
			st.responsible[slot][obj] = true
			if st.sinceSavepoint[slot] != nil {
				st.sinceSavepoint[slot][obj] = true
			}
		}
	}
	return trace
}
