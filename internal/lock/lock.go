// Package lock implements a strict two-phase-locking lock manager with
// shared/exclusive object locks, FIFO waiting, wait-for-graph deadlock
// detection, and lock transfer.
//
// Lock transfer supports delegation: when t1 delegates an object to t2, the
// delegatee inherits the delegator's lock on it so the delegated updates
// stay protected until their (new) responsible transaction terminates —
// this is the lock-manager half of the paper's "broadening of visibility".
package lock

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ariesrh/internal/obs"
	"ariesrh/internal/wal"
)

// Mode is a lock mode.
type Mode int

// Lock modes.
const (
	// Shared permits concurrent readers.
	Shared Mode = iota
	// Exclusive permits a single writer.
	Exclusive
	// Increment permits concurrent commutative increments: Increment is
	// compatible with Increment but conflicts with Shared and Exclusive
	// (readers must not observe half-applied counter groups; writers
	// must not overwrite concurrently incremented counters).
	Increment
)

// String returns "S", "X" or "I".
func (m Mode) String() string {
	switch m {
	case Exclusive:
		return "X"
	case Increment:
		return "I"
	default:
		return "S"
	}
}

// compatibleModes reports whether two holders may coexist.
func compatibleModes(a, b Mode) bool {
	return (a == Shared && b == Shared) || (a == Increment && b == Increment)
}

// combineModes returns the mode a single transaction holds after being
// granted next while already holding cur: equal modes stay; any
// combination involving Exclusive — or the incomparable pair
// Shared+Increment — escalates to Exclusive, so peers that would conflict
// with either constituent stay excluded.
func combineModes(cur, next Mode) Mode {
	if cur == next {
		return cur
	}
	return Exclusive
}

// ErrDeadlock is returned to a requester whose wait would close a cycle in
// the wait-for graph; the requester is the victim and should abort.
var ErrDeadlock = errors.New("lock: deadlock")

// ErrReset is returned to a requester that was waiting when Reset
// discarded the lock table: the lock it queued for no longer exists.
var ErrReset = errors.New("lock: lock table reset")

type request struct {
	tx   wal.TxID
	mode Mode
}

type lockState struct {
	// holders maps each holding transaction to its granted mode.
	holders map[wal.TxID]Mode
	queue   []request
	// violable maps each transaction that released a write lock (X or I)
	// on this object pre-durably — via ReleaseAllViolable, the early-
	// lock-release commit path — to the mode it held.  A later acquirer
	// whose mode conflicts with a recorded mode has "violated" that
	// lock in the controlled-lock-violation sense: it may observe data
	// whose commit record is not yet on stable storage, and the engine
	// forms a commit dependency on the releaser.  Entries are cleared by
	// ClearViolable once the releaser's commit record is durable (or its
	// commit failed and was rolled back).  Shared releases are never
	// recorded: a pre-durable reader leaves no dirty data behind, so
	// overwriting what it read creates no recoverability obligation.
	violable map[wal.TxID]Mode
}

// Manager is the lock manager.  All methods are safe for concurrent use;
// Acquire blocks the calling goroutine until the lock is granted or the
// request is chosen as a deadlock victim.
type Manager struct {
	mu    sync.Mutex
	cond  *sync.Cond
	locks map[wal.ObjectID]*lockState
	// held tracks, per transaction, the objects it holds locks on.
	held map[wal.TxID]map[wal.ObjectID]struct{}
	// heldSince records when each transaction acquired its first lock;
	// ReleaseAll observes the span as the transaction's lock-hold time.
	heldSince map[wal.TxID]time.Time
	// waitsFor maps a blocked transaction to the transactions it waits on.
	waitsFor map[wal.TxID]map[wal.TxID]struct{}
	// violableBy indexes, per pre-durable releaser, the objects carrying
	// its violable markers, so ClearViolable is O(objects released).
	violableBy map[wal.TxID]map[wal.ObjectID]struct{}
	// epoch counts Resets; a waiter that wakes in a later epoch than it
	// queued in fails with ErrReset.
	epoch uint64
	met   lockMetrics
}

// lockMetrics holds the manager's pre-resolved metric handles.  A fresh
// manager binds them to a private registry so they are never nil; the
// owning engine rebinds them to its own registry via Instrument.
type lockMetrics struct {
	acquires, waits, deadlocks, shares, transfers *obs.Counter
	// Per-mode acquire counts (satellite contention observability: the
	// S/X/I mix tells whether a hot object is read- or write-contended).
	acquiresShared, acquiresExclusive, acquiresIncrement *obs.Counter
	// violableMarks counts objects marked by pre-durable releases;
	// violations counts conflicting acquisitions over a live marker.
	violableMarks, violations *obs.Counter
	// waiters is the number of transactions currently blocked in Acquire.
	waiters *obs.Gauge
	// waitNs observes time spent blocked per Acquire that waited; holdNs
	// observes, per transaction, first-acquire-to-release lock-hold time.
	waitNs, holdNs *obs.Histogram
}

func bindLockMetrics(r *obs.Registry) lockMetrics {
	return lockMetrics{
		acquires:          r.Counter("lock.acquires"),
		waits:             r.Counter("lock.waits"),
		deadlocks:         r.Counter("lock.deadlocks"),
		shares:            r.Counter("lock.shares"),
		transfers:         r.Counter("lock.transfers"),
		acquiresShared:    r.Counter("lock.acquires.shared"),
		acquiresExclusive: r.Counter("lock.acquires.exclusive"),
		acquiresIncrement: r.Counter("lock.acquires.increment"),
		violableMarks:     r.Counter("lock.violable_marks"),
		violations:        r.Counter("lock.violations"),
		waiters:           r.Gauge("lock.waiters"),
		waitNs:            r.Histogram("lock.wait_ns"),
		holdNs:            r.Histogram("lock.hold_ns"),
	}
}

// Instrument rebinds the manager's metrics to reg (see internal/obs).
// Call it at construction time, before the manager is shared.
func (m *Manager) Instrument(reg *obs.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.met = bindLockMetrics(reg)
}

// NewManager returns an empty lock manager.
func NewManager() *Manager {
	m := &Manager{
		locks:      make(map[wal.ObjectID]*lockState),
		held:       make(map[wal.TxID]map[wal.ObjectID]struct{}),
		heldSince:  make(map[wal.TxID]time.Time),
		waitsFor:   make(map[wal.TxID]map[wal.TxID]struct{}),
		violableBy: make(map[wal.TxID]map[wal.ObjectID]struct{}),
		met:        bindLockMetrics(obs.NewRegistry()),
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *Manager) state(obj wal.ObjectID) *lockState {
	ls, ok := m.locks[obj]
	if !ok {
		ls = &lockState{holders: make(map[wal.TxID]Mode)}
		m.locks[obj] = ls
	}
	return ls
}

// Acquire grants tx a mode lock on obj, blocking while incompatible locks
// are held.  Re-acquisition is a no-op when the held mode already covers
// the request; a Shared→Exclusive upgrade waits for other holders to leave.
// Returns ErrDeadlock if waiting would complete a wait-for cycle; the
// caller should abort tx.  Returns ErrReset if Reset ran during the wait.
func (m *Manager) Acquire(tx wal.TxID, obj wal.ObjectID, mode Mode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	epoch := m.epoch
	ls := m.state(obj)
	m.met.acquires.Inc()
	switch mode {
	case Exclusive:
		m.met.acquiresExclusive.Inc()
	case Increment:
		m.met.acquiresIncrement.Inc()
	default:
		m.met.acquiresShared.Inc()
	}
	if hm, ok := ls.holders[tx]; ok && (hm == Exclusive || hm == mode) {
		return nil // already covered
	}
	ls.queue = append(ls.queue, request{tx: tx, mode: mode})
	var waitStart time.Time
	for !m.isGrantableLocked(ls, tx, mode) {
		if waitStart.IsZero() {
			waitStart = time.Now()
			m.met.waits.Inc()
			m.met.waiters.Add(1)
		}
		m.recordWaitsLocked(ls, tx, mode)
		if m.hasCycleLocked(tx) {
			m.removeRequestLocked(ls, tx, mode)
			delete(m.waitsFor, tx)
			m.met.deadlocks.Inc()
			m.met.waiters.Add(-1)
			m.met.waitNs.Observe(time.Since(waitStart))
			m.cond.Broadcast()
			return fmt.Errorf("%w: transaction %d victimized on object %d", ErrDeadlock, tx, obj)
		}
		m.cond.Wait()
		if m.epoch != epoch {
			// ls and the wait-for edges belong to the discarded table;
			// the fresh one must not learn of this request.
			m.met.waiters.Add(-1)
			m.met.waitNs.Observe(time.Since(waitStart))
			return fmt.Errorf("%w: transaction %d was waiting on object %d", ErrReset, tx, obj)
		}
	}
	if !waitStart.IsZero() {
		m.met.waiters.Add(-1)
		m.met.waitNs.Observe(time.Since(waitStart))
	}
	delete(m.waitsFor, tx)
	m.removeRequestLocked(ls, tx, mode)
	if cur, ok := ls.holders[tx]; ok {
		ls.holders[tx] = combineModes(cur, mode)
	} else {
		ls.holders[tx] = mode
	}
	if m.held[tx] == nil {
		m.held[tx] = make(map[wal.ObjectID]struct{})
		m.heldSince[tx] = time.Now()
	}
	m.held[tx][obj] = struct{}{}
	m.cond.Broadcast()
	return nil
}

// compatibleLocked reports whether tx may hold mode alongside the current
// holders of ls.
func (m *Manager) compatibleLocked(ls *lockState, tx wal.TxID, mode Mode) bool {
	for holder, hm := range ls.holders {
		if holder == tx {
			continue
		}
		if !compatibleModes(hm, mode) {
			return false
		}
	}
	return true
}

// isGrantableLocked applies FIFO granting: tx's request may be granted only
// if it is compatible with holders and not queued behind an incompatible
// earlier request (avoids writer starvation).  Upgrades (tx already a
// holder) bypass the queue-order check, else they could deadlock on their
// own queue position.
func (m *Manager) isGrantableLocked(ls *lockState, tx wal.TxID, mode Mode) bool {
	if !m.compatibleLocked(ls, tx, mode) {
		return false
	}
	if _, holder := ls.holders[tx]; holder {
		return true
	}
	for _, q := range ls.queue {
		if q.tx == tx && q.mode == mode {
			return true
		}
		if !compatibleModes(q.mode, mode) {
			return false
		}
	}
	return true
}

func (m *Manager) removeRequestLocked(ls *lockState, tx wal.TxID, mode Mode) {
	for i, q := range ls.queue {
		if q.tx == tx && q.mode == mode {
			ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
			return
		}
	}
}

// recordWaitsLocked updates tx's wait-for edges: tx waits on incompatible
// holders and on earlier incompatible queued requests.
func (m *Manager) recordWaitsLocked(ls *lockState, tx wal.TxID, mode Mode) {
	edges := make(map[wal.TxID]struct{})
	for holder, hm := range ls.holders {
		if holder == tx {
			continue
		}
		if !compatibleModes(hm, mode) {
			edges[holder] = struct{}{}
		}
	}
	for _, q := range ls.queue {
		if q.tx == tx {
			break
		}
		if !compatibleModes(q.mode, mode) {
			edges[q.tx] = struct{}{}
		}
	}
	m.waitsFor[tx] = edges
}

// hasCycleLocked reports whether the wait-for graph contains a cycle
// through start.
func (m *Manager) hasCycleLocked(start wal.TxID) bool {
	seen := make(map[wal.TxID]bool)
	var dfs func(tx wal.TxID) bool
	dfs = func(tx wal.TxID) bool {
		for next := range m.waitsFor[tx] {
			if next == start {
				return true
			}
			if !seen[next] {
				seen[next] = true
				if dfs(next) {
					return true
				}
			}
		}
		return false
	}
	return dfs(start)
}

// Share grants to a co-hold on obj at the mode from holds, without
// revoking from's own hold.  This is the lock-manager effect of delegation
// (and of ASSET's permit): the delegatee gains access to the delegated
// object — broadening its visibility — while the delegator may keep
// operating on it, which the paper explicitly allows (§2.1.2: a
// transaction can perform operations on an object even after delegating
// it).  Third parties still conflict as usual.  Each co-holder's
// termination releases only its own hold.
func (m *Manager) Share(from, to wal.TxID, obj wal.ObjectID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ls := m.state(obj)
	fm, ok := ls.holders[from]
	if !ok {
		return fmt.Errorf("lock: share of object %d from t%d which holds no lock", obj, from)
	}
	m.met.shares.Inc()
	if tm, held := ls.holders[to]; held {
		ls.holders[to] = combineModes(tm, fm)
	} else {
		ls.holders[to] = fm
	}
	if m.held[to] == nil {
		m.held[to] = make(map[wal.ObjectID]struct{})
		m.heldSince[to] = time.Now()
	}
	m.held[to][obj] = struct{}{}
	m.cond.Broadcast()
	return nil
}

// Transfer moves transaction from's lock on obj to to, as part of a
// delegation.  If the delegatee already holds a lock on obj the stronger
// mode wins.  It is an error for from not to hold a lock on obj.
func (m *Manager) Transfer(from, to wal.TxID, obj wal.ObjectID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ls := m.state(obj)
	fm, ok := ls.holders[from]
	if !ok {
		return fmt.Errorf("lock: transfer of object %d from t%d which holds no lock", obj, from)
	}
	m.met.transfers.Inc()
	delete(ls.holders, from)
	if m.held[from] != nil {
		delete(m.held[from], obj)
	}
	if tm, held := ls.holders[to]; held {
		ls.holders[to] = combineModes(tm, fm)
	} else {
		ls.holders[to] = fm
	}
	if m.held[to] == nil {
		m.held[to] = make(map[wal.ObjectID]struct{})
		m.heldSince[to] = time.Now()
	}
	m.held[to][obj] = struct{}{}
	m.cond.Broadcast()
	return nil
}

// ReleaseAll drops every lock held by tx (transaction termination under
// strict 2PL) and wakes waiters.
func (m *Manager) ReleaseAll(tx wal.TxID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.releaseAllLocked(tx, false)
}

// ReleaseAllViolable drops every lock held by tx exactly like ReleaseAll,
// but additionally marks each object tx held in a write mode (Exclusive
// or Increment) as carrying tx's violable lock: tx's commit record is
// appended but not yet durable, and a later conflicting acquirer must
// form a commit dependency on tx (see Violators).  This is the lock-
// manager half of early lock release / controlled lock violation; the
// engine clears the markers with ClearViolable once tx's commit record
// reaches stable storage or its commit fails and is rolled back.
func (m *Manager) ReleaseAllViolable(tx wal.TxID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.releaseAllLocked(tx, true)
}

func (m *Manager) releaseAllLocked(tx wal.TxID, violable bool) {
	for obj := range m.held[tx] {
		ls, ok := m.locks[obj]
		if !ok {
			continue
		}
		mode := ls.holders[tx]
		delete(ls.holders, tx)
		if violable && mode != Shared {
			if ls.violable == nil {
				ls.violable = make(map[wal.TxID]Mode)
			}
			ls.violable[tx] = mode
			if m.violableBy[tx] == nil {
				m.violableBy[tx] = make(map[wal.ObjectID]struct{})
			}
			m.violableBy[tx][obj] = struct{}{}
			m.met.violableMarks.Inc()
		}
		m.dropStateIfEmptyLocked(obj, ls)
	}
	if since, ok := m.heldSince[tx]; ok {
		m.met.holdNs.Observe(time.Since(since))
	}
	delete(m.heldSince, tx)
	delete(m.held, tx)
	delete(m.waitsFor, tx)
	m.cond.Broadcast()
}

// dropStateIfEmptyLocked garbage-collects an object's lock state once
// nothing references it: no holders, no queued requests, no violable
// markers awaiting their releaser's durability.
func (m *Manager) dropStateIfEmptyLocked(obj wal.ObjectID, ls *lockState) {
	if len(ls.holders) == 0 && len(ls.queue) == 0 && len(ls.violable) == 0 {
		delete(m.locks, obj)
	}
}

// ClearViolable removes every violable marker left by tx's early lock
// release: its commit record became durable (the markers impose no
// constraint any more) or its commit failed and the rollback's cascade
// already settled the dependents.
func (m *Manager) ClearViolable(tx wal.TxID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for obj := range m.violableBy[tx] {
		if ls, ok := m.locks[obj]; ok {
			delete(ls.violable, tx)
			m.dropStateIfEmptyLocked(obj, ls)
		}
	}
	delete(m.violableBy, tx)
}

// Violators returns the transactions whose early-released (violable)
// lock on obj conflicts with an acquisition in mode by tx — the
// pre-durable committers tx has violated and must form commit
// dependencies on.  A compatible acquisition (Increment over a released
// Increment) is not a violation: it could have been granted while the
// releaser still held its lock.  The caller is expected to filter the
// result against its own pre-durable set: a marker may outlive its
// releaser's durability by the breadth of a callback race.
func (m *Manager) Violators(tx wal.TxID, obj wal.ObjectID, mode Mode) []wal.TxID {
	m.mu.Lock()
	defer m.mu.Unlock()
	ls, ok := m.locks[obj]
	if !ok || len(ls.violable) == 0 {
		return nil
	}
	var out []wal.TxID
	for releaser, rm := range ls.violable {
		if releaser == tx || compatibleModes(rm, mode) {
			continue
		}
		out = append(out, releaser)
	}
	if len(out) > 0 {
		m.met.violations.Add(uint64(len(out)))
	}
	return out
}

// Holds reports the mode tx holds on obj, if any.
func (m *Manager) Holds(tx wal.TxID, obj wal.ObjectID) (Mode, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ls, ok := m.locks[obj]
	if !ok {
		return 0, false
	}
	mode, ok := ls.holders[tx]
	return mode, ok
}

// Holders returns, in ascending order, every transaction that currently
// holds at least one lock.  The engine checks it against its transaction
// table: a holder the table does not know can never release.
func (m *Manager) Holders() []wal.TxID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]wal.TxID, 0, len(m.held))
	for tx, objs := range m.held {
		if len(objs) > 0 {
			out = append(out, tx)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Reset discards all lock state (crash simulation: locks are volatile).
// Every Acquire still waiting fails with ErrReset.
func (m *Manager) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.epoch++
	m.locks = make(map[wal.ObjectID]*lockState)
	m.held = make(map[wal.TxID]map[wal.ObjectID]struct{})
	m.heldSince = make(map[wal.TxID]time.Time)
	m.waitsFor = make(map[wal.TxID]map[wal.TxID]struct{})
	m.violableBy = make(map[wal.TxID]map[wal.ObjectID]struct{})
	m.cond.Broadcast()
}
