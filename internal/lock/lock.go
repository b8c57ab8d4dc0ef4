// Package lock implements a strict two-phase-locking lock manager with
// shared/exclusive/increment object locks, FIFO waiting, wait-for-graph
// deadlock detection, and lock transfer.
//
// Lock transfer supports delegation: when t1 delegates an object to t2, the
// delegatee inherits the delegator's lock on it so the delegated updates
// stay protected until their (new) responsible transaction terminates —
// this is the lock-manager half of the paper's "broadening of visibility".
//
// Waiting is per object.  A request compatible with the holders and queued
// behind nothing incompatible is granted at once and never queued.  A
// request that must wait joins its object's FIFO list and parks on its own
// wake channel.  A change to that object's holders or queue — a release, a
// Transfer or Share, a cancelled or victimized request — grants the
// requests it made grantable and wakes exactly those.  Terminating a
// transaction (ReleaseAll, ReleaseAllViolable) also cancels its queued
// requests, which fail with ErrCancelled.  Emptied object states,
// transaction records and wait requests are recycled through bounded
// free lists, so an uncontended acquire and release allocate nothing.
package lock

import (
	"errors"
	"fmt"
	"slices"
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

// ErrCancelled is returned to a requester whose transaction terminated
// (ReleaseAll or ReleaseAllViolable) while the request was queued: a
// terminated transaction is never granted a lock.
var ErrCancelled = errors.New("lock: request cancelled by transaction termination")

// Free-list bounds.  A free list only has to absorb the swing in live
// states, transaction records and waiters between transactions; the
// bounds cap what an idle manager keeps whatever its peak was, and an
// item whose slices or held set grew past maxRecycledLen is left to the
// collector instead of being kept.
const (
	maxFreeStates  = 256
	maxFreeTxs     = 64
	maxFreeWaiters = 64
	maxRecycledLen = 32
)

type holder struct {
	tx   wal.TxID
	mode Mode
}

// waiter is one queued request.  Its goroutine parks on ready, which
// receives exactly one send, when the request leaves its object's queue:
// granted (err nil) or failed (err set).
type waiter struct {
	tx    wal.TxID
	obj   wal.ObjectID
	mode  Mode
	ready chan struct{}
	err   error
	// edges are the transactions this request waits for: the object's
	// incompatible holders and the incompatible requests queued ahead.
	edges []wal.TxID
}

// wake hands w its outcome.  ready is buffered and a queued request is
// woken once, so the send never blocks the caller, who holds m.mu.
func (w *waiter) wake(err error) {
	w.err = err
	w.ready <- struct{}{}
}

type lockState struct {
	holders []holder
	// queue is the object's FIFO list of requests that must wait.
	queue []*waiter
	// violable maps each transaction that released a write lock (X or I)
	// on this object pre-durably — via ReleaseAllViolable, the early-
	// lock-release commit path — to the mode it held.  A later acquirer
	// whose mode conflicts with a recorded mode has "violated" that
	// lock in the controlled-lock-violation sense: it may observe data
	// whose commit record is not yet on stable storage, and the engine
	// forms a commit dependency on the releaser.  An entry lasts until
	// ClearViolable, which the engine calls once the releaser's commit
	// record is durable; a releaser whose commit force failed keeps its
	// entries until Reset discards the table.  Shared releases are never
	// recorded: a pre-durable reader leaves no dirty data behind, so
	// overwriting what it read creates no recoverability obligation.
	violable map[wal.TxID]Mode
}

func (ls *lockState) holderIndex(tx wal.TxID) int {
	for i, h := range ls.holders {
		if h.tx == tx {
			return i
		}
	}
	return -1
}

// removeHolder drops holders[i] and returns the mode it held.
func (ls *lockState) removeHolder(i int) Mode {
	mode := ls.holders[i].mode
	last := len(ls.holders) - 1
	ls.holders[i] = ls.holders[last]
	ls.holders = ls.holders[:last]
	return mode
}

// grantable applies FIFO granting to tx's request for mode queued behind
// ahead: it may be granted only if it is compatible with the other
// holders and with every request ahead of it (avoids writer starvation).
// Upgrades (tx already a holder) bypass the queue-order check, else they
// could deadlock on their own queue position.
func (ls *lockState) grantable(tx wal.TxID, mode Mode, ahead []*waiter) bool {
	upgrade := false
	for _, h := range ls.holders {
		if h.tx == tx {
			upgrade = true
		} else if !compatibleModes(h.mode, mode) {
			return false
		}
	}
	if upgrade {
		return true
	}
	for _, w := range ahead {
		if !compatibleModes(w.mode, mode) {
			return false
		}
	}
	return true
}

// dequeue removes queue[i], keeping the FIFO order.
func (ls *lockState) dequeue(i int) { ls.queue = slices.Delete(ls.queue, i, i+1) }

// txLocks is the manager's record of one transaction.
type txLocks struct {
	// held is the set of objects the transaction holds locks on.
	held map[wal.ObjectID]struct{}
	// since is when it was first granted a lock; ReleaseAll observes the
	// span as its lock-hold time.
	since time.Time
	// waits are its queued requests, whose edges are its out-edges in
	// the wait-for graph.
	waits []*waiter
}

// Manager is the lock manager.  All methods are safe for concurrent use;
// Acquire blocks the calling goroutine until the lock is granted, the
// request is chosen as a deadlock victim, or its transaction terminates.
type Manager struct {
	mu    sync.Mutex
	locks map[wal.ObjectID]*lockState
	txs   map[wal.TxID]*txLocks
	// violableBy indexes, per pre-durable releaser, the objects carrying
	// its violable markers, so ClearViolable is O(objects released).
	violableBy map[wal.TxID]map[wal.ObjectID]struct{}
	// Emptied states, released transaction records and finished waiters,
	// recycled so that taking and dropping a lock allocates nothing.
	// Not a sync.Pool: a collection would empty it mid-run.
	freeStates  []*lockState
	freeTxs     []*txLocks
	freeWaiters []*waiter
	// seen and stack are hasCycleLocked's scratch.
	seen  map[wal.TxID]struct{}
	stack []wal.TxID
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
	return &Manager{
		locks:      make(map[wal.ObjectID]*lockState),
		txs:        make(map[wal.TxID]*txLocks),
		violableBy: make(map[wal.TxID]map[wal.ObjectID]struct{}),
		seen:       make(map[wal.TxID]struct{}),
		met:        bindLockMetrics(obs.NewRegistry()),
	}
}

// stateLocked returns obj's lock state, taking a recycled one if obj has
// none.
func (m *Manager) stateLocked(obj wal.ObjectID) *lockState {
	ls, ok := m.locks[obj]
	if !ok {
		if n := len(m.freeStates); n > 0 {
			ls = m.freeStates[n-1]
			m.freeStates = m.freeStates[:n-1]
		} else {
			ls = &lockState{}
		}
		m.locks[obj] = ls
	}
	return ls
}

// dropStateIfEmptyLocked retires an object's lock state once nothing
// references it — no holders, no queued requests, no violable markers
// awaiting their releaser's durability — and recycles it.  Keeping empty
// states in the table instead would grow it to every object ever locked.
func (m *Manager) dropStateIfEmptyLocked(obj wal.ObjectID, ls *lockState) {
	if len(ls.holders) > 0 || len(ls.queue) > 0 || len(ls.violable) > 0 {
		return
	}
	delete(m.locks, obj)
	if len(m.freeStates) < maxFreeStates && cap(ls.holders) <= maxRecycledLen && cap(ls.queue) <= maxRecycledLen {
		m.freeStates = append(m.freeStates, ls)
	}
}

// txLocked returns tx's record, taking a recycled one if tx has none.
func (m *Manager) txLocked(tx wal.TxID) *txLocks {
	rec := m.txs[tx]
	if rec == nil {
		if n := len(m.freeTxs); n > 0 {
			rec = m.freeTxs[n-1]
			m.freeTxs = m.freeTxs[:n-1]
		} else {
			rec = &txLocks{held: make(map[wal.ObjectID]struct{})}
		}
		m.txs[tx] = rec
	}
	return rec
}

// dropTxLocked forgets tx, whose record holds and awaits nothing, and
// recycles the record.
func (m *Manager) dropTxLocked(tx wal.TxID, rec *txLocks) {
	delete(m.txs, tx)
	if len(m.freeTxs) < maxFreeTxs && len(rec.held) <= maxRecycledLen && cap(rec.waits) <= maxRecycledLen {
		clear(rec.held)
		rec.since = time.Time{}
		m.freeTxs = append(m.freeTxs, rec)
	}
}

// addHoldLocked makes tx a holder of obj in mode, or strengthens the mode
// it already holds.
func (m *Manager) addHoldLocked(tx wal.TxID, obj wal.ObjectID, ls *lockState, mode Mode) {
	if i := ls.holderIndex(tx); i >= 0 {
		ls.holders[i].mode = combineModes(ls.holders[i].mode, mode)
		return
	}
	ls.holders = append(ls.holders, holder{tx: tx, mode: mode})
	rec := m.txLocked(tx)
	if rec.since.IsZero() {
		rec.since = time.Now()
	}
	rec.held[obj] = struct{}{}
}

// enqueueLocked appends tx's request for mode to obj's queue.
func (m *Manager) enqueueLocked(tx wal.TxID, obj wal.ObjectID, ls *lockState, mode Mode) *waiter {
	var w *waiter
	if n := len(m.freeWaiters); n > 0 {
		w = m.freeWaiters[n-1]
		m.freeWaiters = m.freeWaiters[:n-1]
	} else {
		w = &waiter{ready: make(chan struct{}, 1)}
	}
	w.tx, w.obj, w.mode = tx, obj, mode
	ls.queue = append(ls.queue, w)
	rec := m.txLocked(tx)
	rec.waits = append(rec.waits, w)
	return w
}

// unwaitLocked removes w, which has left its object's queue, from its
// transaction's wait list, and forgets a transaction that thereby holds,
// awaits and has held nothing.
func (m *Manager) unwaitLocked(w *waiter) {
	rec := m.txs[w.tx]
	if i := slices.Index(rec.waits, w); i >= 0 {
		rec.waits = slices.Delete(rec.waits, i, i+1)
	}
	if len(rec.waits) == 0 && len(rec.held) == 0 && rec.since.IsZero() {
		m.dropTxLocked(w.tx, rec)
	}
}

// putWaiterLocked recycles w once its goroutine has read its outcome.
func (m *Manager) putWaiterLocked(w *waiter) {
	if len(m.freeWaiters) < maxFreeWaiters && cap(w.edges) <= maxRecycledLen {
		w.edges = w.edges[:0]
		w.err = nil
		m.freeWaiters = append(m.freeWaiters, w)
	}
}

// Acquire grants tx a mode lock on obj, blocking while incompatible locks
// are held or incompatible requests are queued ahead.  Re-acquisition is
// a no-op when the held mode already covers the request; a
// Shared→Exclusive upgrade waits for other holders to leave.  Returns
// ErrDeadlock if waiting would complete a wait-for cycle; the caller
// should abort tx.  Returns ErrCancelled if tx terminated during the wait
// and ErrReset if Reset ran during it.
func (m *Manager) Acquire(tx wal.TxID, obj wal.ObjectID, mode Mode) error {
	m.mu.Lock()
	m.met.acquires.Inc()
	switch mode {
	case Exclusive:
		m.met.acquiresExclusive.Inc()
	case Increment:
		m.met.acquiresIncrement.Inc()
	default:
		m.met.acquiresShared.Inc()
	}
	ls := m.stateLocked(obj)
	if i := ls.holderIndex(tx); i >= 0 && (ls.holders[i].mode == Exclusive || ls.holders[i].mode == mode) {
		m.mu.Unlock()
		return nil // already covered
	}
	if ls.grantable(tx, mode, ls.queue) {
		m.addHoldLocked(tx, obj, ls, mode)
		if len(ls.queue) > 0 {
			// A new holder, or a stronger mode, changes the edges of
			// the requests already waiting.
			m.settleLocked(obj, ls)
		}
		m.mu.Unlock()
		return nil
	}

	waitStart := time.Now()
	m.met.waits.Inc()
	w := m.enqueueLocked(tx, obj, ls, mode)
	m.refreshEdgesLocked(ls, len(ls.queue)-1)
	if m.hasCycleLocked(tx) {
		// The request is last in the queue, so no other request's
		// edges or grant depended on it.
		ls.dequeue(len(ls.queue) - 1)
		m.unwaitLocked(w)
		m.putWaiterLocked(w)
		m.met.deadlocks.Inc()
		m.met.waitNs.Observe(time.Since(waitStart))
		m.mu.Unlock()
		return fmt.Errorf("%w: transaction %d victimized on object %d", ErrDeadlock, tx, obj)
	}
	m.met.waiters.Add(1)
	epoch := m.epoch
	m.mu.Unlock()

	<-w.ready

	m.mu.Lock()
	err := w.err
	if m.epoch != epoch {
		err = ErrReset // even a grant belonged to the discarded table
	}
	m.putWaiterLocked(w)
	m.met.waiters.Add(-1)
	m.met.waitNs.Observe(time.Since(waitStart))
	m.mu.Unlock()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrDeadlock):
		return fmt.Errorf("%w: transaction %d victimized on object %d", err, tx, obj)
	default:
		return fmt.Errorf("%w: transaction %d was waiting on object %d", err, tx, obj)
	}
}

// settleLocked brings obj's queue up to date after its holders or queue
// changed, waking only the requests whose outcome the change decided.
// It grants, in FIFO order, each queued request that is now grantable.
// Once a request that is not an upgrade stays blocked, no later one can
// pass it, so after it only upgrades are examined.  It then refreshes
// the remaining requests' wait-for edges: a new holder or a stronger mode
// can close a cycle no requester saw when it queued, and the first
// request found on a cycle fails with ErrDeadlock.  Removing that victim
// changes the queue, so the pass repeats.
func (m *Manager) settleLocked(obj wal.ObjectID, ls *lockState) {
	for len(ls.queue) > 0 {
		blocked := false
		for i := 0; i < len(ls.queue); {
			w := ls.queue[i]
			upgrade := ls.holderIndex(w.tx) >= 0
			if (upgrade || !blocked) && ls.grantable(w.tx, w.mode, ls.queue[:i]) {
				ls.dequeue(i)
				m.addHoldLocked(w.tx, obj, ls, w.mode)
				m.unwaitLocked(w)
				w.wake(nil)
				continue
			}
			blocked = blocked || !upgrade
			i++
		}
		victim := -1
		for i, w := range ls.queue {
			m.refreshEdgesLocked(ls, i)
			if m.hasCycleLocked(w.tx) {
				victim = i
				break
			}
		}
		if victim < 0 {
			return
		}
		w := ls.queue[victim]
		ls.dequeue(victim)
		m.unwaitLocked(w)
		m.met.deadlocks.Inc()
		w.wake(ErrDeadlock)
	}
}

// refreshEdgesLocked recomputes the wait-for edges of ls.queue[i]: the
// incompatible holders and the incompatible requests queued ahead of it.
func (m *Manager) refreshEdgesLocked(ls *lockState, i int) {
	w := ls.queue[i]
	w.edges = w.edges[:0]
	for _, h := range ls.holders {
		if h.tx != w.tx && !compatibleModes(h.mode, w.mode) {
			w.edges = append(w.edges, h.tx)
		}
	}
	for _, q := range ls.queue[:i] {
		if q.tx != w.tx && !compatibleModes(q.mode, w.mode) {
			w.edges = append(w.edges, q.tx)
		}
	}
}

// hasCycleLocked reports whether the wait-for graph contains a cycle
// through start.  A transaction's out-edges are those of all its queued
// requests.
func (m *Manager) hasCycleLocked(start wal.TxID) bool {
	clear(m.seen)
	stack := append(m.stack[:0], start)
	found := false
search:
	for len(stack) > 0 {
		tx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		rec := m.txs[tx]
		if rec == nil {
			continue
		}
		for _, w := range rec.waits {
			for _, next := range w.edges {
				if next == start {
					found = true
					break search
				}
				if _, ok := m.seen[next]; !ok {
					m.seen[next] = struct{}{}
					stack = append(stack, next)
				}
			}
		}
	}
	m.stack = stack[:0]
	return found
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
	ls, i := m.holdLocked(from, obj)
	if i < 0 {
		return fmt.Errorf("lock: share of object %d from t%d which holds no lock", obj, from)
	}
	m.met.shares.Inc()
	m.addHoldLocked(to, obj, ls, ls.holders[i].mode)
	if len(ls.queue) > 0 {
		m.settleLocked(obj, ls)
	}
	return nil
}

// Transfer moves transaction from's lock on obj to to, as part of a
// delegation.  If the delegatee already holds a lock on obj the stronger
// mode wins.  It is an error for from not to hold a lock on obj.
func (m *Manager) Transfer(from, to wal.TxID, obj wal.ObjectID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ls, i := m.holdLocked(from, obj)
	if i < 0 {
		return fmt.Errorf("lock: transfer of object %d from t%d which holds no lock", obj, from)
	}
	m.met.transfers.Inc()
	fm := ls.removeHolder(i)
	delete(m.txs[from].held, obj)
	m.addHoldLocked(to, obj, ls, fm)
	if len(ls.queue) > 0 {
		m.settleLocked(obj, ls)
	}
	return nil
}

// holdLocked returns obj's state and tx's index among its holders, or -1
// if tx holds no lock on obj.
func (m *Manager) holdLocked(tx wal.TxID, obj wal.ObjectID) (*lockState, int) {
	ls, ok := m.locks[obj]
	if !ok {
		return nil, -1
	}
	return ls, ls.holderIndex(tx)
}

// ReleaseAll terminates tx in the lock manager (strict 2PL): it cancels
// tx's queued requests, which fail with ErrCancelled, drops every lock tx
// holds, and wakes the requests on those objects that can now be granted.
func (m *Manager) ReleaseAll(tx wal.TxID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.releaseAllLocked(tx, false)
}

// ReleaseAllViolable terminates tx exactly like ReleaseAll, but
// additionally marks each object tx held in a write mode (Exclusive or
// Increment) as carrying tx's violable lock: tx's commit record is
// appended but not yet durable, and a later conflicting acquirer must
// form a commit dependency on tx (see Violators).  This is the lock-
// manager half of early lock release / controlled lock violation.  The
// engine clears the markers with ClearViolable once tx's commit record
// reaches stable storage; if that force fails, the markers stay until
// Reset discards the table.
func (m *Manager) ReleaseAllViolable(tx wal.TxID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.releaseAllLocked(tx, true)
}

func (m *Manager) releaseAllLocked(tx wal.TxID, violable bool) {
	rec := m.txs[tx]
	if rec == nil {
		return
	}
	// Take every request of tx out of its queue before settling any
	// object, so no settle can grant tx a lock or see its stale edges.
	// Nothing appends to rec.waits meanwhile: only Acquire enqueues.
	waits := rec.waits
	rec.waits = rec.waits[:0]
	for _, w := range waits {
		ls := m.locks[w.obj]
		ls.dequeue(slices.Index(ls.queue, w))
		w.wake(ErrCancelled)
	}
	for _, w := range waits {
		// w stays readable: its goroutine recycles it only under m.mu.
		if ls, ok := m.locks[w.obj]; ok {
			m.settleLocked(w.obj, ls)
			m.dropStateIfEmptyLocked(w.obj, ls)
		}
	}
	clear(waits)

	for obj := range rec.held {
		ls, ok := m.locks[obj]
		if !ok {
			continue
		}
		mode := ls.removeHolder(ls.holderIndex(tx))
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
		m.settleLocked(obj, ls)
		m.dropStateIfEmptyLocked(obj, ls)
	}
	if !rec.since.IsZero() {
		m.met.holdNs.Observe(time.Since(rec.since))
	}
	m.dropTxLocked(tx, rec)
}

// ClearViolable removes every violable marker left by tx's early lock
// release.  The engine calls it once tx's commit record is durable, when
// the markers impose no constraint any more; nothing else removes them
// short of Reset, so a releaser whose commit is in doubt keeps its
// markers until the crash that settles it.
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
	ls, i := m.holdLocked(tx, obj)
	if i < 0 {
		return 0, false
	}
	return ls.holders[i].mode, true
}

// Holders returns, in ascending order, every transaction that currently
// holds at least one lock.  The engine checks it against its transaction
// table: a holder the table does not know can never release.
func (m *Manager) Holders() []wal.TxID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]wal.TxID, 0, len(m.txs))
	for tx, rec := range m.txs {
		if len(rec.held) > 0 {
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
	for _, ls := range m.locks {
		for _, w := range ls.queue {
			w.wake(ErrReset)
		}
	}
	m.locks = make(map[wal.ObjectID]*lockState)
	m.txs = make(map[wal.TxID]*txLocks)
	m.violableBy = make(map[wal.TxID]map[wal.ObjectID]struct{})
	m.freeStates, m.freeTxs, m.freeWaiters = nil, nil, nil
}
