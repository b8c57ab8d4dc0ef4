package shard

import (
	"errors"
	"fmt"
	"time"

	"ariesrh/internal/core"
	"ariesrh/internal/wal"
)

// Txn is a global transaction: a set of lazily-begun local
// transactions, one per shard it touches.  The first shard the
// transaction writes on becomes the coordinator — the shard whose log
// will carry the commit decision; it is fixed from that first write
// on, so cross-shard delegation records always name the actual
// decision log.  Read-only branches never vote.  A Txn is not safe
// for concurrent use by multiple goroutines; distinct Txn values are.
type Txn struct {
	db  *DB
	gid uint64

	// local maps each touched shard to the global transaction's local
	// transaction there; order records the touch sequence; wrote marks
	// shards holding undoable work (an update, increment, or
	// responsibility acquired by delegation), with writeOrder recording
	// the order shards first gained it — writeOrder[0] is the commit
	// coordinator, stable from the transaction's first write.  Read-only
	// branches skip the prepare force and simply abort.
	local      map[uint32]wal.TxID
	order      []uint32
	wrote      map[uint32]bool
	writeOrder []uint32
	done       bool
}

// Begin starts a global transaction.  No shard is touched (and no
// coordinator chosen) until the first operation routes somewhere.
func (db *DB) Begin() (*Txn, error) {
	db.mu.Lock()
	gid := db.nextGID
	db.nextGID++
	db.mu.Unlock()
	return &Txn{
		db:    db,
		gid:   gid,
		local: make(map[uint32]wal.TxID),
		wrote: make(map[uint32]bool),
	}, nil
}

// GID returns the transaction's cluster-wide identifier.  It appears
// durably only on the logs of transactions that prepared (or received
// a cross-shard delegation); single-shard transactions never log it.
func (t *Txn) GID() uint64 { return t.gid }

// Shards returns the shards this transaction has touched, in touch
// order.  The commit coordinator is the first shard it WROTE on, which
// need not be the first it touched.
func (t *Txn) Shards() []uint32 {
	out := make([]uint32, len(t.order))
	copy(out, t.order)
	return out
}

// Local returns the global transaction's local transaction id on
// shard s, if it has touched that shard.  Exposed for tests and the
// torture harness, which drive two-phase state through the engines
// directly to build crash schedules.
func (t *Txn) Local(s uint32) (wal.TxID, bool) {
	id, ok := t.local[s]
	return id, ok
}

// ensureLocal returns the transaction's local transaction on shard s,
// beginning one (and recording the touch) on first use.
func (t *Txn) ensureLocal(s uint32) (wal.TxID, error) {
	if id, ok := t.local[s]; ok {
		return id, nil
	}
	id, err := t.db.engs[s].Begin()
	if err != nil {
		return 0, err
	}
	t.local[s] = id
	t.order = append(t.order, s)
	return id, nil
}

// markWrote records that shard s holds undoable work of this
// transaction.  The first marked shard becomes — and remains — the
// commit coordinator.
func (t *Txn) markWrote(s uint32) {
	if !t.wrote[s] {
		t.wrote[s] = true
		t.writeOrder = append(t.writeOrder, s)
	}
}

// Read returns the transaction's view of obj under a shared lock on
// obj's home shard.
func (t *Txn) Read(obj wal.ObjectID) ([]byte, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	s := t.db.Route(obj)
	id, err := t.ensureLocal(s)
	if err != nil {
		return nil, err
	}
	return t.db.engs[s].Read(id, obj)
}

// Update sets obj to val under an exclusive lock on obj's home shard,
// logging before/after images there.  Durability arrives with the
// global commit (single-shard: the commit force; cross-shard: the
// prepare force of the home shard's local transaction).
func (t *Txn) Update(obj wal.ObjectID, val []byte) error {
	if t.done {
		return ErrTxnDone
	}
	s := t.db.Route(obj)
	id, err := t.ensureLocal(s)
	if err != nil {
		return err
	}
	if err := t.db.engs[s].Update(id, obj, val); err != nil {
		return err
	}
	t.markWrote(s)
	return nil
}

// Increment adds delta to the counter obj on its home shard and
// returns the new value.
func (t *Txn) Increment(obj wal.ObjectID, delta int64) (int64, error) {
	if t.done {
		return 0, ErrTxnDone
	}
	s := t.db.Route(obj)
	id, err := t.ensureLocal(s)
	if err != nil {
		return 0, err
	}
	v, err := t.db.engs[s].Increment(id, obj, delta)
	if err != nil {
		return 0, err
	}
	t.markWrote(s)
	return v, nil
}

// ReadCounter returns the transaction's view of the counter obj under
// a shared lock on its home shard.
func (t *Txn) ReadCounter(obj wal.ObjectID) (int64, error) {
	if t.done {
		return 0, ErrTxnDone
	}
	s := t.db.Route(obj)
	id, err := t.ensureLocal(s)
	if err != nil {
		return 0, err
	}
	return t.db.engs[s].ReadCounter(id, obj)
}

// Delegate transfers responsibility for t's updates on obj over to the
// global transaction `to` — the paper's delegate(t1, t2, ob) lifted
// across shards.  The transfer is always performed between the two
// transactions' LOCAL transactions on obj's home shard, so undo (and
// recovery's cluster sweep) never crosses a shard boundary.  When the
// delegatee's commit coordinator — its first written shard, fixed from
// that write on; the home shard itself when this delegation is its
// first write — is a different shard, the home shard logs a
// delegate-out record naming the delegatee's global id and coordinator
// shard, and the coordinator shard logs a matching delegate-in, so the
// log that will carry (or durably lack) the commit decision also tells
// the acquisition story.  Both records are unforced — durability rides
// the delegatee's eventual prepare/commit forces, exactly like an
// ordinary update.
//
// Crash contract: a crash before the delegatee commits aborts both
// global transactions (presumed abort), and each shard's local
// backward pass undoes the delegated scope wherever it currently
// lives — no cross-shard undo exists.
func (t *Txn) Delegate(to *Txn, obj wal.ObjectID) error {
	if t.done || to.done {
		return ErrTxnDone
	}
	home := t.db.Route(obj)
	torL, ok := t.local[home]
	if !ok {
		// Never touched the object's shard → holds no updates there.
		return core.ErrNotResponsible
	}
	teeL, err := to.ensureLocal(home)
	if err != nil {
		return err
	}
	// The delegatee's coordinator: its first written shard, or — when
	// this delegation is its first undoable work — the home shard
	// itself, which the markWrote below then fixes as coordinator.
	coordShard := home
	if len(to.writeOrder) > 0 {
		coordShard = to.writeOrder[0]
	}
	if coordShard == home {
		// The delegatee coordinates on the object's own shard: a plain
		// local delegation, byte-identical to the unsharded primitive.
		if err := t.db.engs[home].Delegate(torL, teeL, obj); err != nil {
			return err
		}
	} else {
		if err := t.db.engs[home].DelegateOut(torL, teeL, obj, to.gid, coordShard); err != nil {
			return err
		}
		if err := t.db.engs[coordShard].DelegateIn(to.local[coordShard], obj, to.gid, home); err != nil {
			return err
		}
		t.db.met.crossDelegations.Inc()
	}
	// The delegatee is now responsible for undoable history on home.
	to.markWrote(home)
	return nil
}

// Commit makes every update the transaction is responsible for
// permanent, across all shards it touched.
//
// A transaction that touched one shard (or wrote on at most one)
// commits through that engine's ordinary commit path — group commit,
// early lock release and all — with no two-phase overhead.  Read-only
// branches on other shards commit without logging or forcing; under
// early lock release one that read data of a pre-durable committer
// first waits for that commit record; if that force fails, the writing
// branches (none of which has voted yet) are aborted and Commit returns
// ErrInDoubt, because whether the data the transaction read survives is
// up to recovery.  A single-shard commit whose force fails returns
// ErrInDoubt too: the branch stays committed, in doubt, until Recover.
//
// A transaction that wrote on several shards runs two-phase commit on
// the participants' own logs, coordinated by the first shard it wrote
// on: each other writing participant forces a prepare record (its
// vote, binding the global id and coordinator shard), then the
// coordinator's local transaction prepares and commits — that forced
// commit record is the global decision — and finally the participants
// commit.  A nil return means the decision
// record is on the coordinator shard's stable storage: the transaction
// is globally committed and will survive any crash.
//
// A phase-1 failure (a prepare force that did not complete) aborts
// every branch and returns the cause: the coordinator never appended
// its commit record, so no durable decision can exist and presumed
// abort is safe everywhere.  A failed DECISION force is different —
// the commit record may or may not have reached the device, so
// aborting anything could contradict a decision that is in fact
// durable.  Commit therefore aborts nothing: every branch stays in
// doubt, holding its locks — the participants prepared, the
// coordinator committed in its tables with its record in the volatile
// tail — and the error returned wraps ErrInDoubt; the next Recover
// settles all branches from the coordinator's durable log — commit if
// the record made it, presumed abort otherwise.
//
// A participant failure AFTER the decision (degraded device) leaves
// that branch prepared and the decision retained — pinning the
// coordinator's archive below the prepare record — and Commit still
// returns nil, because the global outcome is decided and durable.  The
// stuck branch keeps its exclusive locks, blocking any transaction
// that touches its objects, until the degraded shard is taken through
// Crash/Recover (or the process restarts and reopens): resolution then
// commits the branch from the coordinator's decision and releases the
// pin.  There is no in-place retry — a shard degrades only on a
// persistent device error, which a retry cannot outwait.
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnDone
	}
	if len(t.order) == 0 {
		t.done = true
		return nil
	}

	// Settle read-only branches first: they hold no undoable work, so
	// they never vote, and their engine commit logs and forces nothing.
	// Under early lock release a branch that read a pre-durable
	// committer's data waits there for that commit record, so the global
	// transaction is never acknowledged on reads a crash could take
	// back; settling them before any decision lets such a read still
	// abort the whole transaction.  What remains are the writers, in
	// first-write order; the first of them coordinates (its log carries
	// the decision).
	for _, s := range t.order {
		if t.wrote[s] {
			continue
		}
		if err := t.db.engs[s].Commit(t.local[s]); err != nil {
			if errors.Is(err, ErrInDoubt) {
				// The read-only branch is ended; the writers have not voted,
				// so the global transaction aborts.
				t.Abort()
			}
			return err
		}
	}
	writers := t.writeOrder
	if len(writers) == 0 {
		t.done = true
		return nil
	}
	coord := writers[0]
	parts := writers[1:] // non-coordinator shards that must vote

	if len(parts) == 0 {
		// Single-shard fast path: the ordinary commit, untouched.
		if err := t.db.engs[coord].Commit(t.local[coord]); err != nil {
			if errors.Is(err, ErrInDoubt) {
				// The local commit stays in doubt until Recover; the
				// global handle is finished.
				t.done = true
			}
			return err
		}
		t.done = true
		t.db.met.singleCommits.Inc()
		return nil
	}

	start := time.Now()
	// Phase 1: participants vote by forced prepare record.  On any
	// failure the coordinator has not appended its commit record, so no
	// decision can be durable and every branch aborts: the already-
	// prepared ones by presumed abort, the failed one and the not-yet-
	// prepared ones (still Active) by plain rollback.
	for i, s := range parts {
		if err := t.db.engs[s].Prepare(t.local[s], t.gid, coord); err != nil {
			active := make([]uint32, 0, len(parts)-i+1)
			active = append(active, parts[i:]...)
			active = append(active, coord)
			t.abortBranches(parts[:i], active)
			return err
		}
	}
	// The coordinator prepares too — binding the gid durably on the
	// decision log — then commits; the forced commit record is the
	// global decision.
	if err := t.db.engs[coord].Prepare(t.local[coord], t.gid, coord); err != nil {
		t.abortBranches(parts, []uint32{coord})
		return err
	}
	if err := t.db.engs[coord].CommitPrepared(t.local[coord]); err != nil {
		// The decision force failed, but the commit record MAY still be
		// durable (core's crash contract for a failed force).  Aborting
		// any branch here could durably contradict it — participants
		// would log abort records for a transaction the coordinator's
		// log commits — so nothing is aborted: every branch stays
		// prepared, in doubt, and the next Recover resolves them all
		// from the coordinator's durable log.
		t.done = true
		t.db.met.commitsInDoubt.Inc()
		if !errors.Is(err, ErrInDoubt) {
			err = fmt.Errorf("%w: %w", ErrInDoubt, err)
		}
		return fmt.Errorf("coordinator shard %d decision force: %w", coord, err)
	}
	// Decision durable.  Phase 2: commit the participants.
	var stuck bool
	for _, s := range parts {
		if err := t.db.engs[s].CommitPrepared(t.local[s]); err != nil {
			// The branch stays prepared on a (likely degraded) shard,
			// holding its locks, and the decision stays retained on the
			// coordinator; the shard's next Recover resolves it.
			stuck = true
			t.db.met.phase2Failures.Inc()
		}
	}
	if !stuck {
		// All branches settled: the decision needs no retaining, and
		// the coordinator's archive is unpinned.
		t.db.engs[coord].ReleaseGlobal(t.gid)
	}
	t.done = true
	t.db.met.crossCommits.Inc()
	t.db.met.crossCommitNs.Observe(time.Since(start))
	return nil
}

// abortBranches rolls back a failed phase 1: AbortPrepared on every
// shard in preparedShards, plain Abort on the still-active branches in
// activeShards.  Only legal while no decision can be durable (the
// coordinator never appended its commit record).  Best-effort — the
// error that triggered the abort is what the caller reports; a branch
// that cannot abort (degraded shard) is left for recovery, which
// re-aborts it by presumed abort.
func (t *Txn) abortBranches(preparedShards, activeShards []uint32) {
	for _, s := range preparedShards {
		t.db.engs[s].AbortPrepared(t.local[s])
	}
	for _, s := range activeShards {
		t.db.engs[s].Abort(t.local[s])
	}
	t.done = true
	t.db.met.crossAborts.Inc()
}

// Abort rolls back every branch on every shard the transaction
// touched.  Same crash contract as the single-engine abort: a nil
// return means the rollback took effect in volatile state everywhere;
// durability is unnecessary — a crash simply makes each shard's
// recovery re-abort its branch (presumed abort for any that managed to
// prepare in a concurrent Commit, ordinary loser undo otherwise).
func (t *Txn) Abort() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	var first error
	for _, s := range t.order {
		if err := t.db.engs[s].Abort(t.local[s]); err != nil && first == nil {
			first = err
		}
	}
	if len(t.order) > 1 {
		t.db.met.crossAborts.Inc()
	}
	return first
}

// Done reports whether the transaction was terminated through this
// handle.
func (t *Txn) Done() bool { return t.done }
