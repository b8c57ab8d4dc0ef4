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

	// branches holds the global transaction's local transactions in the
	// order their shards were first touched, backed by inline until a
	// transaction touches more shards than it holds.  coord indexes the
	// commit coordinator: the first branch that wrote, -1 before any did.
	branches []branch
	inline   [4]branch
	coord    int
	done     bool
}

// branch is a global transaction's local transaction on one shard.
// wrote marks a branch holding undoable work (an update, increment, or
// responsibility acquired by delegation); read-only branches skip the
// prepare force and simply commit.
type branch struct {
	tx    wal.TxID
	shard uint32
	wrote bool
	// commit is a participant's phase-2 commit record, which the
	// coordinator's decision must outlive (DB.retainDecision).
	commit wal.LSN
}

// Begin starts a global transaction.  No shard is touched (and no
// coordinator chosen) until the first operation routes somewhere.
func (db *DB) Begin() (*Txn, error) {
	db.mu.Lock()
	gid := db.nextGID
	db.nextGID++
	db.mu.Unlock()
	t := &Txn{db: db, gid: gid, coord: -1}
	t.branches = t.inline[:0]
	return t, nil
}

// GID returns the transaction's cluster-wide identifier.  It appears
// durably only on the logs of transactions that prepared (or received
// a cross-shard delegation); single-shard transactions never log it.
func (t *Txn) GID() uint64 { return t.gid }

// Shards returns the shards this transaction has touched, in touch
// order.  The commit coordinator is the first shard it WROTE on, which
// need not be the first it touched.
func (t *Txn) Shards() []uint32 {
	out := make([]uint32, len(t.branches))
	for i, b := range t.branches {
		out[i] = b.shard
	}
	return out
}

// Local returns the global transaction's local transaction id on
// shard s, if it has touched that shard.  Exposed for tests and the
// torture harness, which drive two-phase state through the engines
// directly to build crash schedules.
func (t *Txn) Local(s uint32) (wal.TxID, bool) {
	if i := t.find(s); i >= 0 {
		return t.branches[i].tx, true
	}
	return 0, false
}

// find returns the index of the branch on shard s, or -1.
func (t *Txn) find(s uint32) int {
	for i := range t.branches {
		if t.branches[i].shard == s {
			return i
		}
	}
	return -1
}

// ensureLocal returns the index of the transaction's branch on shard s,
// beginning a local transaction there on first use.
func (t *Txn) ensureLocal(s uint32) (int, error) {
	if i := t.find(s); i >= 0 {
		return i, nil
	}
	id, err := t.db.engs[s].Begin()
	if err != nil {
		return 0, err
	}
	t.branches = append(t.branches, branch{tx: id, shard: s})
	return len(t.branches) - 1, nil
}

// markWrote records that branch i holds undoable work.  The first
// marked branch becomes — and remains — the commit coordinator.
func (t *Txn) markWrote(i int) {
	t.branches[i].wrote = true
	if t.coord < 0 {
		t.coord = i
	}
}

// Read returns the transaction's view of obj under a shared lock on
// obj's home shard.
func (t *Txn) Read(obj wal.ObjectID) ([]byte, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	s := t.db.Route(obj)
	i, err := t.ensureLocal(s)
	if err != nil {
		return nil, err
	}
	return t.db.engs[s].Read(t.branches[i].tx, obj)
}

// Update sets obj to val under an exclusive lock on obj's home shard,
// logging before/after images there.  Durability arrives with the
// global commit (single-shard: the commit force; cross-shard: the home
// shard's vote force, or the decision force when the home shard
// coordinates).
func (t *Txn) Update(obj wal.ObjectID, val []byte) error {
	if t.done {
		return ErrTxnDone
	}
	s := t.db.Route(obj)
	i, err := t.ensureLocal(s)
	if err != nil {
		return err
	}
	if err := t.db.engs[s].Update(t.branches[i].tx, obj, val); err != nil {
		return err
	}
	t.markWrote(i)
	return nil
}

// Increment adds delta to the counter obj on its home shard and
// returns the new value.
func (t *Txn) Increment(obj wal.ObjectID, delta int64) (int64, error) {
	if t.done {
		return 0, ErrTxnDone
	}
	s := t.db.Route(obj)
	i, err := t.ensureLocal(s)
	if err != nil {
		return 0, err
	}
	v, err := t.db.engs[s].Increment(t.branches[i].tx, obj, delta)
	if err != nil {
		return 0, err
	}
	t.markWrote(i)
	return v, nil
}

// ReadCounter returns the transaction's view of the counter obj under
// a shared lock on its home shard.
func (t *Txn) ReadCounter(obj wal.ObjectID) (int64, error) {
	if t.done {
		return 0, ErrTxnDone
	}
	s := t.db.Route(obj)
	i, err := t.ensureLocal(s)
	if err != nil {
		return 0, err
	}
	return t.db.engs[s].ReadCounter(t.branches[i].tx, obj)
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
	torL, ok := t.Local(home)
	if !ok {
		// Never touched the object's shard → holds no updates there.
		return core.ErrNotResponsible
	}
	tee, err := to.ensureLocal(home)
	if err != nil {
		return err
	}
	teeL := to.branches[tee].tx
	// The delegatee's coordinator: its first written shard, or — when
	// this delegation is its first undoable work — the home shard
	// itself, which the markWrote below then fixes as coordinator.
	if to.coord < 0 || to.branches[to.coord].shard == home {
		// The delegatee coordinates on the object's own shard: a plain
		// local delegation, byte-identical to the unsharded primitive.
		if err := t.db.engs[home].Delegate(torL, teeL, obj); err != nil {
			return err
		}
	} else {
		c := to.branches[to.coord]
		if err := t.db.engs[home].DelegateOut(torL, teeL, obj, to.gid, c.shard); err != nil {
			return err
		}
		if err := t.db.engs[c.shard].DelegateIn(c.tx, obj, to.gid, home); err != nil {
			return err
		}
		t.db.met.crossDelegations.Inc()
	}
	// The delegatee is now responsible for undoable history on home.
	to.markWrote(tee)
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
// on, in two forces one after the other: each other writing participant
// forces a prepare record (its vote, binding the global id and
// coordinator shard); then the coordinator's local transaction appends
// its prepare record and forces its commit record — that force is the
// global decision, and it carries the coordinator's prepare record with
// it — and finally each participant appends its commit record and
// releases its locks without a force of its own.  A nil return means
// the decision record is on the coordinator shard's stable storage: the
// transaction is globally committed and will survive any crash.  The
// coordinator retains the decision until every participant's log is
// durable through its commit record (see DB.Checkpoint), because until
// then a crash brings that branch back in doubt and recovery commits it
// again from the decision.
//
// A phase-1 failure (a vote that was not cast) aborts every branch and
// returns the cause: the coordinator never appended its commit record,
// so no durable decision can exist and presumed abort is safe
// everywhere.  A failed DECISION force is different — the commit record
// may or may not have reached the device, so aborting anything could
// contradict a decision that is in fact durable.  Commit therefore
// aborts nothing: every branch stays in doubt, holding its locks — the
// participants prepared, the coordinator committed in its tables with
// its prepare and commit records in the volatile tail — and the error
// returned wraps ErrInDoubt; the next Recover settles all branches from
// the coordinator's durable log — commit if the record made it, presumed
// abort otherwise (the coordinator's branch is then a plain loser, or an
// in-doubt one whose own log holds no decision).
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
	if len(t.branches) == 0 {
		t.done = true
		return nil
	}

	// Settle read-only branches first: they hold no undoable work, so
	// they never vote, and their engine commit logs and forces nothing.
	// Under early lock release a branch that read a pre-durable
	// committer's data waits there for that commit record, so the global
	// transaction is never acknowledged on reads a crash could take
	// back; settling them before any decision lets such a read still
	// abort the whole transaction.  What remains are the writers; the
	// first of them to write coordinates (its log carries the decision).
	voters := 0
	for i, b := range t.branches {
		if b.wrote {
			if i != t.coord {
				voters++
			}
			continue
		}
		if err := t.db.engs[b.shard].Commit(b.tx); err != nil {
			if errors.Is(err, ErrInDoubt) {
				// The read-only branch is ended; the writers have not voted,
				// so the global transaction aborts.
				t.Abort()
			}
			return err
		}
	}
	if t.coord < 0 {
		t.done = true
		return nil
	}
	coord := t.branches[t.coord]

	if voters == 0 {
		// Single-shard fast path: the ordinary commit, untouched.
		if err := t.db.engs[coord.shard].Commit(coord.tx); err != nil {
			if errors.Is(err, ErrInDoubt) {
				// The local commit stays in doubt until Recover; the
				// global handle is finished.
				t.done = true
			}
			return err
		}
		t.done = true
		t.db.met.singleCommits.Inc()
		// The commit forced its shard's log, which may carry the last
		// phase-2 records a retained decision waits on.
		t.db.releaseDurableDecisions()
		return nil
	}

	start := time.Now()
	// Phase 1: participants vote by forced prepare record.  On any
	// failure the coordinator has not appended its commit record, so no
	// decision can be durable and every branch aborts: the already-
	// prepared ones by presumed abort, the failed one and the not-yet-
	// prepared ones (still Active) by plain rollback.
	for i, b := range t.branches {
		if !b.wrote || i == t.coord {
			continue
		}
		if err := t.db.engs[b.shard].Prepare(b.tx, t.gid, coord.shard); err != nil {
			t.abortWriters(i)
			return err
		}
	}
	// The coordinator prepares too — binding the gid on the decision log,
	// unforced — then commits; the forced commit record is the global
	// decision, and its force makes the prepare record durable with it.
	if err := t.db.engs[coord.shard].Prepare(coord.tx, t.gid, coord.shard); err != nil {
		t.abortWriters(len(t.branches))
		return err
	}
	if _, err := t.db.engs[coord.shard].CommitPrepared(coord.tx); err != nil {
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
		return fmt.Errorf("coordinator shard %d decision force: %w", coord.shard, err)
	}
	// Decision durable.  Phase 2: commit the participants, unforced.
	var stuck bool
	for i := range t.branches {
		b := &t.branches[i]
		if !b.wrote || i == t.coord {
			continue
		}
		lsn, err := t.db.engs[b.shard].CommitPrepared(b.tx)
		if err != nil {
			// The branch stays prepared on a (likely degraded) shard,
			// holding its locks, and the decision stays retained on the
			// coordinator; the shard's next Recover resolves it.
			stuck = true
			t.db.met.phase2Failures.Inc()
			continue
		}
		b.commit = lsn
	}
	if !stuck {
		t.db.retainDecision(t)
	}
	t.db.releaseDurableDecisions()
	t.done = true
	t.db.met.crossCommits.Inc()
	t.db.met.crossCommitNs.Observe(time.Since(start))
	return nil
}

// abortWriters rolls back a failed phase 1: AbortPrepared on the voters
// before branch index voted (their prepare force returned), plain Abort
// on every other writing branch, the coordinator among them.  Only legal
// while no decision can be durable (the coordinator never appended its
// commit record).  Best-effort — the error that triggered the abort is
// what the caller reports; a branch that cannot abort (degraded shard)
// is left for recovery, which re-aborts it by presumed abort.
func (t *Txn) abortWriters(voted int) {
	for i, b := range t.branches {
		switch {
		case !b.wrote:
		case i < voted && i != t.coord:
			t.db.engs[b.shard].AbortPrepared(b.tx)
		default:
			t.db.engs[b.shard].Abort(b.tx)
		}
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
	for _, b := range t.branches {
		if err := t.db.engs[b.shard].Abort(b.tx); err != nil && first == nil {
			first = err
		}
	}
	if len(t.branches) > 1 {
		t.db.met.crossAborts.Inc()
	}
	return first
}

// Done reports whether the transaction was terminated through this
// handle.
func (t *Txn) Done() bool { return t.done }
