// Package ariesrh is the public API of the ARIES/RH library: an
// UNDO/REDO transaction manager with delegation, reproducing "Delegation:
// Efficiently Rewriting History" (Pedregal Martin & Ramamritham,
// ICDE 1997).
//
// Delegation — Tx.Delegate — transfers responsibility for a transaction's
// updates on an object to another transaction.  The delegatee's commit
// makes the delegated updates permanent and its abort obliterates them,
// regardless of what happens to the transaction that performed them.
// Delegation is the building block for extended transaction models; the
// companion package ariesrh/etm synthesizes nested transactions,
// split/join transactions, reporting transactions and co-transactions
// from it.
//
// # Quick start
//
//	db, _ := ariesrh.Open()
//	t1, _ := db.Begin()
//	t2, _ := db.Begin()
//	t1.Update(1, []byte("tentative result"))
//	t1.Delegate(t2, 1)   // t2 is now responsible for the update
//	t1.Abort()           // does NOT undo the delegated update
//	t2.Commit()          // makes it permanent
//
// The database is crash-safe: DB.Crash simulates a failure (losing all
// volatile state) and DB.Recover replays the write-ahead log — a single
// forward analysis+redo pass and a backward pass that undoes exactly the
// updates whose final delegatee did not commit, without ever rewriting
// the log.
package ariesrh

import (
	"errors"
	"path/filepath"

	"ariesrh/internal/core"
	"ariesrh/internal/obs"
	"ariesrh/internal/shard"
	"ariesrh/internal/storage"
	"ariesrh/internal/wal"
)

// ObjectID identifies a database object (the unit of update and
// delegation).
type ObjectID = wal.ObjectID

// TxID identifies a transaction.
type TxID = wal.TxID

// MaxValueSize is the largest value an object can hold, in bytes.
const MaxValueSize = storage.MaxValueSize

// Errors surfaced by the API (in addition to the lock manager's deadlock
// error, which callers should treat as "abort and retry").
var (
	// ErrTxDone is returned for operations on a committed or aborted Tx.
	ErrTxDone = errors.New("ariesrh: transaction already terminated")
	// ErrNotResponsible is returned when delegating an object the
	// transaction holds no updates on.
	ErrNotResponsible = core.ErrNotResponsible
	// ErrTxGone is returned for operations on a transaction the engine
	// no longer knows — typically one terminated behind the handle's
	// back by a dependency cascade or a crash.
	ErrTxGone = core.ErrNoSuchTxn
	// ErrCrashed is returned between Crash and Recover.
	ErrCrashed = core.ErrCrashed
	// ErrRecovering is returned by mutating operations while a parallel
	// recovery pipeline (Options.ParallelRecovery) is still running.
	// Reads stay available — each waits only for its own object's redo
	// chain and undo gate — but writes must wait for the whole pipeline
	// so they can never interleave with redo or the backward pass.  Retry
	// after WaitRecovered returns (or when Health stops reporting
	// StateRecovering).
	ErrRecovering = core.ErrRecovering
	// ErrDegraded is returned (wrapped) by mutating operations after a
	// persistent log-device failure moved the database to read-only
	// degraded mode.  Reads and Abort still work; Crash + Recover with a
	// healthy device is the repair action.  See DB.Health.
	ErrDegraded = core.ErrDegraded
	// ErrSharded is returned by operations a sharded database
	// (Options.Shards >= 2) does not support: per-LSN introspection
	// (ResponsibleFor, MinRequiredLSN — LSNs are per-shard), savepoints,
	// dependencies, permits, DelegateAll, backup and replication.  The
	// core transactional surface — Read, Update, Increment, Delegate,
	// Commit, Abort, Crash/Recover, Checkpoint, Metrics — is fully
	// supported.
	ErrSharded = errors.New("ariesrh: operation not supported on a sharded database")
	// ErrInDoubt is returned (wrapped around the device error) by Commit
	// when the commit record was appended but the force meant to make it
	// durable failed: the record may or may not reach the device, so the
	// outcome is unknown, and only the log decides it.  Nothing is rolled
	// back.  The Tx handle is done (Abort answers ErrTxDone); the
	// transaction keeps its locks (under EarlyLockRelease they were
	// already released), the database degrades, and the next Crash +
	// Recover settles it: committed if the record is durable, rolled back
	// otherwise.  A read-only transaction
	// gets it when a commit it read from could not be forced.  On a
	// sharded database a failed coordinator decision force leaves every
	// branch in doubt, holding its locks, until Recover settles them all
	// from the coordinator's durable log (commit if the record made it to
	// the device, presumed abort otherwise).
	ErrInDoubt = core.ErrInDoubt
)

// Options configures Open.
type Options struct {
	// Dir, when non-empty, makes the database file-backed: the log,
	// pages and master record live under this directory.  Empty means
	// fully in-memory (with simulated stable storage — Crash/Recover
	// still behave faithfully).
	Dir string
	// PoolSize is the buffer-pool capacity in pages (default 128).
	PoolSize int
	// FaultDir, when non-nil, is used as the write-ahead log's stable
	// directory in place of the default — typically a fault.Dir (or any
	// other wal.Dir implementation) injecting device faults, letting
	// torture harnesses and tests drive crash schedules through the
	// public API.  Mutually exclusive with Dir, which opens its own log
	// directory.
	FaultDir wal.Dir
	// EarlyLockRelease enables controlled lock violation: Commit
	// releases the transaction's locks at commit-record append and
	// defers only the durability ack to the group flusher, trading lock
	// hold time for one commit-LSN stamp per released write lock.  The
	// commit ack still implies durability; see
	// core.Options.EarlyLockRelease for the full crash contract.
	EarlyLockRelease bool
	// Shards, when >= 2, opens a sharded database: that many
	// independent engines — each with its own write-ahead log, group
	// flusher, lock manager and buffer pool — behind an object→shard
	// router.  Transactions that touch one shard commit through that
	// engine's ordinary path, untouched; transactions that write on
	// several run a two-phase commit logged on the participant shards'
	// own logs (the coordinator's forced commit record is the global
	// decision; no decision durable means abort), and Tx.Delegate
	// crosses shards via paired delegate-out/delegate-in records so
	// undo stays local to each shard.  A nil Commit error means the
	// decision is on stable storage and the transaction survives any
	// crash of any subset of shards; a Commit error wrapping ErrInDoubt
	// means the decision force failed and the outcome stays unknown
	// until the next Recover.  0 and 1 mean unsharded — the
	// single-engine database, byte-for-byte the same behaviour as
	// before the option existed.  See ErrSharded for the operations a
	// sharded database rejects.
	Shards int
	// ShardRouter overrides the object→shard mapping (nil means a
	// stable Fibonacci hash).  Only consulted when Shards >= 2.  The
	// router must be a pure function of (object, shard count), stable
	// across restarts: recovery replays each shard's log independently
	// and a moved object would resurrect on the wrong shard.
	ShardRouter ShardRouter
	// ParallelRecovery makes Recover (and a reopened database's implicit
	// recovery) run as the instant-restart pipeline: a parallel scan of
	// the log segments builds per-object redo chains, redo happens on
	// demand — a read during recovery redoes just its object's chain and
	// returns — and the backward undo sweep runs concurrently, gated per
	// record on the redo it depends on.  Recover returns with the
	// pipeline in flight; the database reports StateRecovering, serves
	// reads, and rejects writes with ErrRecovering until WaitRecovered
	// returns nil.
	//
	// Crash contract: unchanged.  The recovered state is identical to
	// sequential recovery's, a read is served only after its object's
	// redo chain and every loser cluster covering it are applied, and a
	// pipeline failure returns the database to StateCrashed with the
	// error reported by WaitRecovered; Recover may then be retried.
	ParallelRecovery bool
}

// ShardRouter maps objects to shards for a sharded database
// (re-exported from internal/shard).  Route(obj, shards) must return a
// value in [0, shards) and be a pure, restart-stable function of its
// arguments.
type ShardRouter = shard.Router

// DB is a handle to an ARIES/RH database.
type DB struct {
	eng *core.Engine
	sh  *shard.DB // non-nil when opened with Options.Shards >= 2 (eng is nil then)
	dir string    // non-empty for file-backed databases
}

// Open creates or reopens a database.  With no options the database is
// in-memory; pass Options{Dir: path} for file-backed operation.  If the
// stores contain state from a previous incarnation, recovery runs before
// Open returns.
func Open(opts ...Options) (*DB, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.Shards >= 2 {
		if o.FaultDir != nil {
			return nil, errors.New("ariesrh: Options.FaultDir is not supported with Shards >= 2 (per-shard fault injection lives in internal/shard.Options.LogDirs)")
		}
		sh, err := shard.Open(shard.Options{
			Shards:           o.Shards,
			Dir:              o.Dir,
			PoolSize:         o.PoolSize,
			EarlyLockRelease: o.EarlyLockRelease,
			ParallelRecovery: o.ParallelRecovery,
			Router:           o.ShardRouter,
		})
		if err != nil {
			return nil, err
		}
		return &DB{sh: sh, dir: o.Dir}, nil
	}
	engineOpts := core.Options{
		PoolSize:         o.PoolSize,
		EarlyLockRelease: o.EarlyLockRelease,
		ParallelRecovery: o.ParallelRecovery,
	}
	if o.FaultDir != nil {
		if o.Dir != "" {
			return nil, errors.New("ariesrh: Options.Dir and Options.FaultDir are mutually exclusive")
		}
		engineOpts.LogDir = o.FaultDir
	}
	// cleanup releases file handles if engine construction fails; on
	// success the engine owns them and DB.Close goes through the engine.
	cleanup := func() {}
	if o.Dir != "" {
		logDir, err := wal.OpenFileDir(filepath.Join(o.Dir, "wal"))
		if err != nil {
			return nil, err
		}
		master, err := wal.OpenFileStore(filepath.Join(o.Dir, "master"))
		if err != nil {
			logDir.Close()
			return nil, err
		}
		disk, err := storage.OpenFileDisk(filepath.Join(o.Dir, "pages.db"))
		if err != nil {
			logDir.Close()
			master.Close()
			return nil, err
		}
		engineOpts.LogDir = logDir
		engineOpts.MasterStore = master
		engineOpts.Disk = disk
		cleanup = func() {
			logDir.Close()
			master.Close()
			disk.Close()
		}
	}
	eng, err := core.New(engineOpts)
	if err != nil {
		cleanup()
		return nil, err
	}
	return &DB{eng: eng, dir: o.Dir}, nil
}

// Begin starts a transaction.  On a sharded database the transaction
// is global: it lazily opens a local branch on each shard it touches
// and commits through the single-shard fast path or two-phase commit
// as appropriate.
func (db *DB) Begin() (*Tx, error) {
	if db.sh != nil {
		stx, err := db.sh.Begin()
		if err != nil {
			return nil, err
		}
		return &Tx{db: db, stx: stx}, nil
	}
	id, err := db.eng.Begin()
	if err != nil {
		return nil, err
	}
	return &Tx{db: db, id: id}, nil
}

// Checkpoint takes a fuzzy checkpoint, bounding the work of the next
// recovery.  Sharded databases checkpoint every shard (per-shard
// checkpoints need no mutual atomicity: each shard's checkpoint
// carries that shard's prepared transactions and retained decisions),
// then release the decisions of cross-shard commits whose phase 2
// finished before the checkpoints; a branch whose phase 2 failed keeps
// its decision until Recover.
func (db *DB) Checkpoint() error {
	if db.sh != nil {
		return db.sh.Checkpoint()
	}
	return db.eng.Checkpoint()
}

// Crash simulates a failure: the buffer pool, lock table, transaction
// table, delegation state and unflushed log tail are lost.  All live Tx
// handles become invalid.  Call Recover before issuing new work.  Crash
// also clears degraded mode — the restart is the repair action; if the
// device is still broken, Recover fails instead.  Sharded databases
// crash every shard (a whole-cluster failure).
func (db *DB) Crash() error {
	if db.sh != nil {
		return db.sh.Crash()
	}
	return db.eng.Crash()
}

// Recover replays the log after a Crash: one forward analysis+redo pass,
// then a backward pass undoing exactly the updates whose final delegatee
// did not commit.  Recovery is idempotent — a crash during Recover is
// handled by running Recover again — and tolerates a torn record at the
// log's tail (the expected signature of a crash mid-flush).
//
// With Options.ParallelRecovery, Recover returns once the pipeline is
// started: reads are served immediately (each triggering on-demand redo
// of its own object), writes return ErrRecovering until WaitRecovered.
//
// Sharded databases recover every shard concurrently, then resolve
// in-doubt two-phase participants from the coordinator shard's durable
// decision (presumed abort when none exists); a nil return means every
// shard is writable and no transaction is in doubt.
func (db *DB) Recover() error {
	if db.sh != nil {
		return db.sh.Recover()
	}
	return db.eng.Recover()
}

// WaitRecovered blocks until the in-flight parallel recovery (or
// promotion) pipeline completes and returns its outcome: nil once the
// database is writable, or the pipeline's error — after which the
// database is back in StateCrashed and Recover may be retried.  A caller
// that arrives after the pipeline failed gets ErrCrashed wrapped
// together with that error, until the next Recover or Crash.  Without
// Options.ParallelRecovery (or with no recovery running) it returns
// immediately: nil when healthy, ErrCrashed between Crash and Recover.
func (db *DB) WaitRecovered() error {
	if db.sh != nil {
		return db.sh.WaitRecovered()
	}
	return db.eng.WaitRecovered()
}

// HealthState enumerates DB availability states (re-exported from the
// engine).
type HealthState = core.HealthState

// Health states.
const (
	// StateHealthy: all operations available.
	StateHealthy = core.StateHealthy
	// StateDegraded: a persistent log-device failure was detected after
	// the WAL's retry budget was spent.  Reads and Abort remain
	// available; every other mutation returns ErrDegraded.  No commit
	// was ever acknowledged without its records being durable.
	StateDegraded = core.StateDegraded
	// StateCrashed: between Crash and Recover.
	StateCrashed = core.StateCrashed
	// StateRecovering: a parallel recovery pipeline
	// (Options.ParallelRecovery) is running.  Reads are served — each
	// gated on its own object's redo and undo — while mutations return
	// ErrRecovering until WaitRecovered.
	StateRecovering = core.StateRecovering
)

// Health describes the database's availability: its state and, when
// degraded, the device error that caused it.
type Health = core.Health

// Health returns the database's availability state.  It never touches
// the device and is answerable in every state.  Sharded databases
// report the worst state across shards (any cross-shard transaction
// may need any shard).
func (db *DB) Health() Health {
	if db.sh != nil {
		return db.sh.Health()
	}
	return db.eng.Health()
}

// ReadCommitted returns the current stable/buffered value of obj without
// any transactional context.  Objects that were never written — or whose
// writes were all undone, restoring the initial empty value — return
// ok=false.
func (db *DB) ReadCommitted(obj ObjectID) (val []byte, ok bool, err error) {
	if db.sh != nil {
		return db.sh.ReadCommitted(obj)
	}
	v, present, err := db.eng.ReadObject(obj)
	if err != nil || !present || len(v) == 0 {
		return nil, false, err
	}
	return v, true, nil
}

// ResponsibleFor returns the transaction currently responsible for the
// update logged at lsn — the paper's ResponsibleTr, the lens through
// which history appears rewritten.  Sharded databases return
// ErrSharded: LSNs are per-shard coordinates.
func (db *DB) ResponsibleFor(lsn uint64) (TxID, error) {
	if db.sh != nil {
		return 0, ErrSharded
	}
	return db.eng.ResponsibleFor(wal.LSN(lsn))
}

// MetricsSnapshot is a point-in-time copy of every metric in the
// database's registry (re-exported from internal/obs).  Subtract two
// snapshots with Sub for a per-interval delta; Format renders one for
// humans.
type MetricsSnapshot = obs.Snapshot

// Event is one structured trace event delivered to the hook installed by
// SetEventHook (re-exported from internal/obs).
type Event = obs.Event

// RecoveryTrace describes the most recent recovery run: per-phase
// durations, records scanned and redone, backward-sweep visit counts,
// clusters swept and CLRs written.
type RecoveryTrace = core.RecoveryTrace

// Metrics returns a snapshot of the full metric registry: engine
// operation counters and latency histograms, WAL append/flush/scan
// counters (including group-commit coalescing), buffer-pool
// hit/miss/eviction counters and lock-manager wait counters.
//
// Sharded databases return one cluster-wide snapshot: router series
// ("router.*" — commit routing, cross-shard delegations, two-phase
// latency) under their own names, every engine series both aggregated
// under its base name (counters and gauges summed, histograms merged)
// and broken down per shard under a "shard.<i>." prefix.
func (db *DB) Metrics() MetricsSnapshot {
	if db.sh != nil {
		return db.sh.Metrics()
	}
	return db.eng.Metrics()
}

// SetEventHook installs fn to receive structured trace events
// (transaction terminations, delegations, group flushes, undo visits,
// recovery completion); nil uninstalls.  The hook runs synchronously on
// the emitting goroutine, often with internal latches held: it must be
// fast and must not call back into the database.
func (db *DB) SetEventHook(fn func(Event)) {
	if db.sh != nil {
		db.sh.SetEventHook(fn)
		return
	}
	db.eng.SetEventHook(fn)
}

// LastRecoveryTrace returns the trace of the most recent Recover (zero
// value if recovery has not run).  Sharded databases return the merged
// cluster view — counts summed across shards, durations the maximum
// over shards, since shard recoveries run concurrently.
func (db *DB) LastRecoveryTrace() RecoveryTrace {
	if db.sh != nil {
		return db.sh.LastRecoveryTrace()
	}
	return db.eng.LastRecoveryTrace()
}

// Engine exposes the underlying engine for tools and benchmarks; nil
// for a sharded database (use Shards and internal/shard directly from
// in-repo tools).
func (db *DB) Engine() *core.Engine { return db.eng }

// Shards returns the shard count: 1 for an unsharded database.
func (db *DB) Shards() int {
	if db.sh != nil {
		return db.sh.Shards()
	}
	return 1
}

// Close flushes everything and releases file handles.
func (db *DB) Close() error {
	if db.sh != nil {
		return db.sh.Close()
	}
	return db.eng.Close()
}

// Tx is a handle to one transaction.  A Tx is not safe for concurrent use
// by multiple goroutines; different Tx values are.
//
// On a sharded database a Tx is a global transaction: operations route
// to each object's home shard, opening a local branch there on first
// touch, and Commit runs the single-shard fast path or two-phase
// commit depending on how many shards the transaction wrote on.
type Tx struct {
	db   *DB
	id   TxID
	stx  *shard.Txn // non-nil on a sharded database (id is 0 then)
	done bool
}

// ID returns the transaction's identifier.  On a sharded database the
// single TxID is meaningless (each branch has its own local id); ID
// returns 0 there — use GID instead.
func (tx *Tx) ID() TxID { return tx.id }

// GID returns the transaction's cluster-wide identifier on a sharded
// database (0 on an unsharded one, where ID is the identifier).
func (tx *Tx) GID() uint64 {
	if tx.stx != nil {
		return tx.stx.GID()
	}
	return 0
}

// Read returns tx's view of obj under a shared lock.
func (tx *Tx) Read(obj ObjectID) ([]byte, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	if tx.stx != nil {
		return tx.stx.Read(obj)
	}
	return tx.db.eng.Read(tx.id, obj)
}

// Update sets obj to val under an exclusive lock, logging before/after
// images for recovery.  The update record is appended but not forced:
// durability arrives with the commit of whichever transaction is finally
// responsible for the update (the WAL rule guarantees the record reaches
// the device before the page does).
func (tx *Tx) Update(obj ObjectID, val []byte) error {
	if tx.done {
		return ErrTxDone
	}
	if tx.stx != nil {
		return tx.stx.Update(obj, val)
	}
	return tx.db.eng.Update(tx.id, obj, val)
}

// Delegate transfers responsibility for tx's updates on obj to the
// transaction to.  Afterwards, to's commit or abort decides the fate of
// those updates; tx may keep operating on the object.
//
// On a sharded database the transfer happens between the two global
// transactions' local branches on obj's home shard — undo never
// crosses a shard boundary — with paired delegate-out/delegate-in
// records when the delegatee coordinates elsewhere.  Durability rides
// the delegatee's eventual commit, exactly like an ordinary update.
func (tx *Tx) Delegate(to *Tx, obj ObjectID) error {
	if tx.done {
		return ErrTxDone
	}
	if to.done {
		return ErrTxDone
	}
	if tx.stx != nil {
		return tx.stx.Delegate(to.stx, obj)
	}
	return tx.db.eng.Delegate(tx.id, to.id, obj)
}

// DelegateAll delegates every object in tx's object list to to — the
// "delegate(t2, t1)" form used by join and by nested-transaction commit —
// with one log record for the whole set.  DelegateAll returns ErrSharded on a sharded database (delegate the
// objects individually).
func (tx *Tx) DelegateAll(to *Tx) error {
	if tx.done {
		return ErrTxDone
	}
	if to.done {
		return ErrTxDone
	}
	if tx.stx != nil {
		return ErrSharded
	}
	return tx.db.eng.DelegateAll(tx.id, to.id)
}

// Increment adds delta to the counter obj and returns the new value.
// Increments commute: concurrent transactions may increment the same
// counter without blocking each other (they take compatible Increment
// locks), and undo removes exactly the aborting transaction's deltas.
// Counters are 8-byte integers; Increment on an object holding other data
// returns an error.
func (tx *Tx) Increment(obj ObjectID, delta int64) (int64, error) {
	if tx.done {
		return 0, ErrTxDone
	}
	if tx.stx != nil {
		return tx.stx.Increment(obj, delta)
	}
	return tx.db.eng.Increment(tx.id, obj, delta)
}

// ReadCounter returns tx's view of the counter obj under a shared lock.
func (tx *Tx) ReadCounter(obj ObjectID) (int64, error) {
	if tx.done {
		return 0, ErrTxDone
	}
	if tx.stx != nil {
		return tx.stx.ReadCounter(obj)
	}
	return tx.db.eng.ReadCounter(tx.id, obj)
}

// CounterValue reads the committed/buffered counter value without any
// transactional context.
func (db *DB) CounterValue(obj ObjectID) (int64, error) {
	if db.sh != nil {
		return db.sh.CounterValue(obj)
	}
	return db.eng.CounterValue(obj)
}

// DependencyKind selects the ACTA dependency formed by FormDependency.
type DependencyKind = core.DependencyKind

// Dependency kinds (re-exported from the engine).
const (
	// AbortDependency: tx aborts if the depended-on transaction aborts.
	AbortDependency = core.AbortDependency
	// CommitDependency: tx may commit only after the depended-on
	// transaction has terminated.
	CommitDependency = core.CommitDependency
)

// Dependency errors (re-exported from the engine).
var (
	// ErrDependencyPending is returned by Commit while a commit
	// dependency's target is still active.
	ErrDependencyPending = core.ErrDependencyPending
	// ErrDependencyCycle is returned by FormDependency when the new edge
	// would close a cycle.
	ErrDependencyCycle = core.ErrDependencyCycle
)

// FormDependency makes tx depend on the transaction `on` — ASSET's third
// primitive.  With AbortDependency, `on`'s abort cascades to tx; with
// CommitDependency, tx's Commit fails with ErrDependencyPending until `on`
// has terminated.
func (tx *Tx) FormDependency(on *Tx, kind DependencyKind) error {
	if tx.done || on.done {
		return ErrTxDone
	}
	if tx.stx != nil {
		return ErrSharded
	}
	return tx.db.eng.FormDependency(tx.id, on.id, kind)
}

// Permit grants the transaction to access to tx's lock on obj without
// transferring responsibility — ASSET's permit primitive.  Use it to let
// a subtransaction read its parent's uncommitted data.
func (tx *Tx) Permit(to *Tx, obj ObjectID) error {
	if tx.done || to.done {
		return ErrTxDone
	}
	if tx.stx != nil {
		return ErrSharded
	}
	return tx.db.eng.Permit(tx.id, to.id, obj)
}

// Objects returns the objects tx is currently responsible for (its
// Ob_List in the paper's terms), sorted.  ErrSharded on a sharded
// database.
func (tx *Tx) Objects() ([]ObjectID, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	if tx.stx != nil {
		return nil, ErrSharded
	}
	return tx.db.eng.ObjectsOf(tx.id)
}

// DB returns the database this transaction runs against.
func (tx *Tx) DB() *DB { return tx.db }

// Commit makes every update tx is responsible for permanent.  The log is
// forced through the commit record before Commit returns: a nil return
// means the commit record is on stable storage and the transaction will
// be a winner of any later crash.  Transient device errors during the
// force are absorbed by the WAL's bounded-backoff retry; a persistent
// failure returns an error wrapping ErrInDoubt and moves the database to
// degraded mode.  The handle is then done: once the commit record is
// appended only the log decides, and the next Crash + Recover commits
// the transaction if the record reached the device and rolls it back
// otherwise.  An error that does not wrap ErrInDoubt (ErrDegraded, say)
// means no commit record was appended: the transaction is still live
// and Abort releases it.
//
// A read-only transaction — one that never updated, incremented,
// delegated or received a delegation — has nothing for recovery to read:
// nothing is logged and nothing forced, and a nil return means
// everything it read was already durable.  Under EarlyLockRelease it may
// have read data of committers whose commit records were not yet on
// stable storage; Commit then waits for those records first, on every
// shard it read from, and returns ErrInDoubt if one cannot be made
// durable.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	if tx.stx != nil {
		err := tx.stx.Commit()
		tx.done = tx.stx.Done()
		return err
	}
	if err := tx.db.eng.Commit(tx.id); err != nil {
		if errors.Is(err, ErrInDoubt) {
			// The outcome belongs to recovery now; the handle is done.
			tx.done = true
		}
		return err
	}
	tx.done = true
	return nil
}

// Abort rolls back every update tx is responsible for — its own and any
// received through delegation.  Updates it delegated away are untouched.
//
// Crash-safety contract: a nil return means the rollback took effect in
// volatile state and its locks were released; its durability is NOT
// guaranteed (none is needed — a crash before the abort's records reach
// the device simply makes recovery re-abort the transaction, landing in
// the same state).  Abort therefore remains available in degraded mode,
// where it is the sanctioned way to release a live transaction's locks.
// It cannot take back a commit: after Commit returned ErrInDoubt the
// handle is done and Abort answers ErrTxDone.  A transaction that never
// logged a record aborts without I/O.
func (tx *Tx) Abort() error {
	if tx.done {
		return ErrTxDone
	}
	if tx.stx != nil {
		err := tx.stx.Abort()
		tx.done = tx.stx.Done()
		return err
	}
	if err := tx.db.eng.Abort(tx.id); err != nil {
		return err
	}
	tx.done = true
	return nil
}

// Done reports whether the transaction was terminated through this handle.
// A transaction ended behind the handle's back — by a dependency cascade
// or a crash — still reports false here; its operations return
// ErrNoSuchTxn (the engine is the source of truth).
func (tx *Tx) Done() bool { return tx.done }

// Savepoint marks a partial-rollback point.  Savepoints are volatile: a
// crash aborts the whole transaction regardless.
type Savepoint struct{ sp core.Savepoint }

// Savepoint records a rollback point at the transaction's current state.
// ErrSharded on a sharded database.
func (tx *Tx) Savepoint() (Savepoint, error) {
	if tx.done {
		return Savepoint{}, ErrTxDone
	}
	if tx.stx != nil {
		return Savepoint{}, ErrSharded
	}
	sp, err := tx.db.eng.Savepoint(tx.id)
	return Savepoint{sp: sp}, err
}

// RollbackTo undoes every update the transaction is responsible for that
// postdates the savepoint — its own and any received through delegation —
// and leaves the transaction active.  Updates delegated away after the
// savepoint are untouched: the delegation stands.
func (tx *Tx) RollbackTo(sp Savepoint) error {
	if tx.done {
		return ErrTxDone
	}
	if tx.stx != nil {
		return ErrSharded
	}
	return tx.db.eng.RollbackTo(sp.sp)
}

// MinRequiredLSN returns the oldest log record a future recovery could
// need; the prefix before it is archivable.  Live delegated scopes can pin
// the log arbitrarily far back — an operational consequence of delegation.
// Unresolved two-phase state pins it too: an unreleased commit decision
// holds the log at its prepare record until every participant's commit
// record is durable.  ErrSharded on a sharded database (each shard
// has its own LSN space; archive per shard via internal tools).
func (db *DB) MinRequiredLSN() (uint64, error) {
	if db.sh != nil {
		return 0, ErrSharded
	}
	lsn, err := db.eng.MinRequiredLSN()
	return uint64(lsn), err
}
