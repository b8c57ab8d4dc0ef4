// Package core implements ARIES/RH, the paper's extension of ARIES with
// delegation support ("Delegation: Efficiently Rewriting History",
// Pedregal Martin & Ramamritham, ICDE 1997).
//
// The engine provides the usual transactional operations — Begin, Read,
// Update, Commit, Abort — plus Delegate(tor, tee, ob), which transfers
// responsibility for tor's updates to ob over to tee.  Delegation is
// "rewriting history": after delegate(t1, t2, ob), recovery must behave as
// if every update[t1, ob] record had been written by t2.  ARIES/RH obtains
// that behaviour without ever modifying the log: it tracks responsibility
// in volatile scopes (internal/delegation), logs a delegate record so the
// scopes are reconstructible, and during recovery *interprets* the log
// according to the delegations (§3.2).
//
// Normal processing follows §3.5, recovery follows §3.6: a single forward
// analysis+redo pass that replays delegate records into the object lists,
// then a backward pass that undoes exactly the loser updates by sweeping
// clusters of overlapping loser scopes in strictly decreasing LSN order.
//
// Crashes are simulated: Crash discards all volatile state (buffer pool,
// lock table, transaction table, object lists, unflushed log tail) and
// Recover rebuilds from stable storage.
package core

import (
	"errors"
	"fmt"
	"sync"

	"ariesrh/internal/buffer"
	"ariesrh/internal/delegation"
	"ariesrh/internal/lock"
	"ariesrh/internal/object"
	"ariesrh/internal/obs"
	"ariesrh/internal/storage"
	"ariesrh/internal/txn"
	"ariesrh/internal/wal"
)

// Errors returned by engine operations.
var (
	// ErrNoSuchTxn is returned for operations naming an unknown or
	// terminated transaction.
	ErrNoSuchTxn = errors.New("core: no such transaction")
	// ErrNotResponsible is returned when a delegation's precondition
	// fails: the delegator is not responsible for any update on the
	// object (§2.1.2).
	ErrNotResponsible = errors.New("core: delegator not responsible for object")
	// ErrCrashed is returned for operations attempted between Crash and
	// Recover.
	ErrCrashed = errors.New("core: engine crashed; run Recover")
	// ErrRecovering is returned for mutating operations while a parallel
	// recovery (or promotion) pipeline is still running: reads are served
	// as soon as their object's redo and undo are settled, but writes
	// must wait for the whole pipeline so they can never interleave with
	// redo or the backward pass.  Retry after WaitRecovered (or when
	// Health stops reporting StateRecovering).
	ErrRecovering = errors.New("core: engine is recovering; writes unavailable until recovery completes")
	// ErrDegraded is returned for mutating operations while the engine is
	// in the read-only degraded state it enters after a persistent log
	// device error (a commit- or abort-time force that failed even after
	// the WAL's bounded retries).  Reads and Aborts remain available —
	// aborts need no durability, recovery re-aborts them idempotently —
	// and Crash+Recover clears the state once the device is healthy.
	ErrDegraded = errors.New("core: engine degraded to read-only (persistent log device error)")
	// ErrInDoubt is returned (wrapped around the device error) when a
	// commit record was appended but the force meant to make it durable
	// failed: the record may or may not reach the device, so the outcome
	// is unknown.  Once a commit record is appended only the log decides —
	// nothing rolls the transaction back.  It stays committed in the
	// tables, keeping its locks (or, under early lock release, its live
	// stamps), the engine degrades, and the next Crash + Recover
	// settles it: a winner if the record is durable, a loser otherwise.
	ErrInDoubt = errors.New("core: commit outcome in doubt until recovery")
)

// HealthState classifies engine availability; see (*Engine).Health.
type HealthState int

const (
	// StateHealthy: all operations available.
	StateHealthy HealthState = iota
	// StateDegraded: a persistent log device error was observed; the
	// engine accepts reads and aborts but rejects every operation that
	// would need new durable log records with ErrDegraded.
	StateDegraded
	// StateCrashed: between Crash and Recover; everything but Recover is
	// rejected with ErrCrashed.
	StateCrashed
	// StateFollower: the engine is a replication standby; reads are
	// served at the replayed LSN, mutations are rejected with
	// ErrFollower until Promote.
	StateFollower
	// StateRecovering: a parallel recovery (or promotion) pipeline is
	// running.  Reads are available — each waits only for its own
	// object's redo chain and undo gate — while mutations are rejected
	// with ErrRecovering until the pipeline completes.
	StateRecovering
)

// String renders the state for logs and error messages.
func (s HealthState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateCrashed:
		return "crashed"
	case StateFollower:
		return "follower"
	case StateRecovering:
		return "recovering"
	}
	return fmt.Sprintf("HealthState(%d)", int(s))
}

// Health reports engine availability: the state and, when degraded, the
// device error that caused it.
type Health struct {
	State HealthState
	// Err is the underlying device error for StateDegraded, nil
	// otherwise.
	Err error
}

// Options configures an Engine.
type Options struct {
	// PoolSize is the buffer-pool capacity in pages (default 128).
	PoolSize int
	// ShardID is this engine's index in a sharded cluster (0 for a
	// standalone engine).  Two-phase commit uses it to tell coordinator
	// from participant: only the engine whose ShardID matches a prepared
	// transaction's coordinator field retains the commit decision (and
	// pins its archive) when that transaction commits — participants
	// apply the decision without retaining anything.
	ShardID uint32
	// LogDir, Disk and MasterStore override the default in-memory
	// stable storage (used for file-backed operation).  LogDir is the
	// segmented log's directory (see wal.Dir); the engine closes it on
	// Close.
	LogDir      wal.Dir
	Disk        storage.DiskManager
	MasterStore wal.Store
	// LogSegmentBytes overrides the log's segment rotation threshold
	// (0 means wal.DefaultSegmentBytes).  Small values are useful to
	// exercise rotation in tests and benchmarks.
	LogSegmentBytes int64
	// FullScanUndo replaces the cluster sweep of the recovery backward
	// pass with the naïve alternative §3.6.2 rejects: scan every log
	// record backwards, testing each against the loser scopes.  Results
	// are identical; only the visit counts differ.  Ablation benchmarks
	// only.
	FullScanUndo bool
	// Follower opens the engine as a read-only replication follower: it
	// catches up on whatever the local log already holds (forward pass
	// only — losers stay live, their object lists intact), then waits for
	// records via FollowerApply.  Mutating operations are rejected with
	// ErrFollower until Promote runs the backward pass.
	Follower bool
	// EarlyLockRelease enables controlled lock violation in the commit
	// path: Commit appends the commit record, releases the transaction's
	// locks immediately — stamping each write (X/Increment) lock with
	// the record's LSN — and defers only the durability ack to the group
	// flusher, so lock hold time no longer includes the device sync.  A
	// transaction that then acquires a conflicting lock over a stamp not
	// yet durable has violated the committer's lock: its horizon rises
	// to that commit record, and a delegation hands the delegator's
	// horizon to the delegatee.
	//
	// Crash contract.  Nothing weakens: the commit ack still implies
	// durability.  A violator's own commit record necessarily follows
	// its predecessor's in the log, and flushes are prefix-ordered, so a
	// dependent can never be acknowledged — or survive recovery — unless
	// every predecessor's commit is durable too; a violator that never
	// logs waits for its horizon instead.  A failed flush is settled as
	// on the default path: if a later group round made the record
	// durable first, the commit completes and returns nil; otherwise
	// Commit returns ErrInDoubt and the transaction stays committed, in
	// doubt, its stamps live until Crash + Recover decides it from the
	// log.  Nothing is rolled back live, so no cascade is needed: a
	// dependent's commit record follows its predecessor's, and an active
	// dependent that aborts compensates only its own updates, which is
	// correct whichever way the predecessor is decided.  A crash in the
	// window between lock release and flush completion likewise needs no
	// special handling: recovery judges every transaction purely from
	// the durable log.
	EarlyLockRelease bool
	// ParallelRecovery rebuilds Recover (and Promote) as the three-stage
	// instant-restart pipeline: a manifest-driven parallel scan of the
	// log segments builds per-object redo chains, redo runs on demand —
	// a read during recovery redoes just its object's chain and returns,
	// while background workers drain the rest by descending heat — and
	// the backward cluster-undo pass runs concurrently with tail redo,
	// gated per record on the redo of the pages it touches.  Recover
	// returns once the pipeline is started; the engine then reports
	// StateRecovering, serves reads (each gated on its own object's redo
	// and undo), and rejects writes with ErrRecovering until the
	// pipeline completes (WaitRecovered blocks for it).
	//
	// Crash contract: unchanged.  The recovered state is byte-identical
	// to sequential recovery's — redo baselines are captured per page
	// before the pipeline's first write to that page, the undo sweep
	// still visits loser clusters in strictly decreasing LSN order, and
	// a read is served only after its object's redo chain has applied
	// AND every loser cluster covering the object has been undone.  A
	// pipeline failure returns the engine to the crashed state;
	// WaitRecovered reports the error and Recover may be retried.
	ParallelRecovery bool
}

// Engine is the ARIES/RH transaction manager.  It is safe for concurrent
// use: object locks are taken before the engine latch, so lock waits never
// block unrelated transactions' progress.
type Engine struct {
	mu    sync.Mutex
	log   *wal.Log
	disk  storage.DiskManager
	pool  *buffer.Pool
	store *object.Store
	locks *lock.Manager
	txns  *txn.Table

	// state holds each live transaction's object list (Ob_List, §3.4).
	state delegation.State
	// deps holds the ASSET form-dependency graph (volatile).
	deps map[wal.TxID][]depEdge
	// prepared maps each in-doubt 2PC participant (status txn.Prepared)
	// to its global-transaction bookkeeping; globals retains coordinator-
	// side commit decisions until ReleaseGlobal, pinning the archive at
	// their prepare LSNs; maxGID is the highest global id seen.  All
	// three are rebuilt by recovery from the log and checkpoint state.
	// See internal/core/twopc.go.
	prepared map[wal.TxID]preparedInfo
	globals  map[uint64]globalDecision
	maxGID   uint64

	master  *masterRecord
	crashed bool
	// follower marks a replication standby: recovery's forward pass runs
	// continuously (FollowerApply), writes are rejected, and frs holds
	// the live replay state Promote finishes from.  replayedLSN is the
	// consistency point follower reads are served at.
	follower    bool
	frs         *replayState
	replayedLSN wal.LSN
	// degraded holds the persistent device error that moved the engine
	// to read-only degraded mode (nil while healthy).  See ErrDegraded.
	degraded error
	opts     Options

	// reg is the engine's metric registry; every component (WAL, buffer
	// pool, lock manager) binds its handles to it.  met caches the
	// engine's own handles; lastTrace records the most recent Recover.
	reg       *obs.Registry
	met       engineMetrics
	lastTrace RecoveryTrace

	// recoveryFailpoint, when positive, makes the NEXT Recover fail
	// after that many backward-pass CLRs — fault injection for
	// crash-during-recovery testing.  One-shot; cleared when it fires.
	recoveryFailpoint int

	// recovering is the live instant-restart pipeline while a parallel
	// Recover (or Promote) is in flight, nil otherwise.  While set, the
	// pipeline's goroutines own the transaction table, the object lists
	// and all page applications; every other path must either route
	// through it (reads) or reject with ErrRecovering (writes).
	recovering *recoveryPipeline
	// recoveryErr is the error of the last recovery pipeline that failed
	// and left the engine crashed; Recover and Crash clear it.
	recoveryErr error
	// recoveryHold, when non-nil, makes the next pipeline block right
	// before flipping the engine back to healthy until the channel is
	// closed — a deterministic window for tests that must observe the
	// recovering state.  One-shot; consumed by the next pipeline.
	recoveryHold <-chan struct{}
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
	log, err := wal.NewLogWith(opts.LogDir, wal.LogOptions{SegmentBytes: opts.LogSegmentBytes})
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	e := &Engine{
		log:      log,
		disk:     opts.Disk,
		locks:    lock.NewManager(),
		txns:     txn.NewTable(),
		state:    delegation.State{},
		deps:     make(map[wal.TxID][]depEdge),
		prepared: make(map[wal.TxID]preparedInfo),
		globals:  make(map[uint64]globalDecision),
		master:   &masterRecord{store: opts.MasterStore},
		opts:     opts,
		reg:      reg,
		met:      bindEngineMetrics(reg),
	}
	e.log.Instrument(reg)
	e.locks.Instrument(reg)
	e.pool = buffer.NewPool(opts.Disk, opts.PoolSize, func(lsn wal.LSN) error { return e.log.Flush(lsn) })
	e.pool.Instrument(reg)
	e.store, err = object.Open(e.pool, opts.Disk)
	if err != nil {
		return nil, err
	}
	if log.Head() > log.FlushedLSN() {
		// Cannot happen on a fresh open; defensive.
		return nil, fmt.Errorf("core: log has unflushed tail at open")
	}
	if opts.Follower {
		// Follower open: forward pass over the local log (a restored
		// backup, or empty) without the backward pass — in-flight
		// transactions are not losers yet, their object lists stay live
		// for the records FollowerApply will ship.
		e.follower = true
		e.frs = newReplayState()
		e.mu.Lock()
		err := e.followerCatchUpLocked()
		e.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return e, nil
	}
	if log.Head() > 0 {
		// Existing stable state: recover before accepting work.
		e.crashed = true
		if err := e.Recover(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Log exposes the write-ahead log for inspection by tests, the demo tools
// and the benchmark harness.  Callers must not mutate it.
func (e *Engine) Log() *wal.Log { return e.log }

// Health returns the engine's availability state.  It never blocks on
// the device and is answerable in every state — including degraded and
// crashed — so operators can always ask.
func (e *Engine) Health() Health {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case e.recovering != nil:
		return Health{State: StateRecovering}
	case e.crashed:
		return Health{State: StateCrashed}
	case e.follower:
		return Health{State: StateFollower}
	case e.degraded != nil:
		return Health{State: StateDegraded, Err: e.degraded}
	}
	return Health{State: StateHealthy}
}

// LockOrphans returns the transactions that hold locks but are absent
// from the transaction table.  The invariant is held ⊆ table: active and
// prepared transactions, and committers whose force is pending or in
// doubt, stay in the table until their commit or abort completes, and
// that releases their locks in the same latched step.  So on a quiescent
// engine the result must be empty: nobody can ever release an orphan's
// locks.  Mid-operation a waiter granted posthumously is an
// orphan until its operation re-latches and drops the grant (see
// activeAfterLockLocked), so only a quiescent reading is a verdict.
func (e *Engine) LockOrphans() []wal.TxID {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []wal.TxID
	for _, tx := range e.locks.Holders() {
		if e.txns.Get(tx) == nil {
			out = append(out, tx)
		}
	}
	return out
}

// writableLocked gates operations that would append (and eventually
// force) new log records.  The caller holds the engine latch.
func (e *Engine) writableLocked() error {
	if e.recovering != nil {
		// Writes never interleave with the pipeline's redo or undo: they
		// are rejected until the pipeline completes and flips the state.
		return ErrRecovering
	}
	if e.crashed {
		return ErrCrashed
	}
	if e.follower {
		return ErrFollower
	}
	if e.degraded != nil {
		e.met.degradedRejects.Inc()
		return fmt.Errorf("%w: %v", ErrDegraded, e.degraded)
	}
	return nil
}

// degradeLocked moves the engine to read-only degraded mode after a
// persistent device error surfaced from a log force (the WAL has already
// spent its retry budget by the time the error reaches here).  First
// error wins; a crashed engine does not degrade (the crash supersedes).
// The caller holds the engine latch.
func (e *Engine) degradeLocked(err error) {
	if err == nil || e.crashed || e.degraded != nil {
		return
	}
	e.degraded = err
	e.met.deviceErrors.Inc()
	e.met.degraded.Set(1)
	if e.reg.HasEventHook() {
		e.reg.Emit(obs.Event{Name: "core.degraded"})
	}
}

// ReadObject returns the current stable/buffered value of obj without any
// locking — for tests, tools and the history checker, not for transactions.
// During a parallel recovery it is the recovering-reads surface: the call
// triggers on-demand redo of obj's chain, waits for any loser cluster
// covering obj to be undone, and returns the fully recovered value — it
// never observes a half-recovered object.
func (e *Engine) ReadObject(obj wal.ObjectID) ([]byte, bool, error) {
	e.mu.Lock()
	if p := e.recovering; p != nil {
		e.mu.Unlock()
		return p.readObject(obj)
	}
	defer e.mu.Unlock()
	if e.crashed {
		return nil, false, ErrCrashed
	}
	return e.store.Read(obj)
}

// ResponsibleFor returns the transaction currently responsible for the
// update logged at lsn (NilTx if none — e.g. the record is not an update
// or its responsible transaction has terminated).  This is the paper's
// ResponsibleTr function (§2.1.1), computed from the scopes, and is what
// "interpreting the log" means: the Figure 2 rewrite is visible through
// this lens while the log itself stays untouched.
func (e *Engine) ResponsibleFor(lsn wal.LSN) (wal.TxID, error) {
	rec, err := e.log.Get(lsn)
	if err != nil {
		return wal.NilTx, err
	}
	if !rec.IsUndoable() {
		return wal.NilTx, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.recovering != nil {
		// The pipeline's workers own the object lists until it completes.
		return wal.NilTx, ErrRecovering
	}
	for owner, ol := range e.state {
		entry := ol.Entry(rec.Object)
		if entry == nil {
			continue
		}
		for _, s := range entry.Scopes() {
			if s.Invoker == rec.TxID && s.Contains(lsn) {
				return owner, nil
			}
		}
	}
	return wal.NilTx, nil
}

// OpList returns the LSNs of the updates tx is currently responsible for —
// the paper's Op_List(t) (§2.1.1), computed from scopes by interpreting
// the log.  Sorted ascending.
//
// The whole list is produced by one bounded Scan over [min First,
// max Last] with a per-record filter.  Interleaved scopes would make a
// per-scope walk re-read the shared range once per scope with a latched
// Get per LSN, and a scope reaching below the archived log base would
// error; Scan reads each position once and starts above the base.
func (e *Engine) OpList(tx wal.TxID) ([]wal.LSN, error) {
	e.mu.Lock()
	if e.recovering != nil {
		e.mu.Unlock()
		return nil, ErrRecovering
	}
	ol, ok := e.state[tx]
	if !ok {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: %d", ErrNoSuchTxn, tx)
	}
	scopes := ol.AllScopes()
	e.mu.Unlock()

	if len(scopes) == 0 {
		return nil, nil
	}
	lo, hi := scopes[0].First, scopes[0].Last
	for _, s := range scopes[1:] {
		if s.First < lo {
			lo = s.First
		}
		if s.Last > hi {
			hi = s.Last
		}
	}
	var out []wal.LSN
	err := e.log.Scan(lo, hi, func(rec *wal.Record) (bool, error) {
		if !rec.IsUndoable() {
			return true, nil
		}
		for _, s := range scopes {
			if s.Invoker == rec.TxID && s.Object == rec.Object && s.Contains(rec.LSN) {
				out = append(out, rec.LSN)
				break
			}
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SetRecoveryFailpoint arms a one-shot fault: the next Recover returns
// ErrInjectedRecoveryFailure after writing n compensation log records in
// its backward pass, leaving the system exactly as a crash during recovery
// would.  Testing hook; n <= 0 disarms.
func (e *Engine) SetRecoveryFailpoint(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.recoveryFailpoint = n
}

// SetRecoveryHold arms a one-shot testing hook for parallel recovery:
// the next pipeline completes all of its work — redo drain, backward
// pass, loser termination, the final log force — but blocks right before
// flipping the engine back to a writable state until ch is closed.
// Reads are fully served during the hold (every gate has been released);
// writes keep returning ErrRecovering.  This gives tests a
// deterministic window in which to observe the recovering state; nil
// disarms.
func (e *Engine) SetRecoveryHold(ch <-chan struct{}) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.recoveryHold = ch
}

// Quiesce flushes the whole log and then runs fn while holding the engine
// latch, so no operation can mutate stable state during fn.  Used for
// online backup: fn copies the stable stores and gets a crash-consistent
// snapshot (restoring it runs normal recovery).
func (e *Engine) Quiesce(fn func() error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.writableLocked(); err != nil {
		return err
	}
	if err := e.log.Flush(e.log.Head()); err != nil {
		e.degradeLocked(err)
		return err
	}
	return fn()
}

// FlushPages writes every dirty buffer-pool page back to disk, honoring
// the WAL rule (the log is forced up to each page's LSN first).  Fuzzy
// checkpoints do not flush pages, so a hot page that is never evicted
// pins the dirty-page table's recLSN — and with it the archive bound —
// arbitrarily far back; flushing pages before a checkpoint lets
// ArchiveLog reclaim up to the checkpoint itself.
func (e *Engine) FlushPages() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.writableLocked(); err != nil {
		return err
	}
	if err := e.store.FlushAll(); err != nil {
		e.degradeLocked(err)
		return err
	}
	return nil
}

// drainRecovery waits for any live parallel-recovery pipeline to finish
// (successfully or not) so the caller can take exclusive ownership of the
// engine's volatile state.  Returns with no latch held.
func (e *Engine) drainRecovery() {
	for {
		e.mu.Lock()
		p := e.recovering
		e.mu.Unlock()
		if p == nil {
			return
		}
		<-p.done
	}
}

// Crash simulates a failure: the unflushed log tail, buffer pool, lock
// table, transaction table and all object lists are lost.  Stable storage
// (flushed log, written pages, master record) survives.  The engine
// rejects new work until Recover is called.  A parallel recovery still in
// flight is drained first — the crash then lands on whatever that
// recovery made durable, exactly as a crash during sequential recovery
// would land on its durable prefix.
func (e *Engine) Crash() error {
	e.drainRecovery()
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
	e.state = delegation.State{}
	e.deps = make(map[wal.TxID][]depEdge)
	// 2PC state is volatile too: recovery rebuilds in-doubt participants
	// and retained decisions from the durable log and checkpoint.
	e.prepared = make(map[wal.TxID]preparedInfo)
	e.globals = make(map[uint64]globalDecision)
	e.noteGlobalsLocked()
	e.crashed = true
	e.recoveryErr = nil
	// A crash clears degraded mode: the restart is the repair action —
	// if the device is still broken, Recover's final flush fails and the
	// engine stays crashed instead.
	e.degraded = nil
	e.met.degraded.Set(0)
	return nil
}

// Close flushes everything for a clean shutdown and releases the stable
// stores (log, master record and disk), including any file handles behind
// them.  A parallel recovery still in flight is waited for first.
func (e *Engine) Close() error {
	e.drainRecovery()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	if err := e.log.Flush(e.log.Head()); err != nil {
		return err
	}
	if err := e.store.FlushAll(); err != nil {
		return err
	}
	err := e.disk.Close()
	if cerr := e.opts.LogDir.Close(); err == nil {
		err = cerr
	}
	if cerr := e.opts.MasterStore.Close(); err == nil {
		err = cerr
	}
	return err
}

// masterRecord persists the LSN of the last complete checkpoint outside
// the log (the ARIES "master record").
type masterRecord struct {
	store wal.Store
}

func (m *masterRecord) Set(lsn wal.LSN) error {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(lsn >> (8 * i))
	}
	if _, err := m.store.WriteAt(buf[:], 0); err != nil {
		return err
	}
	return m.store.Sync()
}

func (m *masterRecord) Get() (wal.LSN, error) {
	size, err := m.store.Size()
	if err != nil {
		return wal.NilLSN, err
	}
	if size < 8 {
		return wal.NilLSN, nil
	}
	var buf [8]byte
	if _, err := m.store.ReadAt(buf[:], 0); err != nil {
		return wal.NilLSN, err
	}
	var lsn wal.LSN
	for i := 0; i < 8; i++ {
		lsn |= wal.LSN(buf[i]) << (8 * i)
	}
	return lsn, nil
}
