// Package torture is the fault-injection torture harness for crash
// recovery: it drives delegation-heavy randomized workloads over
// fault.Dirs, crashes the target at every injected boundary, brings it
// back, and checks the recovered state against an oracle computed from
// the durable log, plus log-level invariants.
//
// There is one driver, (*sweep).run in driver.go, and seven crash
// sweeps, each a value handed to it: how to open the target over one or
// N devices, the workload to run until a device freezes, the sweep's own
// invariants over the durable bytes, and the way back.
//
//	Run                     one engine, sim trace replay        Recover
//	RunReadsDuringRecovery  the same                            Recover + mid-pipeline readers + WaitRecovered
//	ReplRun                 primary + live replica, same trace  Promote the replica
//	ELRRun                  ELR engine, concurrent committers   Recover
//	RotationRun             tiny segments, archiving workload   Recover
//	RunShards               shard.DB, cross-shard 2PC trace     cluster Recover + in-doubt resolution
//	ShardELRRun             ELR shard.DB, concurrent workers    cluster Recover + in-doubt resolution
//
// RunHealed and ELRRunHealed are the base and ELR sweeps with a
// failed-then-healed force in place of the freeze: at every 8th boundary
// one whole force fails past the WAL's retry budget and the device then
// works again, the workload aborts what it has live, and the crash comes
// after it.
//
// The driver owns everything else.  A fault-free probe run counts the
// syncs each device performs; the workload is then re-run once per
// (device, k) with a fault.Plan that freezes that device after its sync
// k — at every TornEvery-th boundary additionally persisting a seeded
// torn prefix of the unsynced tail.  The serial workloads make the count,
// and with it every crash point, a pure function of the seed: enumerable,
// reproducible and independently replayable.  Crash points fan out over
// GOMAXPROCS goroutines, the first failure wins and is prefixed with
// sweep, seed and boundary.  At each one the driver settles a freeze that
// landed inside log bootstrap, asserts the lock table names no terminated
// transaction (after the workload and again after the way back, on every
// engine), bounds workload and recovery by one hang deadline that reports
// each engine's lock orphans and health, requires recovery's undo visits
// to be one strictly decreasing duplicate-free sweep, and compares every
// object and counter with the oracle.
//
// Correctness at a boundary is judged against the durable log, not
// against what the workload observed: post-crash state is a function of
// the bytes on the device alone.  A commit whose ack never returned may
// still be durable (its record landed in the torn tail) and is then a
// winner — the classic commit-ack ambiguity — while an abort that ran
// to completion in memory may have left no durable CLRs and so never
// happened.  The driver therefore decodes the post-crash device image
// and replays the record sequence through an independent record-level
// oracle (responsibility moved by delegate records, extinguished by
// commit records and CLRs, prepared branches settled by the durable 2PC
// decisions, losers undone in reverse LSN order), and requires the
// returning engines to agree with it.  The sim package's trace-level
// oracle judges the no-crash modes (TransientRun), where volatile
// execution and durable log agree.
//
// Two further modes complement the sweeps: ScopeAudit replays a trace
// while re-deriving every live transaction's Op_List from the raw
// durable log bytes after each action (checking the engine's scope
// bookkeeping against a second, scope-free formulation), and
// TransientRun replays under a transient sync-error schedule asserting
// the WAL's bounded-backoff retry absorbs every episode without
// surfacing an error or degrading the engine.
package torture

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"

	"ariesrh/internal/core"
	"ariesrh/internal/fault"
	"ariesrh/internal/sim"
	"ariesrh/internal/wal"
)

// Config parameterizes a torture run.  The zero value is usable: every
// field defaults to a workload heavy enough for a meaningful sweep.
type Config struct {
	// Seed determines the trace and every injected fault.  Equal
	// configs produce byte-identical sweeps.
	Seed int64
	// Steps, Objects, MaxActive, DelegationRate, TerminateRate,
	// AbortFraction, SavepointRate, Counters and IncrementRate are the
	// sim.Config workload knobs (see that package).
	Steps          int
	Objects        int
	MaxActive      int
	DelegationRate float64
	TerminateRate  float64
	AbortFraction  float64
	SavepointRate  float64
	Counters       int
	IncrementRate  float64
	// DelegateAllRate is sim.Config's delegate-all knob.  Unlike the
	// knobs above it has no default: at 0 the generator draws what it
	// draws without the action, so every other sweep's trace stands.
	DelegateAllRate float64
	// PoolSize is the engine buffer-pool size.
	PoolSize int
	// MaxBoundaries caps the number of crash points swept (0 = all).
	MaxBoundaries int
	// TornEvery tears the unsynced tail at every TornEvery-th boundary
	// (0 disables torn tails; the default tears every 2nd boundary).
	TornEvery int
}

func (c Config) withDefaults() Config {
	if c.Steps <= 0 {
		c.Steps = 1500
	}
	if c.Objects <= 0 {
		c.Objects = 24
	}
	if c.MaxActive <= 0 {
		c.MaxActive = 6
	}
	if c.DelegationRate == 0 {
		c.DelegationRate = 0.25
	}
	if c.TerminateRate == 0 {
		c.TerminateRate = 0.18
	}
	if c.AbortFraction == 0 {
		c.AbortFraction = 0.35
	}
	if c.SavepointRate == 0 {
		c.SavepointRate = 0.08
	}
	if c.Counters == 0 {
		c.Counters = 4
	}
	if c.IncrementRate == 0 {
		c.IncrementRate = 0.06
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 64
	}
	if c.TornEvery == 0 {
		c.TornEvery = 2
	}
	return c
}

func (c Config) simConfig() sim.Config {
	return sim.Config{
		Seed:            c.Seed,
		Steps:           c.Steps,
		Objects:         c.Objects,
		MaxActive:       c.MaxActive,
		DelegationRate:  c.DelegationRate,
		TerminateRate:   c.TerminateRate,
		AbortFraction:   c.AbortFraction,
		SavepointRate:   c.SavepointRate,
		Counters:        c.Counters,
		IncrementRate:   c.IncrementRate,
		DelegateAllRate: c.DelegateAllRate,
	}
}

// Result aggregates a sweep.
type Result struct {
	// Boundaries is the number of distinct crash points enumerated;
	// Crashes is how many were actually crashed and recovered (equal
	// unless MaxBoundaries capped the sweep).
	Boundaries int
	Crashes    int
	// TornCrashes counts boundaries where a non-empty torn prefix of
	// the unsynced tail was persisted.
	TornCrashes int
	// AmbiguousWins counts commits whose ack was lost to the crash but
	// whose record survived in the torn tail — durable winners the
	// client saw fail.
	AmbiguousWins int
	// Winners and Losers are cumulative transaction classifications
	// across all boundaries; Records is the cumulative count of durable
	// records decoded from post-crash images; UndoVisits is the
	// cumulative number of log records recovery's backward pass visited.
	Winners, Losers int
	Records         int
	UndoVisits      int
}

// isCrashSignal reports whether a replay error is the expected face of an
// armed fault schedule: the frozen or failing device surfacing through a
// commit force (an in-doubt commit wraps the device error), or the engine
// having already moved to degraded mode because an abort absorbed it.
func isCrashSignal(err error) bool {
	return errors.Is(err, fault.ErrCrashPoint) || errors.Is(err, fault.ErrDeviceFailed) || errors.Is(err, core.ErrDegraded)
}

// decodeStable decodes a post-crash directory image into its durable
// record sequence via wal.ReadDurable: manifest selection, per-segment
// frames, stopping cleanly at the torn tail — exactly as recovery's
// analysis scan does.
func decodeStable(dir *fault.Dir) ([]*wal.Record, error) {
	_, recs, err := wal.ReadDurable(dir.StableDir())
	return recs, err
}

// sameBytes reports whether two records encode to the same bytes.
func sameBytes(a, b *wal.Record) (bool, error) {
	ab, err := wal.EncodeRecord(a)
	if err != nil {
		return false, err
	}
	bb, err := wal.EncodeRecord(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(ab, bb), nil
}

// durableWinners returns the transactions with a durable commit record —
// the winners of the crash, regardless of whether their commit was ever
// acknowledged.
func durableWinners(recs []*wal.Record) map[wal.TxID]bool {
	winners := make(map[wal.TxID]bool)
	for _, rec := range recs {
		if rec.Type == wal.TypeCommit {
			winners[rec.TxID] = true
		}
	}
	return winners
}

// durableTxns counts the distinct transactions with any durable record:
// Begin logs nothing, so a transaction exists on the log from its first
// update, increment, prepare or delegation — as delegatee too.
func durableTxns(recs []*wal.Record) int {
	seen := make(map[wal.TxID]bool)
	for _, rec := range recs {
		if rec.TxID != wal.NilTx {
			seen[rec.TxID] = true
		}
		if rec.Delegated() != nil {
			seen[rec.Tee] = true
		}
	}
	return len(seen)
}

// logOp is one undoable durable record still attributable to a live
// transaction — what the logOracle must undo if that transaction loses.
type logOp struct {
	lsn     wal.LSN
	obj     wal.ObjectID
	before  []byte
	logical bool
	delta   int64
}

// logOracle computes the expected post-recovery state directly from the
// durable record sequence.  The volatile trace is deliberately NOT
// consulted: post-crash state is a function of the durable log alone
// (crash discards all volatile state and recovery rebuilds from the
// device), so effects that executed but never reached the device — a
// commit whose force failed, an abort whose CLRs sat in the unsynced
// tail — must not influence the expectation.  Responsibility follows the
// paper's semantics: initially the invoker, moved by delegate records,
// extinguished by commit records and CLRs.
type logOracle struct {
	values   map[wal.ObjectID][]byte
	counters map[wal.ObjectID]int64
	live     map[wal.TxID]map[wal.ObjectID]map[wal.LSN]*logOp
	// prepared maps transactions with a durable prepare record to their
	// global id: at settlement they are winners iff the cluster decided
	// commit for that gid, losers otherwise (presumed abort).
	prepared map[wal.TxID]uint64
	// committed holds the transactions closed at a commit record.  Once
	// that record is in the log only the log decides, so a CLR of one
	// after it — which recovery would redo on top of a winner — is a
	// defect, not a state to predict.
	committed map[wal.TxID]bool
}

func newLogOracle() *logOracle {
	return &logOracle{
		values:    make(map[wal.ObjectID][]byte),
		counters:  make(map[wal.ObjectID]int64),
		live:      make(map[wal.TxID]map[wal.ObjectID]map[wal.LSN]*logOp),
		prepared:  make(map[wal.TxID]uint64),
		committed: make(map[wal.TxID]bool),
	}
}

func (o *logOracle) addLive(tx wal.TxID, op *logOp) {
	objs := o.live[tx]
	if objs == nil {
		objs = make(map[wal.ObjectID]map[wal.LSN]*logOp)
		o.live[tx] = objs
	}
	if objs[op.obj] == nil {
		objs[op.obj] = make(map[wal.LSN]*logOp)
	}
	objs[op.obj][op.lsn] = op
}

func (o *logOracle) apply(rec *wal.Record) error {
	switch rec.Type {
	case wal.TypeUpdate:
		o.values[rec.Object] = append([]byte(nil), rec.After...)
		o.addLive(rec.TxID, &logOp{
			lsn:    rec.LSN,
			obj:    rec.Object,
			before: append([]byte(nil), rec.Before...),
		})
	case wal.TypeIncrement:
		o.counters[rec.Object] += rec.Delta
		o.addLive(rec.TxID, &logOp{
			lsn:     rec.LSN,
			obj:     rec.Object,
			logical: true,
			delta:   rec.Delta,
		})
	case wal.TypeCLR:
		if o.committed[rec.TxID] {
			return fmt.Errorf("CLR at LSN %d compensates t%d after its commit record", rec.LSN, rec.TxID)
		}
		// A CLR both applies its compensation and extinguishes the
		// compensated update's undo obligation.
		if rec.Logical {
			o.counters[rec.Object] += rec.Delta // Delta is pre-negated
		} else {
			o.values[rec.Object] = append([]byte(nil), rec.Before...)
		}
		delete(o.live[rec.TxID][rec.Object], rec.Compensates)
	case wal.TypeDelegate, wal.TypeDelegateSet, wal.TypeDelegateOut:
		// Everything tor is responsible for on each object moves to tee.
		// A delegate-out is the same local transfer — its gid/shard
		// fields only describe the cross-shard acquirer.
		for _, obj := range rec.Delegated() {
			moved := o.live[rec.Tor][obj]
			delete(o.live[rec.Tor], obj)
			for _, op := range moved {
				o.addLive(rec.Tee, op)
			}
		}
	case wal.TypeDelegateIn:
		// Bookkeeping on the acquirer's coordinator shard: no state.
	case wal.TypePrepare:
		// The vote: the transaction's fate now follows its global id.
		o.prepared[rec.TxID] = rec.GID
	case wal.TypeCommit, wal.TypeAbort:
		// The transaction's last record: a winner's responsibilities
		// become permanent, an abort's were all extinguished by its CLRs.
		delete(o.live, rec.TxID)
		delete(o.prepared, rec.TxID)
		if rec.Type == wal.TypeCommit {
			o.committed[rec.TxID] = true
		}
	}
	return nil
}

// settle resolves this shard's prepared transactions against the
// cluster-wide decisions — a prepared transaction whose global id the
// coordinator durably committed is a winner; every other prepared
// transaction falls to presumed abort — then undoes the remaining
// losers.  Single-shard sweeps call crashUndo directly (no prepares).
func (o *logOracle) settle(committed map[uint64]bool) {
	for tx, gid := range o.prepared {
		if committed[gid] {
			delete(o.live, tx)
		}
	}
	o.crashUndo()
}

// crashUndo settles the crash: every update still attributable to a live
// (= loser) transaction is undone, in reverse LSN order — exactly the
// backward pass recovery performs.
func (o *logOracle) crashUndo() {
	var ops []*logOp
	for _, objs := range o.live {
		for _, lsns := range objs {
			for _, op := range lsns {
				ops = append(ops, op)
			}
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].lsn > ops[j].lsn })
	for _, op := range ops {
		if op.logical {
			o.counters[op.obj] -= op.delta
		} else {
			o.values[op.obj] = append([]byte(nil), op.before...)
		}
	}
	o.live = make(map[wal.TxID]map[wal.ObjectID]map[wal.LSN]*logOp)
}

// Run executes the crash-point sweep for cfg and returns the aggregated
// result.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	t, _, err := cfg.replaySweep("base", false, func(rt *replayTarget) (target, error) { return rt, nil }).run()
	return t.result(), err
}

// RunHealed is Run with a failed-then-healed force in place of each
// freeze, at every 8th boundary: sync attempts k through
// k+wal.FlushAttempts-1 fail, so one whole force fails past the WAL's
// retry budget, and the device then works again.  The replay stops at
// the error and aborts every transaction it still has live, as a client
// would; whatever those aborts force carries the failed force's records
// too.  The crash comes after the workload.  A commit whose force failed
// must then be decided by the log alone: the oracle refuses a CLR after
// a commit record.
func RunHealed(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	s := cfg.replaySweep("base-healed", false, func(rt *replayTarget) (target, error) {
		rt.healed = true
		return rt, nil
	})
	s.healed = true
	t, _, err := s.run()
	return t.result(), err
}

func (t tally) result() Result {
	return Result{
		Boundaries:    t.boundaries,
		Crashes:       t.crashes,
		TornCrashes:   t.torn,
		AmbiguousWins: t.ambiguous,
		Winners:       t.winners,
		Losers:        t.losers,
		Records:       t.records,
		UndoVisits:    t.undoVisits,
	}
}

// replaySweep is what Run, RunReadsDuringRecovery and ReplRun share: one
// engine over one device, driven by cfg's seeded trace.  The replay is
// single-threaded, so no two forces ever share a flush round: every
// commit/abort costs exactly one device sync (plus the log-initialization
// and any rotation syncs), and the boundary count — with it every crash
// point — is a pure function of the trace.  wrap turns the replaying
// engine into the sweep's target.
func (cfg Config) replaySweep(name string, parallel bool, wrap func(*replayTarget) (target, error)) *sweep {
	trace := sim.Generate(cfg.simConfig())
	return &sweep{
		name:          name,
		seed:          cfg.Seed,
		maxBoundaries: cfg.MaxBoundaries,
		tornEvery:     cfg.TornEvery,
		objects:       cfg.Objects,
		counters:      cfg.Counters,
		devices:       1,
		open: func(dirs []*fault.Dir) (target, error) {
			eng, err := core.New(core.Options{
				LogDir:           dirs[0],
				PoolSize:         cfg.PoolSize,
				ParallelRecovery: parallel,
			})
			if err != nil {
				return nil, err
			}
			return wrap(&replayTarget{
				single:    single{eng},
				trace:     trace,
				r:         sim.NewReplayer(sim.CoreTarget{Engine: eng}, trace),
				failedIdx: -1,
			})
		},
	}
}

// replayTarget is an engine replaying a sim trace.
type replayTarget struct {
	single
	trace []sim.Action
	r     *sim.Replayer
	// failedIdx is the index of the one action that observed the device
	// error, -1 if none did.
	failedIdx int
	// healed: the device works again after the failed force, so the
	// workload ends by aborting what it has live (abortLive).
	healed bool
}

// workload replays until the crash schedule surfaces (or the trace ends,
// for boundaries at or past the last sync).
func (t *replayTarget) workload(context.Context) error {
	for {
		ok, err := t.r.Step()
		if err != nil {
			if !isCrashSignal(err) {
				return fmt.Errorf("unexpected replay error: %w", err)
			}
			t.failedIdx = t.r.Pos() - 1
			if t.healed {
				t.abortLive()
			}
			return nil
		}
		if !ok {
			return nil
		}
	}
}

// abortLive aborts every transaction the replay still has live, as a
// client does after a failed commit.  A transaction whose commit record
// was appended is in doubt and refuses; the refusal leaves it to
// recovery, so the error is dropped.
func (t *replayTarget) abortLive() {
	ids := t.r.IDs()
	for _, slot := range t.r.LiveSlots() {
		_ = t.eng.Abort(ids[slot])
	}
}

// judge expects the durable image, counts losers out of every
// transaction the replay began, and spots commit-ack ambiguity: the
// replay saw a commit FAIL, yet its record is durable (it landed in the
// torn tail) — a winner whose ack was lost to the crash.
func (t *replayTarget) judge(b *boundary) (verdict, error) {
	ids := t.r.IDs()
	if i := t.failedIdx; i >= 0 && t.trace[i].Kind == sim.ActCommit && durableWinners(b.durable[0])[ids[t.trace[i].Tx]] {
		b.ambiguous++
	}
	return verdict{expect: b.durable, began: len(ids)}, nil
}
