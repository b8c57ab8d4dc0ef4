// ELR torture: the crash-between-release-and-flush sweep.
//
// Early lock release opens a window the serial sweep in torture.go cannot
// reach: a committer has appended its commit record and released its
// write locks, but the record is not yet durable.  Other transactions
// acquire those locks inside the window, form commit dependencies, and
// commit on top of the pre-durable predecessor.  A crash inside the
// window must not let any dependent survive a predecessor whose commit
// record was lost — that would expose a write derived from a commit that
// never happened.
//
// The serial replayer cannot open this window (it issues one operation at
// a time, so nothing runs while a commit waits for its flush), so the ELR
// sweep drives a genuinely concurrent workload: several workers hammer a
// small set of hot objects, occasionally delegating mid-transaction, with
// every device sync slowed by an injected delay so that commits linger in
// the pre-durable state while competitors run.  The interleaving is
// nondeterministic; correctness is judged — exactly as in the serial
// sweep — from the durable bytes alone, via the record-level log oracle.
// On top of the oracle check the sweep asserts the dependency invariant
// directly: every violation edge (dependent, predecessor) observed at
// runtime must satisfy "dependent durable ⇒ predecessor durable", which
// the single prefix-flushed log is supposed to make structural.

package torture

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ariesrh/internal/core"
	"ariesrh/internal/fault"
	"ariesrh/internal/lock"
	"ariesrh/internal/obs"
	"ariesrh/internal/wal"
)

// ELRConfig parameterizes an early-lock-release crash sweep.  The zero
// value is usable; every field defaults to a contended workload.
type ELRConfig struct {
	// Seed drives each worker's operation choices and each boundary's
	// torn-tail length.  The interleaving itself is scheduler-dependent,
	// so unlike Config the sweep is not byte-reproducible — judging from
	// the durable image makes that sound.
	Seed int64
	// Workers is the number of concurrent committers.
	Workers int
	// Rounds is the number of transactions each worker attempts.
	Rounds int
	// Objects is the number of hot value objects (IDs 1..Objects); small
	// counts maximize lock violations.  Counters adds hot counter
	// objects (IDs Objects+1..Objects+Counters) exercised by Increment.
	Objects  int
	Counters int
	// DelegationRate is the fraction of rounds that delegate their first
	// object to a second transaction before committing — covering the
	// delegate-then-violate interaction.
	DelegationRate float64
	// AbortFraction is the fraction of rounds that abort instead of
	// committing.
	AbortFraction float64
	// MaxBoundaries caps the number of crash points swept (0 = all).
	MaxBoundaries int
	// TornEvery tears the unsynced tail at every TornEvery-th boundary.
	TornEvery int
	// SyncDelay is injected before every device sync, widening the
	// pre-durable window so violations actually form.
	SyncDelay time.Duration
}

func (c ELRConfig) withDefaults() ELRConfig {
	if c.Workers <= 0 {
		c.Workers = 6
	}
	if c.Rounds <= 0 {
		c.Rounds = 40
	}
	if c.Objects <= 0 {
		c.Objects = 4
	}
	if c.Counters == 0 {
		c.Counters = 2
	}
	if c.DelegationRate == 0 {
		c.DelegationRate = 0.2
	}
	if c.AbortFraction == 0 {
		c.AbortFraction = 0.15
	}
	if c.TornEvery == 0 {
		c.TornEvery = 2
	}
	if c.SyncDelay == 0 {
		c.SyncDelay = 200 * time.Microsecond
	}
	return c
}

// ELRResult aggregates an ELR sweep.
type ELRResult struct {
	// Boundaries is the sync count of the fault-free probe run; Crashes
	// is how many boundaries were swept; Fired counts boundaries where
	// the crash schedule actually triggered (a boundary past the swept
	// run's own sync count never freezes — the workload just finishes).
	Boundaries int
	Crashes    int
	Fired      int
	// TornCrashes counts boundaries that persisted a torn tail.
	TornCrashes int
	// Violations is the cumulative count of lock violations observed
	// (elr.violate events: a grant over a live commit-LSN stamp, which
	// raised the acquirer's horizon to the stamp and names its releaser
	// as the predecessor); every one was checked against the dependency
	// invariant.
	Violations int
	// Winners, Losers and Records are cumulative durable-log
	// classifications across boundaries, as in Result.
	Winners, Losers int
	Records         int
	// ReadOnlyAcks is the cumulative count of acknowledged read-only
	// transactions whose reads were checked against the durable log;
	// ReadOnlyDeferred counts those among them that had read a
	// pre-durable committer's data, so their ack waited on its flush.
	ReadOnlyAcks, ReadOnlyDeferred int
}

// shardTx names a local transaction by its shard; the single-engine
// sweep's are all on shard 0.
type shardTx struct {
	shard uint32
	tx    wal.TxID
}

// violationEdge is one observed elr.violate event: dep acquired a lock
// released early by the then-pre-durable pred, both on shard.
type violationEdge struct {
	shard     uint32
	dep, pred wal.TxID
}

// readAck is one read-only transaction whose Commit returned nil: its
// local transaction on every shard it read, and the local writer of
// every value it read.
type readAck struct {
	locals, writers []shardTx
}

// elrEvidence is what an ELR workload gathers for judge: every
// violation (a dependent granted over a predecessor's live stamp, its
// horizon raised to that commit record) and every acknowledged
// read-only transaction.
type elrEvidence struct {
	mu    sync.Mutex
	edges []violationEdge
	acks  []readAck
}

// hook returns an event hook recording shard s's violation edges.  It
// runs under shard s's engine latch, which does not order it against
// other shards' hooks or judge's read, so it takes mu.
func (ev *elrEvidence) hook(s uint32) func(obs.Event) {
	return func(e obs.Event) {
		if e.Name == "elr.violate" {
			ev.mu.Lock()
			ev.edges = append(ev.edges, violationEdge{shard: s, dep: wal.TxID(e.Tx), pred: wal.TxID(e.Value)})
			ev.mu.Unlock()
		}
	}
}

func (ev *elrEvidence) ack(a readAck) {
	ev.mu.Lock()
	ev.acks = append(ev.acks, a)
	ev.mu.Unlock()
}

// judge asserts two invariants over the durable image, winners[s] being
// shard s's durable winners.  Dependency: a dependent's durable commit
// implies its predecessor's.  The dependent committed strictly after the
// predecessor appended its commit record, so with prefix-ordered flushing
// a surviving dependent commit record certifies the predecessor's — any
// violation here means a dependent survived a predecessor's lost commit.
// Read-only acks: a read-only transaction logs nothing, so nothing of its
// own can certify what it read; its ack must instead have waited until
// every value it saw was durably committed, so each writer it read from
// has a durable commit record.
func (ev *elrEvidence) judge(b *boundary, winners []map[wal.TxID]bool) error {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	b.violations = len(ev.edges)
	readers := make(map[shardTx]bool)
	for _, e := range ev.edges {
		if winners[e.shard][e.dep] && !winners[e.shard][e.pred] {
			return fmt.Errorf("shard %d: dependent %d durable but predecessor %d's commit was lost",
				e.shard, e.dep, e.pred)
		}
		readers[shardTx{e.shard, e.dep}] = true
	}
	for _, a := range ev.acks {
		for _, w := range a.writers {
			if !winners[w.shard][w.tx] {
				return fmt.Errorf("a read-only transaction was acknowledged, but t%d on shard %d, whose value it read, has no durable commit",
					w.tx, w.shard)
			}
		}
		b.readOnlyAcks++
		for _, l := range a.locals {
			if readers[l] {
				b.readOnlyDeferred++
				break
			}
		}
	}
	return nil
}

// elrStop reports whether a worker should stop: the device is frozen or
// failed, or the engine has left normal processing.  ErrInDoubt means
// this worker's own commit force failed — its outcome now belongs to
// recovery, and the engine has degraded, so there is no point
// continuing.
func elrStop(err error) bool {
	return errors.Is(err, fault.ErrCrashPoint) ||
		errors.Is(err, core.ErrDegraded) ||
		errors.Is(err, core.ErrCrashed) ||
		errors.Is(err, core.ErrInDoubt)
}

// elrBenign reports whether a worker error is an expected casualty of the
// concurrent workload rather than a bug: a deadlock victimization, or the
// transaction having been terminated underneath the worker by a cascaded
// abort.
func elrBenign(err error) bool {
	return errors.Is(err, lock.ErrDeadlock) || errors.Is(err, core.ErrNoSuchTxn)
}

// elrSettle ends a round on an operation error: it aborts the round's
// transactions (best-effort; they may already be gone) and classifies
// the error — a crash signal ends the worker, a benign casualty ends the
// round, anything else fails the boundary.
func elrSettle(eng *core.Engine, err error, txs ...wal.TxID) (stop bool, bad error) {
	for _, tx := range txs {
		_ = eng.Abort(tx)
	}
	return elrVerdict(err)
}

// elrVerdict is elrSettle's classification of a worker error, once the
// round's transactions are terminated.
func elrVerdict(err error) (stop bool, bad error) {
	if elrStop(err) {
		return true, nil
	}
	if elrBenign(err) {
		return false, nil
	}
	return true, err
}

// ELRRun executes the early-lock-release crash sweep and returns the
// aggregated result.  The probe run's sync count is only a sample — the
// interleaving decides how forces coalesce — which is why a boundary
// past the swept run's own count may never fire.
func ELRRun(cfg ELRConfig) (ELRResult, error) { return elrSweep(cfg, "elr", false) }

// ELRRunHealed is ELRRun with a failed-then-healed force in place of each
// freeze, as RunHealed is Run's: the committers of the failed round are
// in doubt and their workers stop, every other worker aborts its round on
// the degraded engine, and those aborts' forces may carry the in-doubt
// commit records to the healed device before the crash.
func ELRRunHealed(cfg ELRConfig) (ELRResult, error) { return elrSweep(cfg, "elr-healed", true) }

func elrSweep(cfg ELRConfig, name string, healed bool) (ELRResult, error) {
	cfg = cfg.withDefaults()
	s := &sweep{
		name:          name,
		seed:          cfg.Seed,
		maxBoundaries: cfg.MaxBoundaries,
		tornEvery:     cfg.TornEvery,
		objects:       cfg.Objects,
		counters:      cfg.Counters,
		devices:       1,
		syncDelay:     cfg.SyncDelay,
		healed:        healed,
		open: func(dirs []*fault.Dir) (target, error) {
			eng, err := core.New(core.Options{
				LogDir:           dirs[0],
				EarlyLockRelease: true,
				PoolSize:         64,
			})
			if err != nil {
				return nil, err
			}
			return &elrTarget{single: single{eng}, cfg: cfg}, nil
		},
	}
	t, _, err := s.run()
	return ELRResult{
		Boundaries:       t.boundaries,
		Crashes:          t.crashes,
		Fired:            t.fired,
		TornCrashes:      t.torn,
		Violations:       t.violations,
		Winners:          t.winners,
		Losers:           t.losers,
		Records:          t.records,
		ReadOnlyAcks:     t.readOnlyAcks,
		ReadOnlyDeferred: t.readOnlyDeferred,
	}, err
}

// elrTarget is an ELR engine under the concurrent workload; it gathers
// the run's evidence as shard 0.
type elrTarget struct {
	single
	cfg      ELRConfig
	evidence elrEvidence
}

func (t *elrTarget) workload(context.Context) error {
	t.eng.SetEventHook(t.evidence.hook(0))
	defer t.eng.SetEventHook(nil)
	return runWorkers(t.cfg, t.round)
}

// judge asserts elrEvidence's two invariants, then the log oracle's.
func (t *elrTarget) judge(b *boundary) (verdict, error) {
	if err := t.evidence.judge(b, []map[wal.TxID]bool{durableWinners(b.durable[0])}); err != nil {
		return verdict{}, err
	}
	return t.single.judge(b)
}

// runWorkers drives cfg.Workers concurrent workers, each running
// cfg.Rounds rounds from its own seeded generator, until every worker
// finishes its rounds or stops on a crash signal.  It returns the first
// unexpected error any worker hit (nil if the run — crashed or not —
// stayed within the fault model).
func runWorkers(cfg ELRConfig, round func(rng *rand.Rand, w, r int) (stop bool, bad error)) error {
	var (
		wg     sync.WaitGroup
		errMu  sync.Mutex
		badErr error
		setErr = func(err error) {
			errMu.Lock()
			if badErr == nil {
				badErr = err
			}
			errMu.Unlock()
		}
	)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed*1000003 + int64(w)))
			for r := 0; r < cfg.Rounds; r++ {
				stop, err := round(rng, w, r)
				if err != nil {
					setErr(err)
					return
				}
				if stop {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return badErr
}

// round runs one worker transaction: a quarter of rounds only read;
// the rest update one or two hot objects (in ascending ID order,
// bounding deadlocks), sometimes increment a hot counter, sometimes
// delegate the first object to a second transaction before committing,
// sometimes abort.  Every value names its writer.  It reports (stop,
// err): stop ends the worker (the device froze or the engine left normal
// processing); a non-nil err is an unexpected failure that fails the
// boundary.  Every exit path terminates the transactions it began — a
// leaked active transaction would hold locks forever and wedge the other
// workers.
func (t *elrTarget) round(rng *rand.Rand, w, r int) (bool, error) {
	eng, cfg := t.eng, t.cfg
	readOnly := rng.Float64() < 0.25
	tx, err := eng.Begin()
	if err != nil {
		return elrSettle(eng, err)
	}
	first := wal.ObjectID(1 + rng.Intn(cfg.Objects))
	objs := []wal.ObjectID{first}
	if rng.Intn(2) == 0 {
		second := wal.ObjectID(1 + rng.Intn(cfg.Objects))
		if second > first {
			objs = append(objs, second)
		}
	}
	if readOnly {
		return t.readOnly(tx, objs)
	}
	for _, obj := range objs {
		val := []byte(fmt.Sprintf("t%d.w%d.r%d.o%d", tx, w, r, obj))
		if err := eng.Update(tx, obj, val); err != nil {
			return elrSettle(eng, err, tx)
		}
	}
	if rng.Float64() < 0.3 {
		ctr := wal.ObjectID(cfg.Objects + 1 + rng.Intn(cfg.Counters))
		if _, err := eng.Increment(tx, ctr, int64(rng.Intn(5)+1)); err != nil {
			return elrSettle(eng, err, tx)
		}
	}

	if rng.Float64() < cfg.AbortFraction {
		if err := eng.Abort(tx); err != nil {
			return elrSettle(eng, err)
		}
		return false, nil
	}

	if rng.Float64() < cfg.DelegationRate {
		return t.delegateAndCommit(tx, objs[0], w, r)
	}

	if err := eng.Commit(tx); err != nil {
		return elrSettle(eng, err, tx)
	}
	return false, nil
}

// readOnly reads objs under tx and commits.  A read-only transaction
// logs nothing, so under ELR its Commit waits for the commit records of
// the pre-durable writers it read from; once it returns nil the writers
// named by what it read are recorded for judge.
func (t *elrTarget) readOnly(tx wal.TxID, objs []wal.ObjectID) (bool, error) {
	var writers []shardTx
	for _, obj := range objs {
		v, err := t.eng.Read(tx, obj)
		if err != nil {
			return elrSettle(t.eng, err, tx)
		}
		if len(v) == 0 {
			continue // never written
		}
		var writer wal.TxID
		if _, err := fmt.Sscanf(string(v), "t%d.", &writer); err != nil {
			_ = t.eng.Abort(tx)
			return true, fmt.Errorf("object %d holds %q, which names no writer", obj, v)
		}
		writers = append(writers, shardTx{tx: writer})
	}
	if err := t.eng.Commit(tx); err != nil {
		return elrSettle(t.eng, err, tx)
	}
	t.evidence.ack(readAck{locals: []shardTx{{tx: tx}}, writers: writers})
	return false, nil
}

// delegateAndCommit covers the delegation × ELR interaction: tx delegates
// its first object to a fresh transaction tee, commits (releasing its
// remaining locks early), and tee then updates the delegated object again
// and commits on top — the delegate-then-violate interleaving.  A crash
// between the two commits must take tee down with tx.
func (t *elrTarget) delegateAndCommit(tx wal.TxID, obj wal.ObjectID, w, r int) (bool, error) {
	eng := t.eng
	tee, err := eng.Begin()
	if err != nil {
		return elrSettle(eng, err, tx)
	}
	if err := eng.Delegate(tx, tee, obj); err != nil {
		return elrSettle(eng, err, tee, tx)
	}
	if err := eng.Commit(tx); err != nil {
		// A commit refused at the door (the engine degraded meanwhile)
		// leaves tx active and holding its locks: abort it too.
		return elrSettle(eng, err, tee, tx)
	}
	if err := eng.Update(tee, obj, []byte(fmt.Sprintf("t%d.w%d.r%d.tee", tee, w, r))); err != nil {
		return elrSettle(eng, err, tee)
	}
	if err := eng.Commit(tee); err != nil {
		return elrSettle(eng, err, tee)
	}
	return false, nil
}
