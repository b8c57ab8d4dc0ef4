// Cross-shard early-lock-release torture: the cross-shard sweep's
// cluster with every engine releasing its locks at the commit point.
//
// The cross-shard sweep replays a serial trace, and a serial replay never
// opens the early-lock-release window: each commit returns before the
// next operation runs.  This sweep runs ELRRun's kind of concurrent
// workers over a three-shard shard.DB instead, every device sync slowed
// so commits linger pre-durable, and crashes every shard at every sync.
// A round is one global transaction of three kinds:
//
//   - a reader of one or two hot objects, possibly on two shards — a
//     read-only branch on each shard it touches;
//   - a writer of one or two hot objects on one shard, sometimes also
//     incrementing that shard's hot counter, that commits through the
//     early-lock-release path or aborts;
//   - a writer of the worker's own objects on two shards that first reads
//     a hot object on the third (a read-only branch, settled before the
//     vote), committed by two-phase commit or aborted; sometimes it
//     instead delegates its first object across shards to a second
//     transaction, commits alone, and the delegatee commits by two-phase
//     commit.
//
// A two-phase branch never holds a hot object's lock.  A branch left in
// doubt by a failed decision force keeps its locks until recovery, and a
// lock wait cannot be cancelled, so on a hot object it would wedge every
// other worker; on the worker's own objects it blocks nobody.
//
// The judge is the cross-shard sweep's — the durable decisions, no
// durable abort contradicting one, every shard's log oracle under them,
// nothing in doubt after Recover — plus ELRRun's two invariants, per
// shard: a dependent's durable commit implies its predecessor's, and an
// acknowledged reader read only values whose writers have a durable
// commit record.

package torture

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"ariesrh/internal/fault"
	"ariesrh/internal/shard"
	"ariesrh/internal/wal"
)

// shardELRShards is the cluster size: two shards for a two-phase writer
// and a third for its read-only branch.
const shardELRShards = 3

// ShardELRResult aggregates a cross-shard early-lock-release sweep.
type ShardELRResult struct {
	// Boundaries, Crashes, Fired and TornCrashes are as in ELRResult,
	// counted over (shard, sync) crash points.
	Boundaries  int
	Crashes     int
	Fired       int
	TornCrashes int
	// GlobalCommits and Resolved are as in ShardResult.
	GlobalCommits int
	Resolved      int
	// Violations, Winners, Losers, Records, ReadOnlyAcks and
	// ReadOnlyDeferred are as in ELRResult, summed over shards.
	Violations                     int
	Winners, Losers                int
	Records                        int
	ReadOnlyAcks, ReadOnlyDeferred int
}

// ShardELRRun executes the cross-shard early-lock-release crash sweep.
// cfg is ELRRun's workload with Objects and Counters counted per shard
// (defaults 2 and 1); each worker also owns one value object per shard,
// numbered after the hot ones, and DelegationRate is the fraction of
// two-phase writers that delegate.  As in ELRRun, the probe's sync
// counts are a sample of a scheduler-dependent interleaving.
func ShardELRRun(cfg ELRConfig) (ShardELRResult, error) {
	if cfg.Objects <= 0 {
		cfg.Objects = 2
	}
	if cfg.Counters <= 0 {
		cfg.Counters = 1
	}
	cfg = cfg.withDefaults()
	hot := cfg.Objects * shardELRShards
	objects := hot + cfg.Workers*shardELRShards
	s := &sweep{
		name:          "shard-elr",
		seed:          cfg.Seed,
		maxBoundaries: cfg.MaxBoundaries,
		tornEvery:     cfg.TornEvery,
		objects:       objects,
		counters:      cfg.Counters * shardELRShards,
		devices:       shardELRShards,
		syncDelay:     cfg.SyncDelay,
		open: func(dirs []*fault.Dir) (target, error) {
			db, err := openCluster(dirs, 64, true)
			if err != nil {
				return nil, err
			}
			return &shardELRTarget{
				clusterTarget: clusterTarget{db: db},
				cfg:           cfg,
				hot:           hot,
				objects:       objects,
				writers:       make(map[uint64]wal.TxID),
			}, nil
		},
	}
	t, _, err := s.run()
	return ShardELRResult{
		Boundaries:       t.boundaries,
		Crashes:          t.crashes,
		Fired:            t.fired,
		TornCrashes:      t.torn,
		GlobalCommits:    t.globalCommits,
		Resolved:         t.indoubtResolved,
		Violations:       t.violations,
		Winners:          t.winners,
		Losers:           t.losers,
		Records:          t.records,
		ReadOnlyAcks:     t.readOnlyAcks,
		ReadOnlyDeferred: t.readOnlyDeferred,
	}, err
}

// shardELRTarget is an early-lock-release cluster under the concurrent
// workload.  It gathers the run's evidence shard by shard and the local
// transaction of every hot-object writer.
type shardELRTarget struct {
	clusterTarget
	cfg      ELRConfig
	hot      int // hot value objects, IDs 1..hot
	objects  int // value objects: the hot ones, then the workers' own
	evidence elrEvidence

	mu      sync.Mutex
	writers map[uint64]wal.TxID // hot writer's gid → its local transaction
}

func (t *shardELRTarget) workload(context.Context) error {
	engs := t.engines()
	for i, e := range engs {
		e.SetEventHook(t.evidence.hook(uint32(i)))
	}
	defer func() {
		for _, e := range engs {
			e.SetEventHook(nil)
		}
	}()
	return runWorkers(t.cfg, t.round)
}

// judge applies the cross-shard sweep's judge, then elrEvidence's two
// invariants shard by shard.
func (t *shardELRTarget) judge(b *boundary) (verdict, error) {
	v, err := t.clusterTarget.judge(b)
	if err != nil {
		return v, err
	}
	winners := make([]map[wal.TxID]bool, len(b.durable))
	for i, recs := range b.durable {
		winners[i] = durableWinners(recs)
	}
	if err := t.evidence.judge(b, winners); err != nil {
		return verdict{}, err
	}
	return v, nil
}

// round runs one global transaction; see the file comment for the three
// kinds.  It reports (stop, err) as elrTarget.round does, and every exit
// path terminates the transactions it began.
func (t *shardELRTarget) round(rng *rand.Rand, w, r int) (bool, error) {
	switch x := rng.Float64(); {
	case x < 0.25:
		return t.read(rng)
	case x < 0.55:
		return t.writeOwn(rng, w, r)
	default:
		return t.writeHot(rng, w, r)
	}
}

// settle ends a round on an operation error: it aborts the round's
// global transactions (a terminated one refuses) and classifies err.
func (t *shardELRTarget) settle(err error, txs ...*shard.Txn) (bool, error) {
	for _, tx := range txs {
		_ = tx.Abort()
	}
	return elrVerdict(err)
}

// homedOn returns the object homed on shard s among the shardELRShards
// consecutive IDs from base: shardModRouter homes obj on obj mod the
// shard count.
func homedOn(base wal.ObjectID, s uint32) wal.ObjectID {
	const n = shardELRShards
	return base + (wal.ObjectID(s)+n-base%n)%n
}

// hotOn returns the hot value objects homed on shard s, ascending.
func (t *shardELRTarget) hotOn(s uint32) []wal.ObjectID {
	out := make([]wal.ObjectID, 0, t.cfg.Objects)
	for base := 1; base <= t.hot; base += shardELRShards {
		out = append(out, homedOn(wal.ObjectID(base), s))
	}
	return out
}

// counterOn returns the first hot counter homed on shard s.
func (t *shardELRTarget) counterOn(s uint32) wal.ObjectID {
	return homedOn(wal.ObjectID(t.objects+1), s)
}

// own returns worker w's value object on shard s.
func (t *shardELRTarget) own(w int, s uint32) wal.ObjectID {
	return homedOn(wal.ObjectID(t.hot+w*shardELRShards+1), s)
}

// read reads one or two hot objects, ascending, and commits.  Every
// value names its writer's gid, which resolves to the writer's local
// transaction: the writer registered it before its commit released the
// lock the read waited on.  Once Commit returns nil the ack is recorded
// for judge.
func (t *shardELRTarget) read(rng *rand.Rand) (bool, error) {
	tx, err := t.db.Begin()
	if err != nil {
		return t.settle(err)
	}
	first := wal.ObjectID(1 + rng.Intn(t.hot))
	objs := []wal.ObjectID{first}
	if second := wal.ObjectID(1 + rng.Intn(t.hot)); second > first {
		objs = append(objs, second)
	}
	var a readAck
	for _, obj := range objs {
		v, err := tx.Read(obj)
		if err != nil {
			return t.settle(err, tx)
		}
		if len(v) == 0 {
			continue // never written
		}
		var gid uint64
		if _, err := fmt.Sscanf(string(v), "g%d.", &gid); err != nil {
			_ = tx.Abort()
			return true, fmt.Errorf("object %d holds %q, which names no writer", obj, v)
		}
		t.mu.Lock()
		a.writers = append(a.writers, shardTx{t.db.Route(obj), t.writers[gid]})
		t.mu.Unlock()
	}
	if err := tx.Commit(); err != nil {
		return t.settle(err, tx)
	}
	for _, s := range tx.Shards() {
		local, _ := tx.Local(s)
		a.locals = append(a.locals, shardTx{s, local})
	}
	t.evidence.ack(a)
	return false, nil
}

// writeHot updates one or two hot objects of one shard, ascending,
// sometimes increments that shard's counter, and commits or aborts.
func (t *shardELRTarget) writeHot(rng *rand.Rand, w, r int) (bool, error) {
	s := uint32(rng.Intn(shardELRShards))
	hot := t.hotOn(s)
	i := rng.Intn(len(hot))
	objs := hot[i : i+1]
	if j := rng.Intn(len(hot)); j > i {
		objs = []wal.ObjectID{hot[i], hot[j]}
	}
	tx, err := t.db.Begin()
	if err != nil {
		return t.settle(err)
	}
	for _, obj := range objs {
		if err := tx.Update(obj, []byte(fmt.Sprintf("g%d.w%d.r%d.o%d", tx.GID(), w, r, obj))); err != nil {
			return t.settle(err, tx)
		}
	}
	local, _ := tx.Local(s)
	t.mu.Lock()
	t.writers[tx.GID()] = local
	t.mu.Unlock()
	if rng.Float64() < 0.3 {
		if _, err := tx.Increment(t.counterOn(s), int64(rng.Intn(5)+1)); err != nil {
			return t.settle(err, tx)
		}
	}
	if rng.Float64() < t.cfg.AbortFraction {
		if err := tx.Abort(); err != nil {
			return t.settle(err)
		}
		return false, nil
	}
	if err := tx.Commit(); err != nil {
		return t.settle(err, tx)
	}
	return false, nil
}

// writeOwn is the two-phase round: it reads a hot object on the third
// shard, updates the worker's own objects on shards a and b, and commits
// or aborts — or delegates its object on a across shards to a
// transaction writing on b (see delegateAcross).
func (t *shardELRTarget) writeOwn(rng *rand.Rand, w, r int) (bool, error) {
	a := uint32(rng.Intn(shardELRShards))
	b := (a + 1 + uint32(rng.Intn(shardELRShards-1))) % shardELRShards
	third := 3 - a - b // the shards are 0, 1 and 2
	tx, err := t.db.Begin()
	if err != nil {
		return t.settle(err)
	}
	hot := t.hotOn(third)
	if _, err := tx.Read(hot[rng.Intn(len(hot))]); err != nil {
		return t.settle(err, tx)
	}
	val := []byte(fmt.Sprintf("g%d.w%d.r%d.own", tx.GID(), w, r))
	if err := tx.Update(t.own(w, a), val); err != nil {
		return t.settle(err, tx)
	}
	if rng.Float64() < t.cfg.DelegationRate {
		return t.delegateAcross(tx, a, b, w, r)
	}
	if err := tx.Update(t.own(w, b), val); err != nil {
		return t.settle(err, tx)
	}
	if rng.Float64() < t.cfg.AbortFraction {
		if err := tx.Abort(); err != nil {
			return t.settle(err)
		}
		return false, nil
	}
	if err := tx.Commit(); err != nil {
		return t.settle(err, tx)
	}
	return false, nil
}

// delegateAcross hands tx's object on shard a to a delegatee whose first
// write is on shard b, so the delegation is logged as a delegate-out on
// a and a delegate-in on b; tx then commits on a alone and the delegatee
// commits by two-phase commit over b (its coordinator) and a.
func (t *shardELRTarget) delegateAcross(tx *shard.Txn, a, b uint32, w, r int) (bool, error) {
	tee, err := t.db.Begin()
	if err != nil {
		return t.settle(err, tx)
	}
	if err := tee.Update(t.own(w, b), []byte(fmt.Sprintf("g%d.w%d.r%d.tee", tee.GID(), w, r))); err != nil {
		return t.settle(err, tee, tx)
	}
	if err := tx.Delegate(tee, t.own(w, a)); err != nil {
		return t.settle(err, tee, tx)
	}
	if err := tx.Commit(); err != nil {
		return t.settle(err, tee, tx)
	}
	if err := tee.Commit(); err != nil {
		return t.settle(err, tee)
	}
	return false, nil
}
