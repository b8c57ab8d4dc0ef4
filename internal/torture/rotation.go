// Rotation/archive torture: crash-at-every-sync during segment rotation
// and log archiving.
//
// The serial sweep in torture.go runs with the default segment cap and
// never archives, so its crash schedule only ever lands on frame-flush
// syncs.  The segmented log has two more maintenance paths with their own
// device mutations: rotation (a fresh segment image created and its
// header synced when an append passes the cap) and Archive (a new
// manifest generation written and synced, then whole sealed segments
// deleted).  This sweep forces both to run constantly — the segment cap
// is tiny, so every few appends seal a segment, and every few rounds a
// checkpoint plus ArchiveLog reclaims the prefix — and then crashes the
// device at every sync boundary the workload performs, so the freeze
// lands inside rotations, inside archive's manifest commit, and between
// the manifest sync and the segment deletes.
//
// Judging needs one extra ingredient over torture.go: archive deletes
// durable records, so the post-crash image alone cannot reconstruct
// object state written before the base.  The workload is serial and
// deterministic, so a fault-free capture run with archiving disabled
// (archive appends no records, hence the record sequence is identical)
// provides the full record sequence.  Each boundary's durable image must
// then be byte-identical to the capture at every surviving LSN — archive
// must never mutate a record it retains — and the expected post-recovery
// state is the log oracle replayed over the capture prefix up to the
// boundary's durable head.

package torture

import (
	"context"
	"fmt"
	"math/rand"

	"ariesrh/internal/core"
	"ariesrh/internal/fault"
	"ariesrh/internal/wal"
)

// RotationConfig parameterizes a rotation/archive crash sweep.  The zero
// value is usable: every field defaults to a workload that rotates on
// nearly every transaction and archives several times.
type RotationConfig struct {
	// Seed determines the trace and every injected fault.
	Seed int64
	// Rounds is the number of serial transactions.
	Rounds int
	// Objects and Counters size the object space (values 1..Objects,
	// counters Objects+1..Objects+Counters).
	Objects  int
	Counters int
	// ArchiveEvery issues Checkpoint + ArchiveLog after every
	// ArchiveEvery-th round.
	ArchiveEvery int
	// SegmentBytes is the forced segment cap; tiny values make every few
	// appends rotate.
	SegmentBytes int64
	// PoolSize is the engine buffer-pool size.  Deliberately small: page
	// evictions flush pages, advancing the dirty-page bound so archive
	// actually reclaims segments.
	PoolSize int
	// MaxBoundaries caps the number of crash points swept (0 = all).
	MaxBoundaries int
	// TornEvery tears the unsynced tail at every TornEvery-th boundary.
	TornEvery int
}

func (c RotationConfig) withDefaults() RotationConfig {
	if c.Rounds <= 0 {
		c.Rounds = 80
	}
	if c.Objects <= 0 {
		c.Objects = 16
	}
	if c.Counters == 0 {
		c.Counters = 4
	}
	if c.ArchiveEvery <= 0 {
		c.ArchiveEvery = 7
	}
	if c.SegmentBytes == 0 {
		c.SegmentBytes = 256
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 8
	}
	if c.TornEvery == 0 {
		c.TornEvery = 2
	}
	return c
}

// RotationResult aggregates a rotation/archive sweep.
type RotationResult struct {
	// Boundaries is the number of distinct sync boundaries the workload
	// performs; Crashes how many were crashed and recovered.
	Boundaries int
	Crashes    int
	// TornCrashes counts boundaries that persisted a torn tail.
	TornCrashes int
	// Rotations and Archives are the maintenance operations the fault-free
	// probe run performed — the sweep's reason to exist; ArchivedBase is
	// the probe's final base (non-nil proves archiving really reclaimed).
	Rotations    uint64
	Archives     uint64
	ArchivedBase wal.LSN
	// Winners, Losers and Records are cumulative durable-log
	// classifications across boundaries, as in Result.
	Winners, Losers int
	Records         int
}

func (cfg RotationConfig) newEngine(dir wal.Dir) (*core.Engine, error) {
	return core.New(core.Options{
		LogDir:          dir,
		PoolSize:        cfg.PoolSize,
		LogSegmentBytes: cfg.SegmentBytes,
	})
}

// workload runs the serial deterministic trace: each round updates one or
// two objects, sometimes increments a counter, then commits (or aborts a
// fixed fraction); after every ArchiveEvery-th round a checkpoint and —
// when doArchive — an ArchiveLog reclaim the durable prefix.  The rng
// consumption is independent of doArchive and of any device behavior, so
// the appended record sequence is a pure function of the config.  It
// returns the first error (the crash schedule surfacing, for fault runs).
func (cfg RotationConfig) workload(eng *core.Engine, doArchive bool) error {
	rng := rand.New(rand.NewSource(cfg.Seed))
	for r := 0; r < cfg.Rounds; r++ {
		tx, err := eng.Begin()
		if err != nil {
			return err
		}
		objs := []wal.ObjectID{wal.ObjectID(1 + rng.Intn(cfg.Objects))}
		if rng.Intn(2) == 0 {
			second := wal.ObjectID(1 + rng.Intn(cfg.Objects))
			if second != objs[0] {
				objs = append(objs, second)
			}
		}
		for _, obj := range objs {
			if err := eng.Update(tx, obj, []byte(fmt.Sprintf("r%d.o%d", r, obj))); err != nil {
				return err
			}
		}
		if rng.Float64() < 0.3 {
			ctr := wal.ObjectID(cfg.Objects + 1 + rng.Intn(cfg.Counters))
			if _, err := eng.Increment(tx, ctr, int64(rng.Intn(5)+1)); err != nil {
				return err
			}
		}
		if rng.Float64() < 0.2 {
			if err := eng.Abort(tx); err != nil {
				return err
			}
		} else if err := eng.Commit(tx); err != nil {
			return err
		}
		if (r+1)%cfg.ArchiveEvery == 0 {
			// Flush pages first so the checkpoint's dirty-page table does
			// not pin the archive bound at some hot page's ancient recLSN.
			if err := eng.FlushPages(); err != nil {
				return err
			}
			if err := eng.Checkpoint(); err != nil {
				return err
			}
			if doArchive {
				if _, err := eng.ArchiveLog(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// RotationRun executes the rotation/archive crash sweep.  A capture run
// (fault-free, archiving disabled) records the full record sequence; the
// driver's probe run (fault-free, archiving on) counts the sync
// boundaries and proves rotation and archive really fire; then every
// boundary is swept.
func RotationRun(cfg RotationConfig) (RotationResult, error) {
	cfg = cfg.withDefaults()

	// Capture: the full record sequence, with nothing ever archived.
	capEng, err := cfg.newEngine(wal.NewMemDir())
	if err != nil {
		return RotationResult{}, err
	}
	if err := cfg.workload(capEng, false); err != nil {
		return RotationResult{}, fmt.Errorf("torture: rotation capture: %w", err)
	}
	head := capEng.Log().Head()
	fullRecs := make([]*wal.Record, head)
	for lsn := wal.LSN(1); lsn <= head; lsn++ {
		rec, err := capEng.Log().Get(lsn)
		if err != nil {
			return RotationResult{}, fmt.Errorf("torture: rotation capture read %d: %w", lsn, err)
		}
		fullRecs[lsn-1] = rec
	}

	s := &sweep{
		name:          "rotation",
		seed:          cfg.Seed,
		maxBoundaries: cfg.MaxBoundaries,
		tornEvery:     cfg.TornEvery,
		objects:       cfg.Objects,
		counters:      cfg.Counters,
		devices:       1,
		open: func(dirs []*fault.Dir) (target, error) {
			eng, err := cfg.newEngine(dirs[0])
			if err != nil {
				return nil, err
			}
			return &rotationTarget{single: single{eng}, cfg: cfg, fullRecs: fullRecs}, nil
		},
	}
	t, probed, err := s.run()
	res := RotationResult{
		Boundaries:  t.boundaries,
		Crashes:     t.crashes,
		TornCrashes: t.torn,
		Winners:     t.winners,
		Losers:      t.losers,
		Records:     t.records,
	}
	if probed != nil {
		eng := probed.engines()[0]
		m := eng.Metrics()
		res.Rotations, res.Archives, res.ArchivedBase = m.Counter("wal.rotations"), m.Counter("wal.archives"), eng.Log().Base()
	}
	return res, err
}

// rotationTarget is an engine under the archiving workload, judged
// against the capture.
type rotationTarget struct {
	single
	cfg      RotationConfig
	fullRecs []*wal.Record
}

func (t *rotationTarget) workload(context.Context) error {
	if err := t.cfg.workload(t.eng, true); err != nil && !isCrashSignal(err) {
		return fmt.Errorf("unexpected workload error: %w", err)
	}
	return nil
}

// judge asserts retained-record identity — archive commits a manifest and
// deletes whole files; it must never rewrite a surviving record, so every
// durable record equals the capture at its LSN — and expects the oracle
// over the capture prefix up to the durable head: the archived records
// plus the surviving suffix.
func (t *rotationTarget) judge(b *boundary) (verdict, error) {
	durableHead := b.base[0]
	for _, rec := range b.durable[0] {
		if rec.LSN < 1 || int(rec.LSN) > len(t.fullRecs) {
			return verdict{}, fmt.Errorf("durable record at LSN %d outside the captured trace (len %d)", rec.LSN, len(t.fullRecs))
		}
		if same, err := sameBytes(rec, t.fullRecs[rec.LSN-1]); err != nil {
			return verdict{}, err
		} else if !same {
			return verdict{}, fmt.Errorf("durable record at LSN %d diverges from the capture", rec.LSN)
		}
		if rec.LSN > durableHead {
			durableHead = rec.LSN
		}
	}
	if int(durableHead) > len(t.fullRecs) {
		return verdict{}, fmt.Errorf("durable head %d beyond captured trace (len %d)", durableHead, len(t.fullRecs))
	}
	prefix := t.fullRecs[:durableHead]
	return verdict{expect: [][]*wal.Record{prefix}, began: durableTxns(prefix)}, nil
}
