package torture

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"ariesrh/internal/core"
	"ariesrh/internal/fault"
	"ariesrh/internal/obs"
	"ariesrh/internal/wal"
)

// sweep is one crash sweep as a value: the few things that differ
// between the six.  Everything else — the probe, crash-point
// enumeration, the fault plan, the fan-out, the init-time-crash settle,
// the crash itself, the oracle, the undo-order and lock-table
// invariants, the hang deadline, the state comparison and the tally —
// is (*sweep).run's, written once and applied to all of them.
type sweep struct {
	// name and seed prefix every failure: "torture: <name> seed S
	// boundary K".
	name string
	seed int64
	// maxBoundaries caps the crash points swept (0 = all); tornEvery
	// tears the armed device's unsynced tail at every tornEvery-th sync.
	maxBoundaries int
	tornEvery     int
	// objects and counters size the judged object space: values
	// 1..objects, counters objects+1..objects+counters.
	objects, counters int
	// devices is the number of fault.Dirs a run spans (one per shard);
	// exactly one of them is armed per crash point.  syncDelay is
	// injected before every sync of every device.
	devices   int
	syncDelay time.Duration
	// healed replaces the crash points by failed-then-healed forces at
	// every healEvery-th sync (see point).
	healed bool
	// open brings the target up over dirs.  A crash signal means the
	// armed device froze inside a log's bootstrap.
	open func(dirs []*fault.Dir) (target, error)
}

// healEvery samples the syncs a healed sweep fails: every healEvery-th
// of each device.
const healEvery = 8

// target is what a sweep crashes: one engine, a primary+replica pair, a
// shard cluster.
type target interface {
	// engines returns every engine of the target.  Engine i, for i below
	// the device count, is the one that comes back holding device i's
	// log (for the replica pair: its shipped copy) and is judged against
	// oracle i; objects are homed by shardModRouter.  Engines past that
	// (a primary that is lost for good) only answer for their lock table.
	engines() []*core.Engine
	// workload drives the target until the armed device freezes or the
	// work runs out; the crash schedule surfacing is not an error.
	workload(ctx context.Context) error
	// judge checks the sweep's own invariants over the durable bytes in
	// b and says what the expected state is the oracle of.
	judge(b *boundary) (verdict, error)
	// comeBack is the way back from the crash: recovery, or promotion.
	comeBack(b *boundary) error
	close() error
}

// verdict is a target's reading of a post-crash image.
type verdict struct {
	// expect[i] is the record sequence engine i's expected state is the
	// log oracle's replay of.
	expect [][]*wal.Record
	// committed is the set of global ids the durable logs decide
	// committed; prepared branches of any other gid are losers.
	committed map[uint64]bool
	// began is the number of transactions losers are counted out of.
	began int
}

// tally is what a boundary counts and a sweep sums; each exported
// Result picks the fields it reports.
type tally struct {
	boundaries, crashes, fired, torn int
	records, winners, losers         int
	undoVisits                       int
	ambiguous, unshipped, violations int
	globalCommits, indoubtResolved   int
	readOnlyAcks, readOnlyDeferred   int
}

func (t *tally) add(o tally) {
	t.crashes += o.crashes
	t.fired += o.fired
	t.torn += o.torn
	t.records += o.records
	t.winners += o.winners
	t.losers += o.losers
	t.undoVisits += o.undoVisits
	t.ambiguous += o.ambiguous
	t.unshipped += o.unshipped
	t.violations += o.violations
	t.globalCommits += o.globalCommits
	t.indoubtResolved += o.indoubtResolved
	t.readOnlyAcks += o.readOnlyAcks
	t.readOnlyDeferred += o.readOnlyDeferred
}

// point is one crash point: device dev frozen after its k-th sync — or,
// with heal, failing sync attempts k through k+wal.FlushAttempts-1, one
// whole force, and then working again, the crash coming after the
// workload.  The zero point arms nothing (the probe).
type point struct {
	dev  int
	k    uint64
	heal bool
}

// boundary is one crash point's run: the devices, what survived on
// them, the expectation built from that, and the counts.
type boundary struct {
	s    *sweep
	dirs []*fault.Dir
	// base[i] and durable[i] are device i's post-crash image as
	// wal.ReadDurable decodes it: manifest selection, per-segment frames,
	// stopping cleanly at the torn tail — exactly recovery's analysis
	// scan.
	base    []wal.LSN
	durable [][]*wal.Record
	engines []*core.Engine
	oracles []*logOracle
	tally
}

// hangDeadline bounds one boundary's workload and its way back.  It is
// not an assertion about speed — a boundary takes milliseconds — it
// turns a wedge (a lock wait has no deadline of its own) into a named
// failure instead of the package timeout.
const hangDeadline = 30 * time.Second

// guard runs f under deadline d.  On expiry it reports, for every
// engine, the two readings that diagnosed every wedge so far — lock
// holders the transaction table no longer knows, and health — plus the
// log positions; f's goroutine is abandoned (ctx tells it to stop if it
// is able to listen).
func guard(d time.Duration, phase string, engines []*core.Engine, f func(ctx context.Context) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- f(ctx) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		var sb strings.Builder
		fmt.Fprintf(&sb, "%s hung past the %v deadline", phase, d)
		for i, e := range engines {
			h := e.Health()
			fmt.Fprintf(&sb, "; engine %d: LockOrphans %v, Health %v (%v), log head %d flushed %d",
				i, e.LockOrphans(), h.State, h.Err, e.Log().Head(), e.Log().FlushedLSN())
		}
		return errors.New(sb.String())
	}
}

// lockOrphans asserts held ⊆ transaction table on every engine of the
// quiescent target: a lock still held by a transaction the table no
// longer knows would block its object until the next restart.
func lockOrphans(engines []*core.Engine, after string) error {
	for i, e := range engines {
		if orphans := e.LockOrphans(); len(orphans) > 0 {
			return fmt.Errorf("after %s: engine %d's lock table names terminated transactions %v", after, i, orphans)
		}
	}
	return nil
}

// undoLog records one engine's recovery backward pass: its undo.visit
// events up to recovery.complete.  (Cluster recovery then rolls
// presumed-abort branches back through the normal abort path, which
// emits the same event; those are separate sweeps, not the backward
// pass.)
type undoLog struct {
	mu       sync.Mutex
	visits   []wal.LSN
	complete bool
}

func (u *undoLog) hook(ev obs.Event) {
	u.mu.Lock()
	defer u.mu.Unlock()
	switch {
	case ev.Name == "recovery.complete":
		u.complete = true
	case ev.Name == "undo.visit" && !u.complete:
		u.visits = append(u.visits, wal.LSN(ev.LSN))
	}
}

// check enforces the log-level invariant: the backward pass is one
// monotone sweep — strictly decreasing LSNs, no record visited twice.
func (u *undoLog) check() (int, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	seen := make(map[wal.LSN]bool, len(u.visits))
	for i, lsn := range u.visits {
		if seen[lsn] {
			return 0, fmt.Errorf("undo visited LSN %d twice", lsn)
		}
		seen[lsn] = true
		if i > 0 && lsn >= u.visits[i-1] {
			return 0, fmt.Errorf("undo visits not strictly decreasing: %d then %d", u.visits[i-1], lsn)
		}
	}
	return len(u.visits), nil
}

// run executes the sweep: a fault-free probe run counts each device's
// syncs, then the workload is re-run once per crash point with that
// device frozen after that sync.  Crash points are independent (fresh
// target, fresh devices) and swept concurrently; the first failure wins
// and stops the sweep.  The probe's target is returned for sweeps that
// report what the fault-free run did.
func (s *sweep) run() (tally, target, error) {
	var total tally
	dirs := s.newDevices(point{})
	probed, err := s.open(dirs)
	if err != nil {
		return total, nil, fmt.Errorf("torture: %s probe open: %w", s.name, err)
	}
	if err := runWorkload(probed.engines(), probed); err != nil {
		return total, nil, fmt.Errorf("torture: %s probe: %w", s.name, err)
	}

	// Enumerate (device, k) boundary-first, so a capped sweep still
	// crashes every device's early syncs — and before the probe is
	// closed: closing flushes, and those syncs are not the workload's.
	var pts []point
	for k, more := uint64(1), true; more; k++ {
		more = false
		for dev, d := range dirs {
			if k <= d.Syncs() {
				pts = append(pts, point{dev: dev, k: k})
				more = true
			}
		}
	}
	if err := probed.close(); err != nil {
		return total, nil, fmt.Errorf("torture: %s probe close: %w", s.name, err)
	}
	total.boundaries = len(pts)
	if s.healed {
		var healed []point
		for _, p := range pts {
			if p.k%healEvery == 0 {
				p.heal = true
				healed = append(healed, p)
			}
		}
		pts = healed
	}
	if s.maxBoundaries > 0 && len(pts) > s.maxBoundaries {
		pts = pts[:s.maxBoundaries]
	}

	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, p := range pts {
		sem <- struct{}{}
		mu.Lock()
		failed := firstErr != nil
		mu.Unlock()
		if failed {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			t, err := s.runBoundary(p)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("torture: %s seed %d boundary %d (device %d): %w", s.name, s.seed, p.k, p.dev, err)
				}
				return
			}
			t.crashes = 1
			total.add(t)
		}()
	}
	wg.Wait()
	return total, probed, firstErr
}

// newDevices builds one run's devices with p's armed (none, for the
// zero point).
func (s *sweep) newDevices(p point) []*fault.Dir {
	dirs := make([]*fault.Dir, s.devices)
	for i := range dirs {
		plan := fault.Plan{SyncDelay: s.syncDelay, DelayEveryNthSync: 1}
		if i == p.dev && p.k > 0 {
			crashAt, failFrom, failCount := p.k, uint64(0), uint64(0)
			if p.heal {
				crashAt, failFrom, failCount = 0, p.k, wal.FlushAttempts
			}
			plan = fault.Plan{
				// Decorrelate the torn-tail length choice across crash
				// points while keeping each individually reproducible.
				Seed:              s.seed ^ int64(uint64(p.dev)<<32) ^ int64(p.k*0x9E3779B97F4A7C15),
				CrashAtSync:       crashAt,
				FailSyncsFrom:     failFrom,
				FailSyncsCount:    failCount,
				TornTail:          s.tornEvery > 0 && p.k%uint64(s.tornEvery) == 0,
				SyncDelay:         s.syncDelay,
				DelayEveryNthSync: 1,
			}
		}
		dirs[i] = fault.NewDir(plan)
	}
	return dirs
}

// runWorkload runs tg's workload under the hang deadline and then, with
// every worker returned and so every grant claimed or dropped, reads the
// lock table.
func runWorkload(engines []*core.Engine, tg target) error {
	if err := guard(hangDeadline, "workload", engines, tg.workload); err != nil {
		return err
	}
	return lockOrphans(engines, "workload")
}

// runBoundary crashes a fresh target at p and judges the outcome from
// what is actually on the devices: post-crash state is a function of the
// durable bytes alone.
func (s *sweep) runBoundary(p point) (tally, error) {
	b := &boundary{s: s, dirs: s.newDevices(p)}
	tg, err := s.open(b.dirs)
	if err != nil && !isCrashSignal(err) {
		return b.tally, err
	}
	booted := err == nil
	if booted {
		b.engines = tg.engines()
		if err := runWorkload(b.engines, tg); err != nil {
			return b.tally, err
		}
	}

	// Materialize the crash on every device: the armed one rewinds to its
	// frozen boundary plus the plan's torn tail, the others simply lose
	// their unsynced bytes.
	if d := b.dirs[p.dev]; d.Frozen() || d.InjectedErrors() > 0 {
		b.fired = 1
	}
	b.base = make([]wal.LSN, len(b.dirs))
	b.durable = make([][]*wal.Record, len(b.dirs))
	for i, d := range b.dirs {
		tornBytes, err := d.CrashNow()
		if err != nil {
			return b.tally, err
		}
		if tornBytes > 0 {
			b.torn = 1
		}
		if b.base[i], b.durable[i], err = wal.ReadDurable(d.StableDir()); err != nil {
			return b.tally, fmt.Errorf("decode device %d's durable log: %w", i, err)
		}
		b.records += len(b.durable[i])
	}
	if !booted {
		return b.tally, b.settleInitCrash()
	}

	// Expected state: the records the target vouches for, through the log
	// oracle, prepared branches settled by the durable decisions, whatever
	// is still attributable to a loser undone.
	v, err := tg.judge(b)
	if err != nil {
		return b.tally, err
	}
	b.oracles = make([]*logOracle, len(v.expect))
	for i, recs := range v.expect {
		b.oracles[i] = newLogOracle()
		for _, rec := range recs {
			if err := b.oracles[i].apply(rec); err != nil {
				return b.tally, fmt.Errorf("device %d: %w", i, err)
			}
		}
		b.oracles[i].settle(v.committed)
		b.winners += len(durableWinners(recs))
	}
	b.losers = v.began - b.winners

	// Come back, capturing each returning engine's undo visit stream.
	undo := make([]undoLog, len(b.oracles))
	for i := range undo {
		b.engines[i].SetEventHook(undo[i].hook)
	}
	err = guard(hangDeadline, "recovery", b.engines, func(context.Context) error { return tg.comeBack(b) })
	for i := range undo {
		b.engines[i].SetEventHook(nil)
	}
	if err != nil {
		return b.tally, fmt.Errorf("recovery: %w", err)
	}
	for i := range undo {
		n, err := undo[i].check()
		if err != nil {
			return b.tally, fmt.Errorf("engine %d: %w", i, err)
		}
		b.undoVisits += n
	}
	if err := lockOrphans(b.engines, "recovery"); err != nil {
		return b.tally, err
	}
	for obj := 1; obj <= s.objects+s.counters; obj++ {
		if err := b.checkObject("after recovery", obj); err != nil {
			return b.tally, err
		}
	}
	return b.tally, tg.close()
}

// settleInitCrash settles a boundary that fired inside log
// initialization: the segmented log takes its own syncs to come up (the
// first segment header, then manifest generation 1), so the earliest
// boundaries freeze the device before the target ever exists.  The crash
// contract is the same as at any other point — the durable image (a
// partial bootstrap: possibly a segment header with no manifest) must
// decode to zero records, and a fresh target opened over it must come up
// empty.
func (b *boundary) settleInitCrash() error {
	for i, recs := range b.durable {
		if len(recs) != 0 {
			return fmt.Errorf("init-time crash left %d durable records on device %d, want 0", len(recs), i)
		}
	}
	tg, err := b.s.open(b.dirs)
	if err != nil {
		return fmt.Errorf("reopen after init-time crash: %w", err)
	}
	for i, e := range tg.engines() {
		if got, _, err := e.ReadObject(1); err != nil {
			return err
		} else if len(got) != 0 {
			return fmt.Errorf("engine %d: object 1 = %q after init-time crash, want empty", i, got)
		}
	}
	return tg.close()
}

// checkObject compares obj's home engine against its oracle.  Valid once
// comeBack has issued the recovery call: an engine still running its
// pipeline must already answer with the fully recovered value.
func (b *boundary) checkObject(phase string, obj int) error {
	id := wal.ObjectID(obj)
	home := shardModRouter{}.Route(id, len(b.oracles))
	eng, oracle := b.engines[home], b.oracles[home]
	if obj > b.s.objects {
		got, err := eng.CounterValue(id)
		if err != nil {
			return fmt.Errorf("%s: read counter %d: %w", phase, obj, err)
		}
		if want := oracle.counters[id]; got != want {
			return fmt.Errorf("%s: counter %d (engine %d): engine %d, oracle %d", phase, obj, home, got, want)
		}
		return nil
	}
	got, _, err := eng.ReadObject(id)
	if err != nil {
		return fmt.Errorf("%s: read object %d: %w", phase, obj, err)
	}
	if want := oracle.values[id]; string(got) != string(want) {
		return fmt.Errorf("%s: object %d (engine %d): engine %q, oracle %q", phase, obj, home, got, want)
	}
	return nil
}

// single is the one-engine target the five single-log sweeps build on:
// the durable image is the expectation, losers are counted out of the
// transactions it names, and the way back is Crash + Recover.
type single struct{ eng *core.Engine }

func (t single) engines() []*core.Engine { return []*core.Engine{t.eng} }

func (t single) judge(b *boundary) (verdict, error) {
	return verdict{expect: b.durable, began: durableTxns(b.durable[0])}, nil
}

func (t single) comeBack(*boundary) error {
	if err := t.eng.Crash(); err != nil {
		return err
	}
	return t.eng.Recover()
}

func (t single) close() error { return nil }
