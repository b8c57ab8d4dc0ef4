package shard

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"ariesrh/internal/core"
	"ariesrh/internal/fault"
	"ariesrh/internal/wal"
)

// modRouter routes obj to shard obj % n — deterministic object
// placement for tests (object k lives on shard k%n).
type modRouter struct{}

func (modRouter) Route(obj wal.ObjectID, n int) uint32 { return uint32(uint64(obj) % uint64(n)) }

func openTest(t *testing.T, shards int) *DB {
	t.Helper()
	db, err := Open(Options{
		Shards: shards,
		Router: modRouter{},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func mustRead(t *testing.T, db *DB, obj wal.ObjectID) string {
	t.Helper()
	v, ok, err := db.ReadCommitted(obj)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		return ""
	}
	return string(v)
}

// TestSingleShardFastPath pins that a transaction touching one shard
// commits through the ordinary engine path: no prepare records, the
// router counts it as single-shard.
func TestSingleShardFastPath(t *testing.T) {
	db := openTest(t, 4)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// Objects 4 and 8 both live on shard 0 under modRouter.
	if err := tx.Update(4, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(8, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if got := m.Counter("router.single_shard_commits"); got != 1 {
		t.Fatalf("single_shard_commits = %d, want 1", got)
	}
	if got := m.Counter("twopc.prepares"); got != 0 {
		t.Fatalf("twopc.prepares = %d, want 0 on the fast path", got)
	}
	if v := mustRead(t, db, 4); v != "a" {
		t.Fatalf("obj 4 = %q", v)
	}
}

// TestReadOnlyParticipantsSkipPrepare pins the read-only optimization:
// a transaction that reads on one shard and writes on another commits
// through the fast path (the read-only branch commits without a vote,
// releasing its locks).
func TestReadOnlyParticipantsSkipPrepare(t *testing.T) {
	db := openTest(t, 2)
	seed, _ := db.Begin()
	seed.Update(1, []byte("s1")) // shard 1
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	if _, err := tx.Read(1); err != nil { // shard 1, read-only
		t.Fatal(err)
	}
	if err := tx.Update(2, []byte("w")); err != nil { // shard 0
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if got := m.Counter("twopc.prepares"); got != 0 {
		t.Fatalf("twopc.prepares = %d, want 0 (read-only branch must not vote)", got)
	}
	if got := m.Counter("router.single_shard_commits"); got != 2 {
		t.Fatalf("single_shard_commits = %d, want 2", got)
	}
	// The read lock on shard 1 was released: a writer proceeds.
	w, _ := db.Begin()
	if err := w.Update(1, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}

// gatedDir is a fault.Dir whose device Syncs can be held: while armed,
// each Sync signals entered and blocks until gate is closed, then runs
// the directory's own fault schedule (SetFailAllSyncs makes it fail).
type gatedDir struct {
	*fault.Dir
	mu      sync.Mutex
	armed   bool
	gate    chan struct{}
	entered chan struct{}
}

func newGatedDir() *gatedDir {
	return &gatedDir{
		Dir:     fault.NewDir(fault.Plan{}),
		gate:    make(chan struct{}),
		entered: make(chan struct{}, 16),
	}
}

func (d *gatedDir) setArmed(on bool) { d.mu.Lock(); d.armed = on; d.mu.Unlock() }

func (d *gatedDir) Open(name string) (wal.Store, error) {
	dev, err := d.Dir.Open(name)
	if err != nil {
		return nil, err
	}
	return &gatedDev{Store: dev, dir: d}, nil
}

type gatedDev struct {
	wal.Store
	dir *gatedDir
}

func (g *gatedDev) Sync() error {
	d := g.dir
	d.mu.Lock()
	armed := d.armed
	d.mu.Unlock()
	if armed {
		d.entered <- struct{}{}
		<-d.gate
	}
	return g.Store.Sync()
}

// TestELRReadOnlyBranchWaitsForPredecessor: under early lock release a
// global transaction reads, on shard 1, a value whose writer's commit
// record is held at shard 1's device.  Its read-only branch logs
// nothing there, so nothing of its own makes that read durable: the
// global Commit must not return before the writer's commit record is
// durable, and must return ErrInDoubt — aborting any branch it wrote
// on shard 0 — when that flush fails.  Either way the
// read-only branch appends nothing to shard 1's log.
func TestELRReadOnlyBranchWaitsForPredecessor(t *testing.T) {
	for _, writesOther := range []bool{false, true} {
		for _, fail := range []bool{false, true} {
			name := fmt.Sprintf("writesOther=%v/fail=%v", writesOther, fail)
			dirs := []*gatedDir{newGatedDir(), newGatedDir()}
			db, err := Open(Options{
				Shards:           2,
				Router:           modRouter{},
				LogDirs:          []wal.Dir{dirs[0], dirs[1]},
				EarlyLockRelease: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			eng1 := db.Engine(1)

			w, _ := db.Begin()
			if err := w.Update(1, []byte("pre-durable")); err != nil { // shard 1
				t.Fatal(err)
			}
			dirs[1].setArmed(true)
			cw := make(chan error, 1)
			go func() { cw <- w.Commit() }()
			<-dirs[1].entered // w's commit record is held at shard 1's device
			commitLSN := eng1.Log().Head()

			r, _ := db.Begin()
			if v, err := r.Read(1); err != nil || string(v) != "pre-durable" {
				t.Fatalf("%s: read of the early-released value = %q, %v", name, v, err)
			}
			if writesOther {
				if err := r.Update(2, []byte("r-wrote")); err != nil { // shard 0
					t.Fatal(err)
				}
			}
			rl, _ := r.Local(1)
			type ack struct {
				err     error
				flushed wal.LSN
			}
			cr := make(chan ack, 1)
			go func() {
				err := r.Commit()
				cr <- ack{err, eng1.Log().FlushedLSN()}
			}()
			// Hold the device until the read-only branch has left Active
			// (parked in its wait) or the global Commit has returned.
			var got *ack
			for got == nil {
				select {
				case a := <-cr:
					got = &a
					continue
				default:
				}
				if _, err := eng1.Read(rl, 1); errors.Is(err, core.ErrNoSuchTxn) {
					break
				}
				runtime.Gosched()
			}
			if fail {
				dirs[1].SetFailAllSyncs(true)
			}
			dirs[1].setArmed(false)
			close(dirs[1].gate)
			errW := <-cw
			if got == nil {
				a := <-cr
				got = &a
			}
			if fail {
				if !errors.Is(errW, ErrInDoubt) || !errors.Is(got.err, ErrInDoubt) {
					t.Fatalf("%s: flush failed: writer %v, reader %v; want ErrInDoubt for both", name, errW, got.err)
				}
				if !r.Done() {
					t.Fatalf("%s: reader's handle still live after ErrInDoubt", name)
				}
				if v := mustRead(t, db, 2); v != "" {
					t.Fatalf("%s: obj 2 = %q after the reader aborted, want it rolled back", name, v)
				}
			} else {
				if errW != nil || got.err != nil {
					t.Fatalf("%s: writer %v, reader %v; want both nil", name, errW, got.err)
				}
				if got.flushed < commitLSN {
					t.Fatalf("%s: reader acknowledged with shard 1 durable through %d, below its predecessor's commit record at %d", name, got.flushed, commitLSN)
				}
			}
			if err := eng1.Log().Scan(1, wal.NilLSN, func(rec *wal.Record) (bool, error) {
				if rec.TxID == rl {
					return false, fmt.Errorf("%s: read-only branch t%d appended a %v record at %d", name, rl, rec.Type, rec.LSN)
				}
				return true, nil
			}); err != nil {
				t.Fatal(err)
			}
			db.Close()
		}
	}
}

// TestCrossShardCommitSurvivesCrash is the basic 2PC happy path: a
// two-shard transaction commits, the cluster crashes, and recovery
// keeps both branches' effects.
func TestCrossShardCommitSurvivesCrash(t *testing.T) {
	db := openTest(t, 2)
	tx, _ := db.Begin()
	if err := tx.Update(10, []byte("even")); err != nil { // shard 0 (coordinator)
		t.Fatal(err)
	}
	if err := tx.Update(11, []byte("odd")); err != nil { // shard 1
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if got := m.Counter("router.cross_shard_commits"); got != 1 {
		t.Fatalf("cross_shard_commits = %d, want 1", got)
	}
	// Coordinator + one participant each voted.
	if got := m.Counter("twopc.prepares"); got != 2 {
		t.Fatalf("twopc.prepares = %d, want 2", got)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	if v := mustRead(t, db, 10); v != "even" {
		t.Fatalf("obj 10 = %q after crash", v)
	}
	if v := mustRead(t, db, 11); v != "odd" {
		t.Fatalf("obj 11 = %q after crash", v)
	}
}

// TestGlobalAbortRollsBackAllShards: a user abort of a multi-shard
// transaction undoes every branch.
func TestGlobalAbortRollsBackAllShards(t *testing.T) {
	db := openTest(t, 2)
	tx, _ := db.Begin()
	tx.Update(20, []byte("x"))
	tx.Update(21, []byte("y"))
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if v := mustRead(t, db, 20); v != "" {
		t.Fatalf("obj 20 = %q after global abort", v)
	}
	if v := mustRead(t, db, 21); v != "" {
		t.Fatalf("obj 21 = %q after global abort", v)
	}
}

// TestPresumedAbortAfterCrash drives phase 1 by hand: a participant's
// vote is durable but no decision is, the cluster crashes, and sharded
// recovery resolves the in-doubt branch by presumed abort — both
// branches rolled back.
func TestPresumedAbortAfterCrash(t *testing.T) {
	db := openTest(t, 2)
	tx, _ := db.Begin()
	tx.Update(30, []byte("c")) // shard 0 = coordinator
	tx.Update(31, []byte("p")) // shard 1 = participant
	p, ok := tx.Local(1)
	if !ok {
		t.Fatal("no local txn on shard 1")
	}
	// Participant votes; coordinator never decides.
	if err := db.Engine(1).Prepare(p, tx.GID(), 0); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	if v := mustRead(t, db, 30); v != "" {
		t.Fatalf("coordinator branch survived: obj 30 = %q", v)
	}
	if v := mustRead(t, db, 31); v != "" {
		t.Fatalf("prepared branch survived presumed abort: obj 31 = %q", v)
	}
	if got := db.Metrics().Counter("router.indoubt_resolved"); got != 1 {
		t.Fatalf("indoubt_resolved = %d, want 1", got)
	}
	if got := db.Metrics().Counter("twopc.indoubt_aborted"); got != 1 {
		t.Fatalf("twopc.indoubt_aborted = %d, want 1", got)
	}
}

// TestInDoubtCommitResolvedFromCoordinator drives the window between
// the decision force and phase 2: the participant is prepared, the
// coordinator's commit decision is durable, the cluster crashes before
// the participant learns the outcome.  Recovery must commit the
// participant's branch from the coordinator's retained decision.
func TestInDoubtCommitResolvedFromCoordinator(t *testing.T) {
	db := openTest(t, 2)
	tx, _ := db.Begin()
	tx.Update(40, []byte("c")) // shard 0 = coordinator
	tx.Update(41, []byte("p")) // shard 1 = participant
	c, _ := tx.Local(0)
	p, _ := tx.Local(1)
	gid := tx.GID()
	if err := db.Engine(1).Prepare(p, gid, 0); err != nil {
		t.Fatal(err)
	}
	if err := db.Engine(0).Prepare(c, gid, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Engine(0).CommitPrepared(c); err != nil {
		t.Fatal(err)
	}
	// Crash before phase 2 reaches the participant.
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	if v := mustRead(t, db, 40); v != "c" {
		t.Fatalf("coordinator branch lost: obj 40 = %q", v)
	}
	if v := mustRead(t, db, 41); v != "p" {
		t.Fatalf("participant branch lost the committed decision: obj 41 = %q", v)
	}
	if got := db.Metrics().Counter("twopc.indoubt_committed"); got != 1 {
		t.Fatalf("twopc.indoubt_committed = %d, want 1", got)
	}
	// Resolution released the retained decision everywhere.
	if db.Engine(0).GlobalDecision(gid) {
		t.Fatal("decision still retained after full resolution")
	}
}

// TestCrossShardDelegation is the headline primitive: responsibility
// for an update moves to a global transaction coordinated on another
// shard; the delegator's abort no longer touches it, the delegatee's
// commit makes it permanent, and the whole history survives a crash.
func TestCrossShardDelegation(t *testing.T) {
	db := openTest(t, 2)
	t1, _ := db.Begin()
	if err := t1.Update(50, []byte("anchor-t1")); err != nil { // shard 0: t1 coordinates there
		t.Fatal(err)
	}
	if err := t1.Update(51, []byte("delegated")); err != nil { // shard 1
		t.Fatal(err)
	}
	t2, _ := db.Begin()
	if err := t2.Update(52, []byte("anchor-t2")); err != nil { // shard 0: t2 coordinates there
		t.Fatal(err)
	}
	// Move responsibility for object 51 (home shard 1) to t2, whose
	// coordinator is shard 0 → delegate-out on shard 1, delegate-in on
	// shard 0.
	if err := t1.Delegate(t2, 51); err != nil {
		t.Fatal(err)
	}
	if got := db.Metrics().Counter("router.cross_delegations"); got != 1 {
		t.Fatalf("cross_delegations = %d, want 1", got)
	}
	// The delegator aborts: its own update dies, the delegated one is
	// now t2's responsibility and survives.
	if err := t1.Abort(); err != nil {
		t.Fatal(err)
	}
	if v := mustRead(t, db, 50); v != "" {
		t.Fatalf("t1's own update survived its abort: obj 50 = %q", v)
	}
	// t2 commits cross-shard (wrote on shard 0; responsible on shard 1
	// via the delegation).
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if v := mustRead(t, db, 51); v != "delegated" {
		t.Fatalf("delegated update lost: obj 51 = %q", v)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	if v := mustRead(t, db, 51); v != "delegated" {
		t.Fatalf("delegated update lost across crash: obj 51 = %q", v)
	}
	if v := mustRead(t, db, 52); v != "anchor-t2" {
		t.Fatalf("obj 52 = %q", v)
	}
}

// TestCrossShardDelegationAbortUndoesLocally: the delegatee's abort
// (or a crash before it commits) obliterates the delegated update via
// the home shard's own backward pass — no cross-shard undo exists.
func TestCrossShardDelegationAbortUndoesLocally(t *testing.T) {
	for _, crash := range []bool{false, true} {
		db := openTest(t, 2)
		t1, _ := db.Begin()
		t1.Update(60, []byte("anchor"))    // shard 0
		t1.Update(61, []byte("tentative")) // shard 1
		t2, _ := db.Begin()
		t2.Update(62, []byte("t2")) // shard 0: coordinator
		if err := t1.Delegate(t2, 61); err != nil {
			t.Fatal(err)
		}
		if err := t1.Abort(); err != nil {
			t.Fatal(err)
		}
		if crash {
			if err := db.Crash(); err != nil {
				t.Fatal(err)
			}
			if err := db.Recover(); err != nil {
				t.Fatal(err)
			}
		} else if err := t2.Abort(); err != nil {
			t.Fatal(err)
		}
		if v := mustRead(t, db, 61); v != "" {
			t.Fatalf("crash=%v: delegated update survived delegatee's demise: obj 61 = %q", crash, v)
		}
	}
}

// TestDelegationToSameShardStaysLocal: when the delegatee coordinates
// on the object's own home shard, Delegate degenerates to the plain
// local primitive — no cross-shard records.
func TestDelegationToSameShardStaysLocal(t *testing.T) {
	db := openTest(t, 2)
	t1, _ := db.Begin()
	t1.Update(71, []byte("v")) // shard 1; t1 coordinates on shard 1
	t2, _ := db.Begin()
	if err := t1.Delegate(t2, 71); err != nil { // t2's first touch: shard 1 → local
		t.Fatal(err)
	}
	if got := db.Metrics().Counter("router.cross_delegations"); got != 0 {
		t.Fatalf("cross_delegations = %d, want 0 for a same-shard delegation", got)
	}
	if got := db.Metrics().Counter("twopc.delegate_out"); got != 0 {
		t.Fatalf("twopc.delegate_out = %d, want 0", got)
	}
	if err := t1.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if v := mustRead(t, db, 71); v != "v" {
		t.Fatalf("obj 71 = %q", v)
	}
}

// TestDecisionForceFailureLeavesInDoubt is the failed-decision
// regression: when the coordinator's decision force fails, the commit
// record may or may not be durable, so Commit must not abort ANY
// branch — a durable participant abort could contradict a durable
// commit decision.  Instead every branch stays prepared (ErrInDoubt)
// and the next Recover settles them all from the coordinator's durable
// log — here by presumed abort, since the frozen device never got the
// record.  The coordinator's prepare record rode the failed decision
// force, so its branch comes back a plain loser and only the
// participant's is resolved.
func TestDecisionForceFailureLeavesInDoubt(t *testing.T) {
	// The scenario, identical across both runs: a two-shard transaction,
	// shard 0 coordinating.  Nothing else runs, so no force shares a
	// flush round and shard 0's last sync is the decision force.
	run := func(dirs []wal.Dir) (*DB, error) {
		db, err := Open(Options{Shards: 2, LogDirs: dirs, Router: modRouter{}})
		if err != nil {
			t.Fatal(err)
		}
		tx, _ := db.Begin()
		if err := tx.Update(130, []byte("c")); err != nil { // shard 0 = coordinator
			t.Fatal(err)
		}
		if err := tx.Update(131, []byte("p")); err != nil { // shard 1
			t.Fatal(err)
		}
		return db, tx.Commit()
	}

	// Probe: count shard 0's syncs over a clean run of the scenario.
	probe := fault.NewDir(fault.Plan{})
	db, err := run([]wal.Dir{probe, fault.NewDir(fault.Plan{})})
	if err != nil {
		t.Fatalf("probe commit: %v", err)
	}
	syncs := probe.Syncs()
	db.Close()

	// Real run: freeze shard 0's device right before the decision force,
	// which carries the coordinator's prepare record too.
	fds := []*fault.Dir{
		fault.NewDir(fault.Plan{CrashAtSync: syncs - 1}),
		fault.NewDir(fault.Plan{}),
	}
	db, err = run([]wal.Dir{fds[0], fds[1]})
	if !errors.Is(err, ErrInDoubt) {
		t.Fatalf("Commit = %v, want ErrInDoubt", err)
	}
	// Nothing was aborted: both branches are in doubt, locks held.
	if n := len(db.Engine(0).InDoubt()); n != 1 {
		t.Fatalf("coordinator in-doubt count = %d, want 1", n)
	}
	if n := len(db.Engine(1).InDoubt()); n != 1 {
		t.Fatalf("participant in-doubt count = %d, want 1", n)
	}
	if got := db.Metrics().Counter("router.commits_indoubt"); got != 1 {
		t.Fatalf("commits_indoubt = %d, want 1", got)
	}

	// Crash and recover: neither the coordinator's prepare nor its commit
	// record reached the device, so its branch is an ordinary loser, the
	// participant's is presumed aborted, and nothing stays in doubt.
	for _, fd := range fds {
		if _, err := fd.CrashNow(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	if v := mustRead(t, db, 130); v != "" {
		t.Fatalf("coordinator branch survived an undurable decision: obj 130 = %q", v)
	}
	if v := mustRead(t, db, 131); v != "" {
		t.Fatalf("participant branch survived an undurable decision: obj 131 = %q", v)
	}
	if got := db.Metrics().Counter("router.indoubt_resolved"); got != 1 {
		t.Fatalf("indoubt_resolved = %d, want 1 (the participant only)", got)
	}
	if got := db.Metrics().Counter("twopc.indoubt_aborted"); got != 1 {
		t.Fatalf("twopc.indoubt_aborted = %d, want 1", got)
	}
}

// TestDelegateInRidesCommitCoordinator pins where the delegate-in
// record lands: on the delegatee's commit coordinator — its first
// WRITTEN shard — not its first-touched shard.  Here t2 first touches
// shard 0 read-only and first writes on shard 1, so shard 1 is the
// decision log and must carry the delegate-in.
func TestDelegateInRidesCommitCoordinator(t *testing.T) {
	db := openTest(t, 3)
	seed, _ := db.Begin()
	if err := seed.Update(3, []byte("s")); err != nil { // shard 0
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	t1, _ := db.Begin()
	if err := t1.Update(5, []byte("d")); err != nil { // shard 2 (home of the delegation)
		t.Fatal(err)
	}
	t2, _ := db.Begin()
	if _, err := t2.Read(3); err != nil { // shard 0: t2's first touch, read-only
		t.Fatal(err)
	}
	if err := t2.Update(4, []byte("w")); err != nil { // shard 1: first write = coordinator
		t.Fatal(err)
	}
	if err := t1.Delegate(t2, 5); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if got := m.Counter("shard.1.twopc.delegate_in"); got != 1 {
		t.Fatalf("shard.1.twopc.delegate_in = %d, want 1 (the decision log)", got)
	}
	if got := m.Counter("shard.0.twopc.delegate_in"); got != 0 {
		t.Fatalf("shard.0.twopc.delegate_in = %d, want 0 (read-only anchor must not carry it)", got)
	}
	if err := t1.Abort(); err != nil {
		t.Fatal(err)
	}
	gid := t2.GID()
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if v := mustRead(t, db, 5); v != "d" {
		t.Fatalf("delegated update lost: obj 5 = %q", v)
	}
	// The participant's phase-2 commit record is not forced, so the
	// coordinator still retains the decision; a checkpoint forces every
	// log and drains it.  Then no decision is retained anywhere:
	// participants never retain one (each leaked entry would pin that
	// shard's archive forever).
	if !db.Engine(1).GlobalDecision(gid) {
		t.Fatalf("coordinator released gid %d before the participant's commit record was durable", gid)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < db.Shards(); i++ {
		if db.Engine(i).GlobalDecision(gid) {
			t.Fatalf("shard %d still retains the decision for gid %d after a drain", i, gid)
		}
	}
}

// TestGIDCounterReseededAfterRecovery: global ids never repeat across
// a crash — the counter restarts above every id the logs have seen.
func TestGIDCounterReseededAfterRecovery(t *testing.T) {
	db := openTest(t, 2)
	tx, _ := db.Begin()
	tx.Update(80, []byte("a"))
	tx.Update(81, []byte("b"))
	gid := tx.GID()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	next, _ := db.Begin()
	if next.GID() <= gid {
		t.Fatalf("gid %d reused after recovery (previous %d)", next.GID(), gid)
	}
}

// TestMetricsAggregation pins the snapshot contract: per-shard series
// under shard.<i>., base names summed across shards, router series on
// top.
func TestMetricsAggregation(t *testing.T) {
	db := openTest(t, 2)
	a, _ := db.Begin()
	a.Update(90, []byte("s0"))
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	b, _ := db.Begin()
	b.Update(91, []byte("s1"))
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if got := m.Counter("shard.0.core.commits"); got != 1 {
		t.Fatalf("shard.0.core.commits = %d, want 1", got)
	}
	if got := m.Counter("shard.1.core.commits"); got != 1 {
		t.Fatalf("shard.1.core.commits = %d, want 1", got)
	}
	if got := m.Counter("core.commits"); got != 2 {
		t.Fatalf("aggregated core.commits = %d, want 2", got)
	}
	if got := m.Gauge("router.shards"); got != 2 {
		t.Fatalf("router.shards = %d, want 2", got)
	}
	// Histograms merge: per-shard counts sum into the base series.
	base := m.Histogram("core.commit_ns")
	if base.Count != m.Histogram("shard.0.core.commit_ns").Count+m.Histogram("shard.1.core.commit_ns").Count {
		t.Fatal("aggregated commit_ns count is not the sum of the shard series")
	}
}

// TestShardedRecoveryTrace: after a crash and recovery the merged
// trace sums counts across shards.
func TestShardedRecoveryTrace(t *testing.T) {
	db := openTest(t, 2)
	tx, _ := db.Begin()
	tx.Update(100, []byte("a"))
	tx.Update(101, []byte("b"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	tr := db.LastRecoveryTrace()
	if tr.ForwardRecords == 0 {
		t.Fatal("merged trace shows no forward records")
	}
	per := db.RecoveryTraces()
	if len(per) != 2 {
		t.Fatalf("RecoveryTraces returned %d entries", len(per))
	}
	var sum uint64
	for _, p := range per {
		sum += p.ForwardRecords
	}
	if tr.ForwardRecords != sum {
		t.Fatalf("merged ForwardRecords %d != per-shard sum %d", tr.ForwardRecords, sum)
	}
}

// TestFileBackedReopen: a sharded database over real files reopens
// with all committed state, resolving nothing (clean shutdown).
func TestFileBackedReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Shards: 2, Dir: dir, Router: modRouter{}})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	tx.Update(110, []byte("f0"))
	tx.Update(111, []byte("f1"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{Shards: 2, Dir: dir, Router: modRouter{}})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if v := mustRead(t, db2, 110); v != "f0" {
		t.Fatalf("obj 110 = %q after reopen", v)
	}
	if v := mustRead(t, db2, 111); v != "f1" {
		t.Fatalf("obj 111 = %q after reopen", v)
	}
}

// TestParallelRecoverySharded: the instant-restart pipeline per shard
// composes with in-doubt resolution — Recover returns with all shards
// writable and the in-doubt branch settled.
func TestParallelRecoverySharded(t *testing.T) {
	db, err := Open(Options{Shards: 2, Router: modRouter{}, ParallelRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	tx.Update(120, []byte("c"))
	tx.Update(121, []byte("p"))
	c, _ := tx.Local(0)
	p, _ := tx.Local(1)
	if err := db.Engine(1).Prepare(p, tx.GID(), 0); err != nil {
		t.Fatal(err)
	}
	if err := db.Engine(0).Prepare(c, tx.GID(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Engine(0).CommitPrepared(c); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	if v := mustRead(t, db, 121); v != "p" {
		t.Fatalf("obj 121 = %q after parallel sharded recovery", v)
	}
	w, _ := db.Begin()
	if err := w.Update(120, []byte("post")); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestShardWaitRecoveredReportsCause: once a shard's recovery pipeline
// has failed, a late WaitRecovered still names the failing shard and
// carries the pipeline's error together with ErrCrashed.
func TestShardWaitRecoveredReportsCause(t *testing.T) {
	db, err := Open(Options{Shards: 2, Router: modRouter{}, ParallelRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	loser, _ := db.Begin()
	if err := loser.Update(121, []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	e := db.Engine(1)
	if err := e.Log().Flush(e.Log().Head()); err != nil {
		t.Fatal(err)
	}
	e.SetRecoveryFailpoint(1)
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := db.Recover(); !errors.Is(err, core.ErrInjectedRecoveryFailure) {
		t.Fatalf("Recover = %v, want the injected failure", err)
	}
	err = db.WaitRecovered()
	if !errors.Is(err, core.ErrCrashed) || !errors.Is(err, core.ErrInjectedRecoveryFailure) {
		t.Fatalf("late WaitRecovered = %v, want ErrCrashed with the injected failure", err)
	}
}

// TestBadShardConfigs pins Open's validation.
func TestBadShardConfigs(t *testing.T) {
	if _, err := Open(Options{Shards: 0}); err == nil {
		t.Fatal("Shards=0 accepted")
	}
	if _, err := Open(Options{Shards: 2, LogDirs: []wal.Dir{wal.NewMemDir()}}); err == nil {
		t.Fatal("mismatched LogDirs accepted")
	}
}

// TestCrossShardCommitForcesOncePerShard counts device syncs: a
// two-shard write commit forces each shard's log once before it
// returns — the participant's vote, then the coordinator's decision,
// which carries the coordinator's prepare record.  The participant's
// phase-2 commit record waits for that shard's next force.
func TestCrossShardCommitForcesOncePerShard(t *testing.T) {
	fds := []*fault.Dir{fault.NewDir(fault.Plan{}), fault.NewDir(fault.Plan{})}
	db, err := Open(Options{Shards: 2, LogDirs: []wal.Dir{fds[0], fds[1]}, Router: modRouter{}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tx, _ := db.Begin()
	if err := tx.Update(140, []byte("c")); err != nil { // shard 0 = coordinator
		t.Fatal(err)
	}
	if err := tx.Update(141, []byte("p")); err != nil { // shard 1
		t.Fatal(err)
	}
	before := []uint64{fds[0].Syncs(), fds[1].Syncs()}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for i, fd := range fds {
		if n := fd.Syncs() - before[i]; n != 1 {
			t.Errorf("shard %d: the commit cost %d device syncs, want 1", i, n)
		}
	}
}

// TestCrossShardCommitAllocs guards the allocation cost of a serial,
// in-memory two-shard write commit, Begin through Commit: 1 per
// transaction.  The global transaction keeps its branches in one slice
// backed by an inline array; each branch's engine record, with its
// Ob_List and flush waiter, is recycled; before-images are read into a
// reused buffer, and the group-commit leader plans and starts its rounds
// without allocating.  It cost 21 when every branch built its record
// afresh.
func TestCrossShardCommitAllocs(t *testing.T) {
	db := openTest(t, 2)
	val := []byte("value")
	commit := func() {
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Update(150, val); err != nil { // shard 0 = coordinator
			t.Fatal(err)
		}
		if err := tx.Update(151, val); err != nil { // shard 1
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commit() // first touch of the objects and pages
	if n := testing.AllocsPerRun(200, commit); n > 3 {
		t.Fatalf("two-shard commit allocates %.1f per transaction, want <= 3", n)
	}
}

// TestDecisionOutlivesVolatileParticipantCommit is the retention rule's
// regression: the coordinator keeps its decision until the participant's
// phase-2 commit record is durable.  Here that record is still volatile
// when the coordinator checkpoints — which writes its retained decisions
// and moves its recovery start past the decision records — and then the
// cluster crashes, losing the participant's commit.  Recovery brings the
// participant back in doubt and must find the decision in the
// coordinator's checkpoint: both branches survive.
func TestDecisionOutlivesVolatileParticipantCommit(t *testing.T) {
	db := openTest(t, 2)
	tx, _ := db.Begin()
	if err := tx.Update(160, []byte("c")); err != nil { // shard 0 = coordinator
		t.Fatal(err)
	}
	if err := tx.Update(161, []byte("p")); err != nil { // shard 1
		t.Fatal(err)
	}
	p, _ := tx.Local(1)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// The participant's commit record is the last record on shard 1.
	if log := db.Engine(1).Log(); log.FlushedLSN() >= log.Head() {
		t.Fatal("participant commit record already durable; the test needs it volatile")
	}
	if err := db.Engine(0).Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	if v := mustRead(t, db, 160); v != "c" {
		t.Fatalf("coordinator branch lost: obj 160 = %q", v)
	}
	if v := mustRead(t, db, 161); v != "p" {
		t.Fatalf("participant branch t%d presumed aborted under a committed decision: obj 161 = %q", p, v)
	}
	if got := db.Metrics().Counter("twopc.indoubt_committed"); got != 1 {
		t.Fatalf("twopc.indoubt_committed = %d, want 1", got)
	}
}

// TestRetainedDecisionsGauge: twopc.retained_decisions counts the
// decisions a coordinator keeps for its peers — what pins its archive —
// and returns to 0 once a checkpoint has made every phase-2 commit
// record durable.
func TestRetainedDecisionsGauge(t *testing.T) {
	db := openTest(t, 2)
	for i := 0; i < 3; i++ {
		tx, _ := db.Begin()
		obj := wal.ObjectID(170 + 2*i)
		if err := tx.Update(obj, []byte("c")); err != nil { // shard 0 = coordinator
			t.Fatal(err)
		}
		if err := tx.Update(obj+1, []byte("p")); err != nil { // shard 1
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Each commit's vote forces shard 1 through the previous commit's
	// phase-2 record, so only the last decision is still retained.
	m := db.Metrics()
	if got := m.Gauge("shard.0.twopc.retained_decisions"); got != 1 {
		t.Fatalf("shard.0.twopc.retained_decisions = %d, want 1", got)
	}
	if got := m.Gauge("shard.1.twopc.retained_decisions"); got != 0 {
		t.Fatalf("shard.1.twopc.retained_decisions = %d, want 0 (participants retain nothing)", got)
	}
	// A single-shard commit on the participant forces its log through
	// the last phase-2 record, and releases that decision.
	tx, _ := db.Begin()
	if err := tx.Update(181, []byte("s")); err != nil { // shard 1
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := db.Metrics().Gauge("shard.0.twopc.retained_decisions"); got != 0 {
		t.Fatalf("shard.0.twopc.retained_decisions = %d after a participant commit, want 0", got)
	}
	tx, _ = db.Begin()
	if err := tx.Update(182, []byte("c")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(183, []byte("p")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := db.Metrics().Gauge("twopc.retained_decisions"); got != 1 {
		t.Fatalf("twopc.retained_decisions = %d after a cross-shard commit, want 1", got)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := db.Metrics().Gauge("twopc.retained_decisions"); got != 0 {
		t.Fatalf("twopc.retained_decisions = %d after Checkpoint, want 0", got)
	}
}
