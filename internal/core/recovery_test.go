package core

import (
	"fmt"
	"testing"

	"ariesrh/internal/delegation"
	"ariesrh/internal/storage"
	"ariesrh/internal/txn"
	"ariesrh/internal/wal"
)

func crashAndRecover(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryCommittedSurvivesCrash(t *testing.T) {
	e := newEngine(t)
	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 1, "durable")
	mustCommit(t, e, tx)
	crashAndRecover(t, e)
	wantValue(t, e, 1, "durable")
}

func TestRecoveryUncommittedRolledBack(t *testing.T) {
	e := newEngine(t)
	setup := mustBegin(t, e)
	mustUpdate(t, e, setup, 1, "base")
	mustCommit(t, e, setup)

	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 1, "dirty")
	mustUpdate(t, e, tx, 2, "junk")
	// No commit: crash loses the unflushed tail... but the updates may
	// have been flushed by pool pressure; force the worst case by
	// flushing the log explicitly (steal policy).
	if err := e.Log().Flush(e.Log().Head()); err != nil {
		t.Fatal(err)
	}
	crashAndRecover(t, e)
	wantValue(t, e, 1, "base")
	wantValue(t, e, 2, "")
}

func TestRecoveryUnflushedCommittedLost(t *testing.T) {
	// A transaction whose commit record never reached stable storage is
	// a loser: its updates must not survive.
	e := newEngine(t)
	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 1, "phantom")
	// Commit flushes; instead simulate the crash BEFORE commit.
	crashAndRecover(t, e)
	wantValue(t, e, 1, "")
	// The engine accepts new work after recovery.
	tx2 := mustBegin(t, e)
	mustUpdate(t, e, tx2, 1, "fresh")
	mustCommit(t, e, tx2)
	wantValue(t, e, 1, "fresh")
}

// TestRecoveryDelegationWinner is the heart of ARIES/RH: an update whose
// invoking transaction aborted/crashed survives because it was delegated
// to a transaction that committed before the crash.
func TestRecoveryDelegationWinner(t *testing.T) {
	e := newEngine(t)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "delegated")
	mustDelegate(t, e, t1, t2, 1)
	mustCommit(t, e, t2)
	// t1 never commits; crash.
	crashAndRecover(t, e)
	wantValue(t, e, 1, "delegated")
}

// TestRecoveryDelegationLoser: the dual — the invoker committed, but the
// final delegatee is a loser, so the update is obliterated.
func TestRecoveryDelegationLoser(t *testing.T) {
	e := newEngine(t)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "doomed")
	mustDelegate(t, e, t1, t2, 1)
	mustCommit(t, e, t1)
	// t2 active at crash time → loser.
	crashAndRecover(t, e)
	wantValue(t, e, 1, "")
}

func TestRecoveryDelegationChainAcrossCrash(t *testing.T) {
	e := newEngine(t)
	t0 := mustBegin(t, e)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	mustUpdate(t, e, t0, 5, "chained")
	mustUpdate(t, e, t0, 6, "undelegated")
	mustDelegate(t, e, t0, t1, 5)
	mustDelegate(t, e, t1, t2, 5)
	mustCommit(t, e, t2)
	// t0 and t1 are losers.
	crashAndRecover(t, e)
	wantValue(t, e, 5, "chained") // final delegatee committed
	wantValue(t, e, 6, "")        // t0's own update rolled back
}

func TestRecoveryPaperExample2(t *testing.T) {
	// Example 2 with a crash instead of explicit terminations: t1
	// committed (first update survives), t2 active at crash (second
	// update undone), t committed.
	e := newEngine(t)
	tt := mustBegin(t, e)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	const ob = 7
	mustUpdate(t, e, tt, ob, "first")
	mustDelegate(t, e, tt, t1, ob)
	mustUpdate(t, e, tt, ob, "second")
	mustDelegate(t, e, tt, t2, ob)
	mustCommit(t, e, tt)
	mustCommit(t, e, t1)
	crashAndRecover(t, e)
	wantValue(t, e, ob, "first")
}

func TestRecoveryWithCheckpoint(t *testing.T) {
	e := newEngine(t)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "delegated")
	mustDelegate(t, e, t1, t2, 1)
	mustUpdate(t, e, t2, 2, "own")
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustUpdate(t, e, t2, 3, "after-ckpt")
	mustCommit(t, e, t2)
	// t1 is a loser; everything t2 was responsible for must survive,
	// including the delegated update recorded only via the checkpointed
	// scope state.
	crashAndRecover(t, e)
	wantValue(t, e, 1, "delegated")
	wantValue(t, e, 2, "own")
	wantValue(t, e, 3, "after-ckpt")
}

func TestRecoveryCheckpointLoserScopes(t *testing.T) {
	// The loser's delegated-in scopes cross a checkpoint: recovery must
	// undo updates that precede the checkpoint using the checkpointed
	// object lists.
	e := newEngine(t)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "doomed")
	mustDelegate(t, e, t1, t2, 1)
	mustCommit(t, e, t1)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustUpdate(t, e, t2, 2, "also-doomed")
	// Flush so the loser updates are stably logged, then crash.
	if err := e.Log().Flush(e.Log().Head()); err != nil {
		t.Fatal(err)
	}
	crashAndRecover(t, e)
	wantValue(t, e, 1, "")
	wantValue(t, e, 2, "")
}

func TestRecoveryAbortedBeforeCrashStaysRolledBack(t *testing.T) {
	e := newEngine(t)
	setup := mustBegin(t, e)
	mustUpdate(t, e, setup, 1, "base")
	mustCommit(t, e, setup)
	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 1, "junk")
	mustAbort(t, e, tx)
	crashAndRecover(t, e)
	wantValue(t, e, 1, "base")
}

func TestRecoveryCrashDuringRecovery(t *testing.T) {
	// Crash, recover partially (simulated by crashing immediately after
	// recovery completes and once more before), recover again: the CLRs
	// and compensated-set logic must keep undo idempotent.
	e := newEngine(t)
	setup := mustBegin(t, e)
	mustUpdate(t, e, setup, 1, "base")
	mustCommit(t, e, setup)
	tx := mustBegin(t, e)
	mustUpdate(t, e, tx, 1, "dirty")
	if err := e.Log().Flush(e.Log().Head()); err != nil {
		t.Fatal(err)
	}
	crashAndRecover(t, e) // first recovery rolls tx back, writes CLRs
	crashAndRecover(t, e) // second recovery must not double-undo
	crashAndRecover(t, e)
	wantValue(t, e, 1, "base")
}

func TestRecoveryIdempotentRedo(t *testing.T) {
	// Repeated crash/recover cycles leave committed state intact.
	e := newEngine(t)
	tx := mustBegin(t, e)
	for i := 1; i <= 20; i++ {
		mustUpdate(t, e, tx, wal.ObjectID(i%5+1), fmt.Sprintf("v%d", i))
	}
	mustCommit(t, e, tx)
	for i := 0; i < 3; i++ {
		crashAndRecover(t, e)
	}
	wantValue(t, e, 1, "v20")
	wantValue(t, e, 5, "v19")
}

func TestRecoveryReopenFromStores(t *testing.T) {
	// A brand-new engine over the same stable stores (process restart
	// rather than in-process crash) must recover identically.
	logDir := wal.NewMemDir()
	master := wal.NewMemStore()
	disk := storage.NewMemDisk()
	e, err := New(Options{PoolSize: 16, LogDir: logDir, Disk: disk, MasterStore: master})
	if err != nil {
		t.Fatal(err)
	}
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "delegated")
	mustDelegate(t, e, t1, t2, 1)
	mustCommit(t, e, t2)
	mustUpdate(t, e, t1, 2, "loser")
	if err := e.Log().Flush(e.Log().Head()); err != nil {
		t.Fatal(err)
	}
	// "Restart": open a second engine over the same stores.
	e2, err := New(Options{PoolSize: 16, LogDir: logDir, Disk: disk, MasterStore: master})
	if err != nil {
		t.Fatal(err)
	}
	wantValue(t, e2, 1, "delegated")
	wantValue(t, e2, 2, "")
}

func TestRecoveryStatsShape(t *testing.T) {
	e := newEngine(t)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "a")
	mustDelegate(t, e, t1, t2, 1)
	mustCommit(t, e, t2)
	mustUpdate(t, e, t1, 2, "b")
	if err := e.Log().Flush(e.Log().Head()); err != nil {
		t.Fatal(err)
	}
	crashAndRecover(t, e)
	tr := e.LastRecoveryTrace()
	if tr.Winners != 1 || tr.Losers != 1 {
		t.Fatalf("winners=%d losers=%d", tr.Winners, tr.Losers)
	}
	if tr.CLRs != 1 {
		t.Fatalf("recovery CLRs = %d, want 1 (only t1's own update)", tr.CLRs)
	}
	if tr.ForwardRecords == 0 || tr.Redone == 0 {
		t.Fatalf("forward pass counts empty: %+v", tr)
	}
}

func TestCrashRejectsOperationsUntilRecover(t *testing.T) {
	e := newEngine(t)
	tx := mustBegin(t, e)
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Begin(); err != ErrCrashed {
		t.Fatalf("Begin err = %v", err)
	}
	if err := e.Update(tx, 1, []byte("x")); err != ErrCrashed {
		t.Fatalf("Update err = %v", err)
	}
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Begin(); err != nil {
		t.Fatal(err)
	}
	// Recover without a crash is an error.
	if err := e.Recover(); err == nil {
		t.Fatal("double Recover accepted")
	}
}

func TestRecoveryManyObjectsManyTxns(t *testing.T) {
	e := newEngine(t)
	committedVals := map[wal.ObjectID]string{}
	// Interleave 10 committed and 10 crashed transactions over 50 objects.
	for round := 0; round < 10; round++ {
		winner := mustBegin(t, e)
		loser := mustBegin(t, e)
		for i := 0; i < 5; i++ {
			wObj := wal.ObjectID(round*5 + i + 1)
			lObj := wal.ObjectID(round*5 + i + 1 + 500)
			wv := fmt.Sprintf("w%d-%d", round, i)
			mustUpdate(t, e, winner, wObj, wv)
			committedVals[wObj] = wv
			mustUpdate(t, e, loser, lObj, "junk")
		}
		mustCommit(t, e, winner)
		// losers stay active
	}
	if err := e.Log().Flush(e.Log().Head()); err != nil {
		t.Fatal(err)
	}
	crashAndRecover(t, e)
	for obj, want := range committedVals {
		wantValue(t, e, obj, want)
	}
	for obj := wal.ObjectID(501); obj <= 550; obj++ {
		wantValue(t, e, obj, "")
	}
}

func TestRecoverRetryWithoutCrashAfterInjectedFailure(t *testing.T) {
	// A failed recovery attempt must be retryable directly: the second
	// Recover starts from a clean slate instead of double-applying
	// delegations onto the half-built tables.
	e := newEngine(t)
	t1 := mustBegin(t, e)
	t2 := mustBegin(t, e)
	mustUpdate(t, e, t1, 1, "delegated")
	mustDelegate(t, e, t1, t2, 1)
	mustCommit(t, e, t2)
	mustUpdate(t, e, t1, 2, "loser-a")
	mustUpdate(t, e, t1, 3, "loser-b")
	if err := e.Log().Flush(e.Log().Head()); err != nil {
		t.Fatal(err)
	}
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	e.SetRecoveryFailpoint(1)
	if err := e.Recover(); err == nil {
		t.Fatal("failpoint did not fire")
	}
	// Retry WITHOUT another Crash.
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	wantValue(t, e, 1, "delegated")
	wantValue(t, e, 2, "")
	wantValue(t, e, 3, "")
}

// TestRecoverLogWithBeginRecords recovers a hand-built log in the format
// written before Begin became lazy, where every chain opens with a begin
// record, sequentially and through the pipeline.  t1 commits after
// delegating one of its updates to t3; t2 and t3 are in flight at the
// crash; t4 is a read-only transaction of the old format (begin, commit,
// end).  The update t1 kept survives, t2's and the one delegated to t3
// are undone, and IDs the begin records name are not handed out again.
func TestRecoverLogWithBeginRecords(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		dir := wal.NewMemDir()
		log, err := wal.NewLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		// Appended at LSNs 1..12, in order.
		for _, rec := range []*wal.Record{
			{Type: wal.TypeBegin, TxID: 1},
			{Type: wal.TypeBegin, TxID: 2},
			{Type: wal.TypeBegin, TxID: 3},
			{Type: wal.TypeUpdate, TxID: 1, PrevLSN: 1, Object: 1, After: []byte("kept")},
			{Type: wal.TypeUpdate, TxID: 2, PrevLSN: 2, Object: 2, After: []byte("lost")},
			{Type: wal.TypeUpdate, TxID: 1, PrevLSN: 4, Object: 3, After: []byte("handed")},
			{Type: wal.TypeDelegate, TxID: 1, PrevLSN: 6, Tor: 1, Tee: 3, TorPrev: 6, TeePrev: 3, Object: 3},
			{Type: wal.TypeCommit, TxID: 1, PrevLSN: 7},
			{Type: wal.TypeEnd, TxID: 1, PrevLSN: 8},
			{Type: wal.TypeBegin, TxID: 4},
			{Type: wal.TypeCommit, TxID: 4, PrevLSN: 10},
			{Type: wal.TypeEnd, TxID: 4, PrevLSN: 11},
		} {
			if _, err := log.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Flush(log.Head()); err != nil {
			t.Fatal(err)
		}

		e, err := New(Options{PoolSize: 16, LogDir: dir, ParallelRecovery: parallel}) // recovers at open
		if err != nil {
			t.Fatal(err)
		}
		if err := e.WaitRecovered(); err != nil {
			t.Fatal(err)
		}
		wantValue(t, e, 1, "kept")
		wantValue(t, e, 2, "")
		wantValue(t, e, 3, "")
		if tr := e.LastRecoveryTrace(); tr.Winners != 2 || tr.Losers != 2 {
			t.Fatalf("parallel=%v: recovery found %d winners and %d losers, want 2 and 2", parallel, tr.Winners, tr.Losers)
		}
		if tx := mustBegin(t, e); tx <= 4 {
			t.Fatalf("parallel=%v: Begin after recovery returned t%d, an ID the log already names", parallel, tx)
		}
	}
}

// TestRecoverLogWithTerminalCommitAndAbort recovers a hand-built log in
// the format where a commit or abort record is its transaction's last
// record, sequentially and through the pipeline.  t3's commit record was
// appended before a checkpoint that lists t3 as Committed (its force
// still pending); after the checkpoint t2 rolls back and writes its
// abort record, t1, active at the checkpoint, commits, and t4 is in
// flight at the crash.  Recovery must append t4's CLR and abort record
// and nothing else: no end record for any winner, nothing for the
// completed abort.
func TestRecoverLogWithTerminalCommitAndAbort(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		dir, ms := wal.NewMemDir(), wal.NewMemStore()
		log, err := wal.NewLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		state := delegation.State{1: delegation.NewObList(), 3: delegation.NewObList()}
		state[1].RecordUpdate(1, 1, 1)
		state[3].RecordUpdate(3, 3, 2)
		ckpt := encodeCheckpoint(&checkpointData{
			beginLSN: 4,
			txns: []txn.Info{
				{ID: 1, Status: txn.Active, LastLSN: 1},
				{ID: 3, Status: txn.Committed, LastLSN: 3},
			},
			state: state,
			dpt:   map[storage.PageID]wal.LSN{0: 1}, // redo from the start
		})
		// Appended at LSNs 1..10, in order.
		for _, rec := range []*wal.Record{
			{Type: wal.TypeUpdate, TxID: 1, Object: 1, After: []byte("won")},
			{Type: wal.TypeUpdate, TxID: 3, Object: 3, After: []byte("late")},
			{Type: wal.TypeCommit, TxID: 3, PrevLSN: 2},
			{Type: wal.TypeCheckpointBegin},
			{Type: wal.TypeCheckpointEnd, PrevLSN: 4, Payload: ckpt},
			{Type: wal.TypeUpdate, TxID: 2, Object: 2, After: []byte("undone")},
			{Type: wal.TypeCLR, TxID: 2, PrevLSN: 6, Object: 2, Compensates: 6},
			{Type: wal.TypeAbort, TxID: 2, PrevLSN: 7},
			{Type: wal.TypeUpdate, TxID: 4, Object: 4, After: []byte("lost")},
			{Type: wal.TypeCommit, TxID: 1, PrevLSN: 1},
		} {
			if _, err := log.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Flush(log.Head()); err != nil {
			t.Fatal(err)
		}
		if err := (&masterRecord{store: ms}).Set(5); err != nil {
			t.Fatal(err)
		}

		e, err := New(Options{PoolSize: 16, LogDir: dir, MasterStore: ms, ParallelRecovery: parallel}) // recovers at open
		if err != nil {
			t.Fatal(err)
		}
		if err := e.WaitRecovered(); err != nil {
			t.Fatal(err)
		}
		for obj, want := range map[wal.ObjectID]string{1: "won", 2: "", 3: "late", 4: ""} {
			wantValue(t, e, obj, want)
		}
		var appended []string
		if err := e.Log().Scan(11, wal.NilLSN, func(rec *wal.Record) (bool, error) {
			appended = append(appended, fmt.Sprintf("%v t%d", rec.Type, rec.TxID))
			return true, nil
		}); err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(appended), fmt.Sprintf("[%v t4 %v t4]", wal.TypeCLR, wal.TypeAbort); got != want {
			t.Fatalf("parallel=%v: recovery appended %s, want %s", parallel, got, want)
		}
		if tr := e.LastRecoveryTrace(); tr.Winners != 1 || tr.Losers != 1 {
			t.Fatalf("parallel=%v: recovery found %d winners and %d losers, want 1 (t1's commit after the checkpoint) and 1 (t4)",
				parallel, tr.Winners, tr.Losers)
		}
	}
}

// TestCheckpointOmitsNeverLoggedTxns: a transaction that has logged
// nothing is not in the checkpoint's transaction table or Ob_List
// snapshot, so recovery from that checkpoint does not revive it as a
// loser and log abort and end records for a transaction the log never
// named.
func TestCheckpointOmitsNeverLoggedTxns(t *testing.T) {
	e := newEngine(t)
	idle := mustBegin(t, e)
	loser := mustBegin(t, e)
	mustUpdate(t, e, loser, 1, "junk")
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	crashAndRecover(t, e)
	wantValue(t, e, 1, "")
	if got := e.LastRecoveryTrace().Losers; got != 1 {
		t.Fatalf("recovery found %d losers, want 1 (t%d only)", got, loser)
	}
	if err := e.Log().Scan(1, wal.NilLSN, func(rec *wal.Record) (bool, error) {
		if rec.TxID == idle {
			return false, fmt.Errorf("never-logged t%d got a %v record at %d", idle, rec.Type, rec.LSN)
		}
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
}
