package core

import (
	"bytes"
	"errors"
	"testing"

	"ariesrh/internal/obs"
	"ariesrh/internal/storage"
	"ariesrh/internal/wal"
)

func mustDo(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// shipAll drains the primary's durable log through a subscription, the
// same way the replication primary does.
func shipAll(t *testing.T, p *Engine) []*wal.Record {
	t.Helper()
	if err := p.Log().Flush(p.Log().Head()); err != nil {
		t.Fatal(err)
	}
	sub, err := p.Log().Subscribe(1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	recs, err := sub.Next(0)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestFollowerReplaysAndPromotes is the end-to-end core contract: a
// follower fed the primary's durable log holds the same state recovery's
// forward pass would, and Promote — the existing backward pass — lands it
// on exactly the state the crashed primary recovers to.
func TestFollowerReplaysAndPromotes(t *testing.T) {
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := p.Begin()
	t2, _ := p.Begin()
	t3, _ := p.Begin()
	// t1's update to 1 is delegated to t2, which commits: the update
	// survives even though t1 dies a loser.  t3 and t1's own update die.
	mustDo(t, p.Update(t1, 1, []byte("a1")))
	mustDo(t, p.Update(t2, 2, []byte("b1")))
	mustDo(t, p.Delegate(t1, t2, 1))
	mustDo(t, p.Commit(t2))
	mustDo(t, p.Update(t3, 3, []byte("c1")))
	mustDo(t, p.Update(t1, 4, []byte("d1")))

	f, err := New(Options{Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	recs := shipAll(t, p)
	if err := f.FollowerApply(recs); err != nil {
		t.Fatal(err)
	}
	if got, want := f.ReplayedLSN(), p.Log().Head(); got != want {
		t.Fatalf("ReplayedLSN = %d, want %d", got, want)
	}
	if h := f.Health(); h.State != StateFollower {
		t.Fatalf("follower health = %v", h.State)
	}

	// Follower reads see the replayed (pre-promotion) state: every
	// update is on the pages, losers included — exactly mid-forward-pass
	// recovery state.
	for obj, want := range map[wal.ObjectID]string{1: "a1", 2: "b1", 3: "c1", 4: "d1"} {
		v, ok, at, err := f.FollowerRead(obj)
		if err != nil || !ok || string(v) != want {
			t.Fatalf("FollowerRead(%d) = %q, %v, %v; want %q", obj, v, ok, err, want)
		}
		if at != f.ReplayedLSN() {
			t.Fatalf("read consistency point %d != replayed %d", at, f.ReplayedLSN())
		}
	}

	// Promotion's backward pass must satisfy the undo-visit invariants:
	// strictly decreasing LSNs, no position visited twice.
	var visits []wal.LSN
	f.SetEventHook(func(ev obs.Event) {
		if ev.Name == "undo.visit" {
			visits = append(visits, wal.LSN(ev.LSN))
		}
	})
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	f.SetEventHook(nil)
	for i := 1; i < len(visits); i++ {
		if visits[i] >= visits[i-1] {
			t.Fatalf("undo visits not strictly decreasing: %v", visits)
		}
	}
	if len(visits) == 0 {
		t.Fatal("promotion ran no backward pass despite live losers")
	}
	if f.IsFollower() {
		t.Fatal("still a follower after Promote")
	}

	// The promoted state must equal the crashed primary's recovered state.
	if err := p.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := p.Recover(); err != nil {
		t.Fatal(err)
	}
	for obj := wal.ObjectID(1); obj <= 4; obj++ {
		pv, pok, err := p.ReadObject(obj)
		if err != nil {
			t.Fatal(err)
		}
		fv, fok, err := f.ReadObject(obj)
		if err != nil {
			t.Fatal(err)
		}
		if pok != fok || !bytes.Equal(pv, fv) {
			t.Fatalf("object %d: promoted %q/%v, recovered primary %q/%v", obj, fv, fok, pv, pok)
		}
	}
	// And the promoted engine accepts new work.
	tx, err := f.Begin()
	if err != nil {
		t.Fatal(err)
	}
	mustDo(t, f.Update(tx, 9, []byte("post")))
	mustDo(t, f.Commit(tx))
}

func TestFollowerRejectsWritesAndGaps(t *testing.T) {
	f, err := New(Options{Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Begin(); !errors.Is(err, ErrFollower) {
		t.Fatalf("Begin on follower = %v, want ErrFollower", err)
	}
	if err := f.Quiesce(func() error { return nil }); !errors.Is(err, ErrFollower) {
		t.Fatalf("Quiesce on follower = %v, want ErrFollower", err)
	}
	// A gap in the stream is rejected before anything is applied.
	if err := f.FollowerApply([]*wal.Record{{Type: wal.TypeBegin, TxID: 1, LSN: 5}}); err == nil {
		t.Fatal("gap accepted")
	}
	if f.Log().Head() != 0 {
		t.Fatalf("gap appended anyway: head %d", f.Log().Head())
	}
	// Recover is not how a follower heals; Promote on a primary is an error.
	if err := f.Recover(); err == nil {
		t.Fatal("Recover on follower succeeded")
	}
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Promote(); err == nil {
		t.Fatal("Promote on primary succeeded")
	}
	if err := p.FollowerApply(nil); err == nil {
		t.Fatal("FollowerApply on primary succeeded")
	}
}

// TestFollowerCatchUpFromLocalLog reopens existing stable state in
// follower mode: the forward pass replays the local log but leaves
// in-flight transactions live, so the stream (or Promote) decides their
// fate — unlike Recover, which would roll them back immediately.
func TestFollowerCatchUpFromLocalLog(t *testing.T) {
	logDir, master := wal.NewMemDir(), wal.NewMemStore()
	disk := storage.NewMemDisk()
	p, err := New(Options{LogDir: logDir, Disk: disk, MasterStore: master})
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := p.Begin()
	t2, _ := p.Begin()
	mustDo(t, p.Update(t1, 1, []byte("keep")))
	mustDo(t, p.Commit(t1))
	mustDo(t, p.Update(t2, 2, []byte("loser")))
	if err := p.Log().Flush(p.Log().Head()); err != nil {
		t.Fatal(err)
	}
	// Reopen the same stable state as a follower (no Close: the old
	// engine is simply abandoned, as after a primary failure).
	f, err := New(Options{LogDir: logDir, Disk: disk, MasterStore: master, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := f.ReplayedLSN(), f.Log().Head(); got != want {
		t.Fatalf("ReplayedLSN = %d, want %d", got, want)
	}
	// t2 is still live, not rolled back.
	if v, ok, _, err := f.FollowerRead(2); err != nil || !ok || string(v) != "loser" {
		t.Fatalf("in-flight update missing after catch-up: %q %v %v", v, ok, err)
	}
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := f.ReadObject(1); err != nil || !ok || string(v) != "keep" {
		t.Fatalf("committed value lost: %q %v %v", v, ok, err)
	}
	// The loser's insert is compensated back to its empty before-image.
	if v, _, err := f.ReadObject(2); err != nil || len(v) != 0 {
		t.Fatalf("loser survived promotion: %q err=%v", v, err)
	}
}

// TestFollowerDropsShippedCommits: a commit record is its transaction's
// last record, so a follower fed the durable log up to a commit holds no
// table entry for that transaction.  Each batch is what a replica
// receives the moment the commit is acknowledged — the durable prefix,
// ending at the commit record.
func TestFollowerDropsShippedCommits(t *testing.T) {
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Options{Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := p.Log().Subscribe(1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for i := 0; i < 5; i++ {
		tx, err := p.Begin()
		if err != nil {
			t.Fatal(err)
		}
		mustDo(t, p.Update(tx, wal.ObjectID(2*i+1), []byte("a")))
		mustDo(t, p.Update(tx, wal.ObjectID(2*i+2), []byte("b")))
		mustDo(t, p.Commit(tx))
		recs, err := sub.Next(0)
		if err != nil {
			t.Fatal(err)
		}
		mustDo(t, f.FollowerApply(recs))
		f.mu.Lock()
		n := len(f.recs)
		f.mu.Unlock()
		if n != 0 {
			t.Fatalf("after %d shipped commits the follower holds %d transactions, want none", i+1, n)
		}
	}
}

// TestFollowerFlushBoundsAcks pins the durability contract: FollowerFlush
// returns the LSN through which the local log is durable, and only that
// may be acknowledged upstream.
func TestFollowerFlushBoundsAcks(t *testing.T) {
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := p.Begin()
	mustDo(t, p.Update(t1, 1, []byte("x")))
	mustDo(t, p.Commit(t1))

	f, err := New(Options{Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.FollowerApply(shipAll(t, p)); err != nil {
		t.Fatal(err)
	}
	if got := f.Log().FlushedLSN(); got != 0 {
		t.Fatalf("apply flushed on its own: %d", got)
	}
	durable, err := f.FollowerFlush()
	if err != nil {
		t.Fatal(err)
	}
	if durable != f.Log().Head() || f.Log().FlushedLSN() != durable {
		t.Fatalf("FollowerFlush = %d, head %d, flushed %d", durable, f.Log().Head(), f.Log().FlushedLSN())
	}
	// The follower's log is a record-identical prefix of the primary's:
	// Append re-derived the same LSNs and the encoding is deterministic.
	for lsn := wal.LSN(1); lsn <= durable; lsn++ {
		pr, err := p.Log().Get(lsn)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := f.Log().Get(lsn)
		if err != nil {
			t.Fatal(err)
		}
		pb, _ := wal.EncodeRecord(pr)
		fb, _ := wal.EncodeRecord(fr)
		if !bytes.Equal(pb, fb) {
			t.Fatalf("log diverges at %d:\nprimary  %v\nfollower %v", lsn, pr, fr)
		}
	}
}
