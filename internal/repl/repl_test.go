package repl

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"ariesrh/internal/core"
	"ariesrh/internal/wal"
)

func newPrimaryEngine(t *testing.T) *core.Engine {
	t.Helper()
	e, err := core.New(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func newFollowerEngine(t *testing.T) *core.Engine {
	t.Helper()
	e, err := core.New(core.Options{Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// startStream wires a primary and replica together over an in-process
// pipe and returns the replica-side conn closer for forced disconnects.
func startStream(t *testing.T, p *Primary, r *Replica) (disconnect func(), serveDone, followDone chan error) {
	t.Helper()
	c1, c2 := net.Pipe()
	serveDone = make(chan error, 1)
	followDone = make(chan error, 1)
	go func() { serveDone <- p.Serve(c1) }()
	go func() { followDone <- r.Follow(c2) }()
	return func() { c2.Close() }, serveDone, followDone
}

func waitCaughtUp(t *testing.T, eng *core.Engine, r *Replica) {
	t.Helper()
	target := eng.Log().FlushedLSN()
	deadline := time.Now().Add(5 * time.Second)
	for r.Engine().ReplayedLSN() < target {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at %d, want %d", r.Engine().ReplayedLSN(), target)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReplicationEndToEnd(t *testing.T) {
	p := newPrimaryEngine(t)
	prim, err := NewPrimary(p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica(newFollowerEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	_, _, _ = startStream(t, prim, rep)

	// A delegation-heavy workload streamed live: t1's update travels to
	// the committed t2; t3 stays in flight.
	t1, _ := p.Begin()
	t2, _ := p.Begin()
	t3, _ := p.Begin()
	for _, step := range []error{
		p.Update(t1, 1, []byte("a1")),
		p.Update(t2, 2, []byte("b1")),
		p.Delegate(t1, t2, 1),
		p.Commit(t2),
		p.Update(t3, 3, []byte("c1")),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	if err := p.Log().Flush(p.Log().Head()); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, p, rep)

	// Consistent reads at the replayed LSN see the full replayed state.
	for obj, want := range map[wal.ObjectID]string{1: "a1", 2: "b1", 3: "c1"} {
		v, ok, at, err := rep.Read(obj)
		if err != nil || !ok || string(v) != want {
			t.Fatalf("replica read(%d) = %q, %v, %v", obj, v, ok, err)
		}
		if at != rep.Engine().ReplayedLSN() {
			t.Fatalf("read at %d, replayed %d", at, rep.Engine().ReplayedLSN())
		}
	}

	// Health and lag: once caught up and acked, the primary's gauges
	// settle at zero and the counters account for the whole stream.
	deadline := time.Now().Add(5 * time.Second)
	for prim.AckedLSN() < p.Log().FlushedLSN() {
		if time.Now().After(deadline) {
			t.Fatalf("acks stuck at %v, want %v", prim.AckedLSN(), p.Log().FlushedLSN())
		}
		time.Sleep(time.Millisecond)
	}
	snap := p.Metrics()
	if n := snap.Counter("repl.shipped_records"); n < uint64(p.Log().FlushedLSN()) {
		t.Fatalf("shipped_records = %d, want >= %d", n, p.Log().FlushedLSN())
	}
	if snap.Counter("repl.shipped_bytes") == 0 {
		t.Fatal("shipped_bytes = 0")
	}
	if lag := snap.Gauge("repl.lag_records"); lag != 0 {
		t.Fatalf("lag_records = %d after full ack", lag)
	}
	h := rep.Health()
	if h.ReplayedLSN != p.Log().FlushedLSN() || h.DurableLSN != h.ReplayedLSN || h.LagRecords != 0 {
		t.Fatalf("health = %+v (primary flushed %d)", h, p.Log().FlushedLSN())
	}
}

func TestReplicaCatchUpAfterDisconnect(t *testing.T) {
	p := newPrimaryEngine(t)
	prim, err := NewPrimary(p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica(newFollowerEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	disconnect, serveDone, followDone := startStream(t, prim, rep)

	t1, _ := p.Begin()
	if err := p.Update(t1, 1, []byte("before")); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(t1); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, p, rep)
	acked := prim.AckedLSN()
	if acked == wal.NilLSN {
		t.Fatal("no ack before disconnect")
	}

	// Force a disconnect; both loops terminate.
	disconnect()
	<-serveDone
	<-followDone

	// While disconnected the primary keeps working — and keeps the
	// unacked suffix safe from Archive.
	t2, _ := p.Begin()
	if err := p.Update(t2, 2, []byte("during")); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(t2); err != nil {
		t.Fatal(err)
	}
	if err := p.Log().Flush(p.Log().Head()); err != nil {
		t.Fatal(err)
	}
	if err := p.Log().Archive(p.Log().FlushedLSN()); err != nil {
		t.Fatal(err)
	}
	if base := p.Log().Base(); base > acked {
		t.Fatalf("Archive discarded past the replica's ack: base %d > acked %d", base, acked)
	}

	// Reconnect: the replica resumes from its own durable head.
	_, _, _ = startStream(t, prim, rep)
	waitCaughtUp(t, p, rep)
	if v, ok, _, err := rep.Read(2); err != nil || !ok || string(v) != "during" {
		t.Fatalf("post-reconnect read = %q, %v, %v", v, ok, err)
	}
}

func TestFollowSnapshotNeeded(t *testing.T) {
	p := newPrimaryEngine(t)
	t1, _ := p.Begin()
	if err := p.Update(t1, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(t1); err != nil {
		t.Fatal(err)
	}
	if err := p.Log().Flush(p.Log().Head()); err != nil {
		t.Fatal(err)
	}
	if err := p.Log().Archive(p.Log().FlushedLSN()); err != nil {
		t.Fatal(err)
	}
	// Attach AFTER archiving: a fresh (empty) replica's cursor (LSN 1)
	// is below the base, so the stream cannot help it.
	prim, err := NewPrimary(p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica(newFollowerEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	_, serveDone, followDone := startStream(t, prim, rep)
	if err := <-followDone; !errors.Is(err, ErrSnapshotNeeded) {
		t.Fatalf("Follow = %v, want ErrSnapshotNeeded", err)
	}
	if err := <-serveDone; !errors.Is(err, wal.ErrArchived) {
		t.Fatalf("Serve = %v, want ErrArchived", err)
	}
}

func TestPrimaryCloseReleasesPin(t *testing.T) {
	p := newPrimaryEngine(t)
	prim, err := NewPrimary(p)
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := p.Begin()
	if err := p.Update(t1, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(t1); err != nil {
		t.Fatal(err)
	}
	if err := p.Log().Flush(p.Log().Head()); err != nil {
		t.Fatal(err)
	}
	// Pinned: nothing may be archived.
	if err := p.Log().Archive(p.Log().FlushedLSN()); err != nil {
		t.Fatal(err)
	}
	if p.Log().Base() != 0 {
		t.Fatalf("archived despite pin: base %d", p.Log().Base())
	}
	prim.Close()
	prim.Close() // idempotent
	if err := p.Log().Archive(p.Log().FlushedLSN()); err != nil {
		t.Fatal(err)
	}
	if p.Log().Base() == 0 {
		t.Fatal("pin survived Close")
	}
}

// TestPromoteAfterStream is the subsystem's headline: stream a
// delegation workload, kill the connection, promote the replica, and the
// promoted state matches what the crashed primary itself would recover
// to.
func TestPromoteAfterStream(t *testing.T) {
	p := newPrimaryEngine(t)
	prim, err := NewPrimary(p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica(newFollowerEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	disconnect, serveDone, followDone := startStream(t, prim, rep)

	t1, _ := p.Begin()
	t2, _ := p.Begin()
	t3, _ := p.Begin()
	for _, step := range []error{
		p.Update(t1, 1, []byte("a1")),
		p.Delegate(t1, t2, 1),
		p.Commit(t2),
		p.Update(t3, 3, []byte("c1")),
		p.Update(t1, 4, []byte("d1")),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	if err := p.Log().Flush(p.Log().Head()); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, p, rep)
	disconnect()
	<-serveDone
	<-followDone

	eng, err := rep.Promote()
	if err != nil {
		t.Fatal(err)
	}
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
		fv, fok, err := eng.ReadObject(obj)
		if err != nil {
			t.Fatal(err)
		}
		if pok != fok || string(pv) != string(fv) {
			t.Fatalf("object %d: promoted %q/%v vs recovered %q/%v", obj, fv, fok, pv, pok)
		}
	}
	tx, err := eng.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Update(tx, 9, []byte("new-primary")); err != nil {
		t.Fatal(err)
	}
	if err := eng.Commit(tx); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaLogByteIdenticalWithDelegateSets streams a workload whose
// DelegateAlls write delegate-set records — dense and sparse sets, with
// IDs whose gaps need uvarints of several widths — and checks the
// replica's log stays a byte-identical prefix of the primary's: the
// stream decodes and re-encodes every record, so the set record's
// encoding must survive the round trip.
func TestReplicaLogByteIdenticalWithDelegateSets(t *testing.T) {
	p := newPrimaryEngine(t)
	prim, err := NewPrimary(p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica(newFollowerEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	_, _, _ = startStream(t, prim, rep)

	bill, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		tx, err := p.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= i%5; k++ {
			obj := wal.ObjectID(1 + i*7 + k<<(7*k))
			if err := p.Update(tx, obj, []byte{byte(i), byte(k)}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.Increment(tx, 1<<40, int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := p.DelegateAll(tx, bill); err != nil {
			t.Fatal(err)
		}
		if err := p.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Commit(bill); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, p, rep)

	var sets int
	for lsn := wal.LSN(1); lsn <= p.Log().Head(); lsn++ {
		rec, err := p.Log().Get(lsn)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Type == wal.TypeDelegateSet {
			sets++
		}
	}
	if sets != 20 {
		t.Fatalf("primary log holds %d delegate-set records, want 20", sets)
	}
	frames := func(l *wal.Log) []byte {
		var out []byte
		for _, shard := range l.RecordShards(1) {
			out = append(out, shard...)
		}
		return out
	}
	pb, rb := frames(p.Log()), frames(rep.Engine().Log())
	if len(rb) == 0 || !bytes.HasPrefix(pb, rb) {
		t.Fatalf("replica log (%d bytes) is not a prefix of the primary's (%d bytes)", len(rb), len(pb))
	}
	if rep.Engine().Log().Head() != p.Log().FlushedLSN() {
		t.Fatalf("replica head %d, primary flushed %d", rep.Engine().Log().Head(), p.Log().FlushedLSN())
	}
}
