package ariesrh_test

import (
	"errors"
	"testing"

	"ariesrh"
)

// modRouter routes obj to shard obj % n, giving tests deterministic
// object placement.
type modRouter struct{}

func (modRouter) Route(obj ariesrh.ObjectID, n int) uint32 {
	return uint32(uint64(obj) % uint64(n))
}

// TestShardedPublicAPI drives the sharded database end-to-end through
// the public surface: cross-shard commit, cross-shard delegation,
// whole-cluster crash and recovery, metric aggregation, and the
// documented ErrSharded rejections.
func TestShardedPublicAPI(t *testing.T) {
	db, err := ariesrh.Open(ariesrh.Options{
		Shards:      2,
		ShardRouter: modRouter{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.Shards(); got != 2 {
		t.Fatalf("Shards() = %d, want 2", got)
	}

	// Cross-shard transaction: objects 2 and 3 live on different shards.
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if tx.GID() == 0 {
		t.Fatal("sharded Tx has no GID")
	}
	if err := tx.Update(2, []byte("even")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(3, []byte("odd")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Cross-shard delegation through Tx.Delegate.
	t1, _ := db.Begin()
	if err := t1.Update(4, []byte("anchor")); err != nil { // shard 0
		t.Fatal(err)
	}
	if err := t1.Update(5, []byte("delegated")); err != nil { // shard 1
		t.Fatal(err)
	}
	t2, _ := db.Begin()
	if err := t2.Update(6, []byte("t2")); err != nil { // shard 0: t2 coordinates there
		t.Fatal(err)
	}
	if err := t1.Delegate(t2, 5); err != nil {
		t.Fatal(err)
	}
	if err := t1.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	for obj, want := range map[ariesrh.ObjectID]string{2: "even", 3: "odd", 5: "delegated", 6: "t2"} {
		v, ok, err := db.ReadCommitted(obj)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(v) != want {
			t.Fatalf("obj %d = %q (ok=%v) after crash, want %q", obj, v, ok, want)
		}
	}
	if v, ok, _ := db.ReadCommitted(4); ok {
		t.Fatalf("t1's aborted update survived: obj 4 = %q", v)
	}

	// Aggregated metrics carry router series and per-shard breakdowns.
	m := db.Metrics()
	if m.Counter("router.cross_shard_commits") == 0 {
		t.Fatal("no cross-shard commits counted")
	}
	if m.Counter("core.commits") != m.Counter("shard.0.core.commits")+m.Counter("shard.1.core.commits") {
		t.Fatal("aggregated core.commits is not the per-shard sum")
	}
	if db.LastRecoveryTrace().ForwardRecords == 0 {
		t.Fatal("merged recovery trace is empty")
	}

	// Documented rejections.
	if _, err := db.MinRequiredLSN(); !errors.Is(err, ariesrh.ErrSharded) {
		t.Fatalf("MinRequiredLSN error = %v, want ErrSharded", err)
	}
	if _, err := db.ResponsibleFor(1); !errors.Is(err, ariesrh.ErrSharded) {
		t.Fatalf("ResponsibleFor error = %v, want ErrSharded", err)
	}
	sp, _ := db.Begin()
	defer sp.Abort()
	if _, err := sp.Savepoint(); !errors.Is(err, ariesrh.ErrSharded) {
		t.Fatalf("Savepoint error = %v, want ErrSharded", err)
	}
	if err := db.Backup(t.TempDir()); !errors.Is(err, ariesrh.ErrSharded) {
		t.Fatalf("Backup error = %v, want ErrSharded", err)
	}
	if db.Engine() != nil {
		t.Fatal("Engine() must be nil on a sharded database")
	}
}

// TestUnshardedUntouched pins that Shards 0/1 keep the single-engine
// path: Engine() is non-nil, GID is 0, and everything behaves as
// before the option existed.
func TestUnshardedUntouched(t *testing.T) {
	for _, n := range []int{0, 1} {
		db, err := ariesrh.Open(ariesrh.Options{Shards: n})
		if err != nil {
			t.Fatal(err)
		}
		if db.Engine() == nil {
			t.Fatalf("Shards=%d: Engine() is nil", n)
		}
		if db.Shards() != 1 {
			t.Fatalf("Shards=%d: Shards() = %d", n, db.Shards())
		}
		tx, _ := db.Begin()
		if tx.GID() != 0 {
			t.Fatalf("Shards=%d: unsharded Tx has GID %d", n, tx.GID())
		}
		if err := tx.Update(1, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		db.Close()
	}
}
