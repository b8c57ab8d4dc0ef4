package ariesrh_test

import (
	"fmt"
	"testing"

	"ariesrh"
)

// TestReadOnlyTxnWritesNothing pins the read-only fast path in counted
// units through the public API.  Begin logs nothing, so a transaction
// that only reads appends no record and forces nothing, whether it
// commits or aborts — unsharded, and on a 2-shard database where it
// touches both shards.  A writer's first record is its first update and
// its last is its commit or abort record: a four-update transaction
// appends exactly five records (four updates and a commit), and a
// two-update transaction that aborts exactly three (two CLRs and the
// abort record).
func TestReadOnlyTxnWritesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts ariesrh.Options
	}{
		{"unsharded", ariesrh.Options{}},
		{"2-shard", ariesrh.Options{Shards: 2, ShardRouter: modRouter{}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := ariesrh.Open(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			// delta runs f and returns the appends and flushes it cost.
			delta := func(f func() error) (appends, flushes uint64) {
				t.Helper()
				before := db.Metrics()
				if err := f(); err != nil {
					t.Fatal(err)
				}
				d := db.Metrics().Sub(before)
				return d.Counter("wal.appends"), d.Counter("wal.flushes")
			}

			// The writer stays on one shard (even objects: shard 0 of 2),
			// so the count is that of a plain commit, not of 2PC.
			appends, _ := delta(func() error {
				w, err := db.Begin()
				if err != nil {
					return err
				}
				for obj := ariesrh.ObjectID(2); obj <= 8; obj += 2 {
					if err := w.Update(obj, []byte(fmt.Sprint("v", obj))); err != nil {
						return err
					}
				}
				return w.Commit()
			})
			if appends != 5 {
				t.Errorf("four-update writer appended %d records, want 5", appends)
			}

			// The two updates are made before the delta is taken, so it
			// counts only what Abort appends.
			w, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for obj := ariesrh.ObjectID(10); obj <= 12; obj += 2 {
				if err := w.Update(obj, []byte("doomed")); err != nil {
					t.Fatal(err)
				}
			}
			if appends, _ := delta(w.Abort); appends != 3 {
				t.Errorf("two-update writer's Abort appended %d records, want 3", appends)
			}

			// Objects 1..4 span both shards of the 2-shard database.
			appends, flushes := delta(func() error {
				r, err := db.Begin()
				if err != nil {
					return err
				}
				for obj := ariesrh.ObjectID(1); obj <= 4; obj++ {
					v, err := r.Read(obj)
					if err != nil {
						return err
					}
					want := ""
					if obj%2 == 0 {
						want = fmt.Sprint("v", obj)
					}
					if string(v) != want {
						return fmt.Errorf("read %d = %q, want %q", obj, v, want)
					}
				}
				return r.Commit()
			})
			if appends != 0 || flushes != 0 {
				t.Errorf("Begin+4×Read+Commit cost %d appends and %d flushes, want 0 and 0", appends, flushes)
			}

			appends, flushes = delta(func() error {
				r, err := db.Begin()
				if err != nil {
					return err
				}
				if _, err := r.Read(3); err != nil {
					return err
				}
				return r.Abort()
			})
			if appends != 0 || flushes != 0 {
				t.Errorf("Begin+Read+Abort cost %d appends and %d flushes, want 0 and 0", appends, flushes)
			}
		})
	}
}
