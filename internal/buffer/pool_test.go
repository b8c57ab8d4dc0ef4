package buffer

import (
	"errors"
	"testing"

	"ariesrh/internal/obs"
	"ariesrh/internal/storage"
	"ariesrh/internal/wal"
)

func allocPages(t *testing.T, d storage.DiskManager, n int) []storage.PageID {
	t.Helper()
	out := make([]storage.PageID, n)
	for i := range out {
		pid, err := d.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = pid
	}
	return out
}

func TestPoolFetchUnpin(t *testing.T) {
	disk := storage.NewMemDisk()
	pids := allocPages(t, disk, 3)
	pool := NewPool(disk, 2, nil)
	reg := obs.NewRegistry()
	pool.Instrument(reg)
	p, err := pool.Fetch(pids[0])
	if err != nil {
		t.Fatal(err)
	}
	p.Slots[0] = storage.Slot{Used: true, Object: 1, Value: []byte("a")}
	p.LSN = 10
	if err := pool.Unpin(pids[0], true, 10); err != nil {
		t.Fatal(err)
	}
	// Re-fetch hits the cache.
	before := reg.Snapshot()
	p2, err := pool.Fetch(pids[0])
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Slots[0].Used {
		t.Fatal("cached page lost the write")
	}
	pool.Unpin(pids[0], false, wal.NilLSN)
	if d := reg.Snapshot().Sub(before); d.Counter("buffer.hits") != 1 || d.Counter("buffer.misses") != 0 {
		t.Fatalf("counter diff = %+v", d.Counters)
	}
}

func TestPoolEvictionWritesBackDirty(t *testing.T) {
	disk := storage.NewMemDisk()
	pids := allocPages(t, disk, 3)
	flushed := wal.NilLSN
	pool := NewPool(disk, 2, func(lsn wal.LSN) error {
		if lsn > flushed {
			flushed = lsn
		}
		return nil
	})
	p, _ := pool.Fetch(pids[0])
	p.Slots[0] = storage.Slot{Used: true, Object: 42, Value: []byte("x")}
	p.LSN = 77
	pool.Unpin(pids[0], true, 77)
	// Fill the pool: fetching pages 1 and 2 evicts page 0.
	for _, pid := range pids[1:] {
		if _, err := pool.Fetch(pid); err != nil {
			t.Fatal(err)
		}
		pool.Unpin(pid, false, wal.NilLSN)
	}
	if flushed != 77 {
		t.Fatalf("WAL rule: log flushed through %d, want 77", flushed)
	}
	got, err := disk.ReadPage(pids[0])
	if err != nil {
		t.Fatal(err)
	}
	if !got.Slots[0].Used || got.LSN != 77 {
		t.Fatalf("evicted page not written back: %+v", got)
	}
}

func TestPoolExhaustion(t *testing.T) {
	disk := storage.NewMemDisk()
	pids := allocPages(t, disk, 2)
	pool := NewPool(disk, 1, nil)
	if _, err := pool.Fetch(pids[0]); err != nil {
		t.Fatal(err)
	}
	// pids[0] is pinned; no frame can be evicted.
	if _, err := pool.Fetch(pids[1]); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("err = %v, want ErrPoolExhausted", err)
	}
	pool.Unpin(pids[0], false, wal.NilLSN)
	if _, err := pool.Fetch(pids[1]); err != nil {
		t.Fatalf("after unpin: %v", err)
	}
}

func TestPoolCrashDropsDirtyPages(t *testing.T) {
	disk := storage.NewMemDisk()
	pids := allocPages(t, disk, 1)
	pool := NewPool(disk, 4, nil)
	p, _ := pool.Fetch(pids[0])
	p.Slots[0] = storage.Slot{Used: true, Object: 9, Value: []byte("dirty")}
	pool.Unpin(pids[0], true, 5)
	pool.Crash()
	got, err := disk.ReadPage(pids[0])
	if err != nil {
		t.Fatal(err)
	}
	if got.Slots[0].Used {
		t.Fatal("dirty page reached disk despite crash")
	}
	if len(pool.DirtyPageTable()) != 0 {
		t.Fatal("dirty page table survived crash")
	}
}

func TestPoolDirtyPageTableRecLSN(t *testing.T) {
	disk := storage.NewMemDisk()
	pids := allocPages(t, disk, 1)
	pool := NewPool(disk, 4, nil)
	p, _ := pool.Fetch(pids[0])
	p.LSN = 3
	pool.Unpin(pids[0], true, 3)
	p2, _ := pool.Fetch(pids[0])
	p2.LSN = 9
	pool.Unpin(pids[0], true, 9)
	dpt := pool.DirtyPageTable()
	if dpt[pids[0]] != 3 {
		t.Fatalf("recLSN = %d, want 3 (first dirtying LSN)", dpt[pids[0]])
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if len(pool.DirtyPageTable()) != 0 {
		t.Fatal("dirty table non-empty after FlushAll")
	}
	// Dirtying again after a flush records the new recLSN.
	p3, _ := pool.Fetch(pids[0])
	p3.LSN = 20
	pool.Unpin(pids[0], true, 20)
	if dpt := pool.DirtyPageTable(); dpt[pids[0]] != 20 {
		t.Fatalf("recLSN after re-dirty = %d, want 20", dpt[pids[0]])
	}
}

func TestPoolUnpinErrors(t *testing.T) {
	disk := storage.NewMemDisk()
	pids := allocPages(t, disk, 1)
	pool := NewPool(disk, 2, nil)
	if err := pool.Unpin(pids[0], false, wal.NilLSN); err == nil {
		t.Fatal("unpin of unfetched page succeeded")
	}
	pool.Fetch(pids[0])
	pool.Unpin(pids[0], false, wal.NilLSN)
	if err := pool.Unpin(pids[0], false, wal.NilLSN); err == nil {
		t.Fatal("double unpin succeeded")
	}
}
