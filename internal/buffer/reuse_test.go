package buffer

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ariesrh/internal/obs"
	"ariesrh/internal/storage"
	"ariesrh/internal/wal"
)

// writePage stores p on disk as page pid.
func writePage(t *testing.T, d storage.DiskManager, pid storage.PageID, p *storage.Page) {
	t.Helper()
	if err := d.WritePage(pid, p); err != nil {
		t.Fatal(err)
	}
}

// TestPoolMissAllocations is the counted guard for the tentpole: a miss
// that evicts a dirty victim — WAL force, write-back, read of the incoming
// page into the victim's frame — allocates nothing.
func TestPoolMissAllocations(t *testing.T) {
	disk := storage.NewMemDisk()
	pids := allocPages(t, disk, 3)
	pool := NewPool(disk, 2, nil)
	reg := obs.NewRegistry()
	pool.Instrument(reg)
	lsn := wal.LSN(0)
	cycle := func() {
		for _, pid := range pids {
			pg, err := pool.Fetch(pid)
			if err != nil {
				t.Fatal(err)
			}
			lsn++
			pg.Slots[0].Used = true
			pg.Slots[0].Value = append(pg.Slots[0].Value[:0], "value"...)
			pg.LSN = lsn
			if err := pool.Unpin(pid, true, lsn); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle() // fill the pool's two frames
	before := reg.Snapshot()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a miss evicting a dirty victim: %.2f allocs per 3 misses, want 0", n)
	}
	d := reg.Snapshot().Sub(before)
	if misses := d.Counter("buffer.misses"); d.Counter("buffer.hits") != 0 || misses != d.Counter("buffer.flushes") || misses != 101*3 {
		t.Fatalf("cycle was not all dirty misses: %+v", d.Counters)
	}
}

// TestPoolReusedFrameDecodesCleanly evicts a page whose slot 5 holds a
// 100-byte value into the frame of a page whose slot 5 is empty.
func TestPoolReusedFrameDecodesCleanly(t *testing.T) {
	disk := storage.NewMemDisk()
	pids := allocPages(t, disk, 2)
	full := &storage.Page{LSN: 3}
	full.Slots[5] = storage.Slot{Used: true, Object: 50, Value: bytes.Repeat([]byte{0xEE}, 100)}
	writePage(t, disk, pids[0], full)
	empty := &storage.Page{LSN: 4}
	empty.Slots[6] = storage.Slot{Used: true, Object: 60, Value: []byte("six")}
	writePage(t, disk, pids[1], empty)
	want, err := empty.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	pool := NewPool(disk, 1, nil)
	first, err := pool.Fetch(pids[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Slots[5].Value) != 100 {
		t.Fatalf("slot 5 of page %d = %+v", pids[0], first.Slots[5])
	}
	pool.Unpin(pids[0], false, wal.NilLSN)
	got, err := pool.Fetch(pids[1])
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Unpin(pids[1], false, wal.NilLSN)
	if got != first {
		t.Fatal("the miss did not reuse the evicted frame's page")
	}
	if s := got.Slots[5]; s.Used || len(s.Value) != 0 {
		t.Fatalf("slot 5 kept the evicted page's value: %+v", s)
	}
	img, err := got.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, want) {
		t.Fatal("reused page does not re-encode to its disk image")
	}
}

// corruptDisk serves a damaged image for one page through the real
// decoder, as a page torn or rotted on the device would be.
type corruptDisk struct {
	*storage.MemDisk
	bad storage.PageID
	img []byte
}

func (d *corruptDisk) ReadPageInto(pid storage.PageID, p *storage.Page) error {
	if pid == d.bad {
		return p.Unmarshal(d.img)
	}
	return d.MemDisk.ReadPageInto(pid, p)
}

// TestPoolFailedReadKeepsPoolUsable: a page that fails its checksum or
// declares an oversized slot is an error, the victim frame it would have
// taken is dropped, and every other page is served as before.
func TestPoolFailedReadKeepsPoolUsable(t *testing.T) {
	good := &storage.Page{LSN: 2}
	good.Slots[0] = storage.Slot{Used: true, Object: 1, Value: []byte("good")}
	badCRC, err := good.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	badCRC[200] ^= 0x01
	longSlot, err := good.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Slot 0's length field sits after the 14-byte header, used flag and
	// object id; the checksum is recomputed so the length check must fire.
	binary.LittleEndian.PutUint16(longSlot[14+9:], storage.MaxValueSize+1)
	binary.LittleEndian.PutUint32(longSlot[8:], crc32.ChecksumIEEE(longSlot[12:]))

	for name, img := range map[string][]byte{"bad crc": badCRC, "slot too long": longSlot} {
		mem := storage.NewMemDisk()
		pids := allocPages(t, mem, 4)
		for _, pid := range pids {
			writePage(t, mem, pid, &storage.Page{LSN: wal.LSN(pid) + 1})
		}
		disk := &corruptDisk{MemDisk: mem, bad: pids[3], img: img}
		pool := NewPool(disk, 2, nil)
		held, err := pool.Fetch(pids[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pool.Fetch(pids[1]); err != nil {
			t.Fatal(err)
		}
		pool.Unpin(pids[1], false, wal.NilLSN)
		if _, err := pool.Fetch(pids[3]); err == nil {
			t.Fatalf("%s: damaged page accepted", name)
		}
		if err := pool.Prefault(pids[3]); err == nil {
			t.Fatalf("%s: damaged page prefaulted", name)
		}
		if held.LSN != 1 {
			t.Fatalf("%s: pinned page changed by a failed read: LSN %d", name, held.LSN)
		}
		for i := 0; i < 6; i++ {
			pid := pids[1+i%2]
			pg, err := pool.Fetch(pid)
			if err != nil {
				t.Fatalf("%s: pool unusable after a failed read: %v", name, err)
			}
			if pg.LSN != wal.LSN(pid)+1 {
				t.Fatalf("%s: page %d has LSN %d", name, pid, pg.LSN)
			}
			pool.Unpin(pid, false, wal.NilLSN)
		}
		pool.Unpin(pids[0], false, wal.NilLSN)
	}
}

// TestPoolNeverEvictsPinnedPage cycles many misses past a page pinned by
// a hit, which must take it off the LRU list.
func TestPoolNeverEvictsPinnedPage(t *testing.T) {
	disk := storage.NewMemDisk()
	pids := allocPages(t, disk, 6)
	pool := NewPool(disk, 3, nil)
	if err := pool.Prefault(pids[0]); err != nil {
		t.Fatal(err)
	}
	held, err := pool.Fetch(pids[0])
	if err != nil {
		t.Fatal(err)
	}
	held.Slots[0] = storage.Slot{Used: true, Object: 7, Value: []byte("pinned")}
	for i := 0; i < 50; i++ {
		pid := pids[1+i%5]
		pg, err := pool.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		if pg == held {
			t.Fatalf("page %d was decoded into the pinned page's frame", pid)
		}
		pool.Unpin(pid, i%3 == 0, wal.LSN(i+1))
	}
	if string(held.Slots[0].Value) != "pinned" {
		t.Fatalf("pinned page changed: %+v", held.Slots[0])
	}
}

// TestPoolCrashNeverReusesPinnedFrame: a holder may still write through a
// page pinned across Crash, so no later miss may decode into it.
func TestPoolCrashNeverReusesPinnedFrame(t *testing.T) {
	disk := storage.NewMemDisk()
	pids := allocPages(t, disk, 4)
	pool := NewPool(disk, 2, nil)
	held, err := pool.Fetch(pids[0])
	if err != nil {
		t.Fatal(err)
	}
	pool.Crash()
	held.Slots[0] = storage.Slot{Used: true, Object: 1, Value: []byte("late write")}
	for i := 0; i < 40; i++ {
		pid := pids[i%4]
		pg, err := pool.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		if pg == held {
			t.Fatalf("page %d reused a frame pinned across Crash", pid)
		}
		if pg.Slots[0].Used {
			t.Fatalf("page %d sees the stranded holder's write", pid)
		}
		pool.Unpin(pid, false, wal.NilLSN)
	}
	if string(held.Slots[0].Value) != "late write" {
		t.Fatalf("page pinned across Crash was overwritten: %+v", held.Slots[0])
	}
}

// TestFlushAllForcesOnceInPageOrder: N dirty frames cost one WAL force,
// through the highest pageLSN and before any write, and reach the disk in
// ascending PageID order.
func TestFlushAllForcesOnceInPageOrder(t *testing.T) {
	mem := storage.NewMemDisk()
	pids := allocPages(t, mem, 5)
	var events []string
	disk := &recordingDisk{MemDisk: mem, events: &events}
	var forced []wal.LSN
	pool := NewPool(disk, len(pids), func(lsn wal.LSN) error {
		forced = append(forced, lsn)
		events = append(events, "force")
		return nil
	})
	reg := obs.NewRegistry()
	pool.Instrument(reg)
	for i, pid := range []storage.PageID{3, 0, 4, 1, 2} {
		pg, err := pool.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		pg.LSN = wal.LSN(10 + i)
		pool.Unpin(pid, true, pg.LSN)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("buffer.wal_forces").Load(); n != 1 {
		t.Fatalf("buffer.wal_forces = %d for %d dirty frames, want 1", n, len(pids))
	}
	if !slices.Equal(forced, []wal.LSN{14}) {
		t.Fatalf("log forced through %v, want [14]", forced)
	}
	want := []string{"force", "write 0", "write 1", "write 2", "write 3", "write 4"}
	if !slices.Equal(events, want) {
		t.Fatalf("device saw %v, want %v", events, want)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(want) {
		t.Fatalf("a clean pool's FlushAll did I/O: %v", events[len(want):])
	}
}

// recordingDisk logs the order of page writes.
type recordingDisk struct {
	*storage.MemDisk
	events *[]string
}

func (d *recordingDisk) WritePage(pid storage.PageID, p *storage.Page) error {
	*d.events = append(*d.events, fmt.Sprintf("write %d", pid))
	return d.MemDisk.WritePage(pid, p)
}

// TestPoolConcurrentReuse runs four goroutines of Prefault, Fetch, write
// and Unpin over a pool far smaller than their pages, so frames are
// recycled between goroutines constantly, and checks every value read
// against a shadow of what that goroutine wrote.  Each goroutine owns its
// pages (the engines' latch serializes access to one page); the pool and
// its frames are what they share.  Run it under -race.
func TestPoolConcurrentReuse(t *testing.T) {
	const (
		workers = 4
		perW    = 4
		ops     = 2000
		slots   = 3
	)
	disk := storage.NewMemDisk()
	pids := allocPages(t, disk, workers*perW)
	pool := NewPool(disk, workers, nil)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	shadows := make([]map[storage.PageID][slots][]byte, workers)
	for w := 0; w < workers; w++ {
		shadow := make(map[storage.PageID][slots][]byte)
		shadows[w] = shadow
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < ops; i++ {
				pid := pids[w*perW+rng.Intn(perW)]
				if rng.Intn(3) == 0 {
					if err := pool.Prefault(pid); err != nil {
						errs <- err
						return
					}
					continue
				}
				pg, err := pool.Fetch(pid)
				if err != nil {
					errs <- err
					return
				}
				want := shadow[pid]
				for s := 0; s < slots; s++ {
					if !bytes.Equal(pg.Slots[s].Value, want[s]) {
						pool.Unpin(pid, false, wal.NilLSN)
						errs <- fmt.Errorf("worker %d op %d: page %d slot %d = %q, want %q", w, i, pid, s, pg.Slots[s].Value, want[s])
						return
					}
				}
				s := rng.Intn(slots)
				v := bytes.Repeat([]byte{byte('a' + w), byte(i)}, rng.Intn(storage.MaxValueSize/2+1))
				pg.Slots[s].Used = true
				pg.Slots[s].Value = append(pg.Slots[s].Value[:0], v...)
				pg.LSN = wal.LSN(i + 1)
				want[s] = v
				shadow[pid] = want
				if err := pool.Unpin(pid, true, pg.LSN); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for _, shadow := range shadows {
		for pid, want := range shadow {
			got, err := disk.ReadPage(pid)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < slots; s++ {
				if !bytes.Equal(got.Slots[s].Value, want[s]) {
					t.Fatalf("disk page %d slot %d = %q, want %q", pid, s, got.Slots[s].Value, want[s])
				}
			}
		}
	}
}
