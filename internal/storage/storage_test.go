package storage

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"ariesrh/internal/wal"
)

func TestPageMarshalRoundTrip(t *testing.T) {
	p := &Page{LSN: 12345}
	p.Slots[0] = Slot{Used: true, Object: 7, Value: []byte("hello")}
	p.Slots[3] = Slot{Used: true, Object: 9, Value: bytes.Repeat([]byte{0xAB}, MaxValueSize)}
	buf, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != PageSize {
		t.Fatalf("marshal produced %d bytes", len(buf))
	}
	got, err := UnmarshalPage(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.LSN != p.LSN {
		t.Fatalf("LSN = %d, want %d", got.LSN, p.LSN)
	}
	for i := range p.Slots {
		if got.Slots[i].Used != p.Slots[i].Used || got.Slots[i].Object != p.Slots[i].Object ||
			!bytes.Equal(got.Slots[i].Value, p.Slots[i].Value) {
			t.Fatalf("slot %d mismatch: got %+v want %+v", i, got.Slots[i], p.Slots[i])
		}
	}
}

func TestPageMarshalRejectsOversizedValue(t *testing.T) {
	p := &Page{}
	p.Slots[0] = Slot{Used: true, Object: 1, Value: make([]byte, MaxValueSize+1)}
	if _, err := p.Marshal(); err == nil {
		t.Fatal("oversized value accepted")
	}
}

func TestPageChecksumDetectsCorruption(t *testing.T) {
	p := &Page{LSN: 1}
	p.Slots[0] = Slot{Used: true, Object: 1, Value: []byte("v")}
	buf, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	buf[100] ^= 0xFF
	if _, err := UnmarshalPage(buf); err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestPageRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(lsn uint64, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := &Page{LSN: wal.LSN(lsn)}
		for i := range p.Slots {
			if r.Intn(2) == 0 {
				continue
			}
			v := make([]byte, r.Intn(MaxValueSize+1))
			r.Read(v)
			p.Slots[i] = Slot{Used: true, Object: wal.ObjectID(r.Uint64()), Value: v}
		}
		buf, err := p.Marshal()
		if err != nil {
			return false
		}
		got, err := UnmarshalPage(buf)
		if err != nil || got.LSN != p.LSN {
			return false
		}
		for i := range p.Slots {
			if got.Slots[i].Used != p.Slots[i].Used || got.Slots[i].Object != p.Slots[i].Object ||
				!bytes.Equal(got.Slots[i].Value, p.Slots[i].Value) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPageFreeSlot(t *testing.T) {
	p := &Page{}
	if p.FreeSlot() != 0 {
		t.Fatalf("empty page free slot = %d", p.FreeSlot())
	}
	for i := range p.Slots {
		p.Slots[i].Used = true
	}
	if p.FreeSlot() != -1 {
		t.Fatal("full page reported a free slot")
	}
	p.Slots[5].Used = false
	if p.FreeSlot() != 5 {
		t.Fatalf("free slot = %d, want 5", p.FreeSlot())
	}
}

func testDisk(t *testing.T, d DiskManager) {
	t.Helper()
	if d.NumPages() != 0 {
		t.Fatalf("fresh disk has %d pages", d.NumPages())
	}
	pid, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if pid != 0 || d.NumPages() != 1 {
		t.Fatalf("first page id = %d, pages = %d", pid, d.NumPages())
	}
	p := &Page{LSN: 99}
	p.Slots[1] = Slot{Used: true, Object: 4, Value: []byte("val")}
	if err := d.WritePage(pid, p); err != nil {
		t.Fatal(err)
	}
	got, err := readFresh(d, pid)
	if err != nil {
		t.Fatal(err)
	}
	if got.LSN != 99 || !got.Slots[1].Used || string(got.Slots[1].Value) != "val" {
		t.Fatalf("read back %+v", got)
	}
	if err := d.ReadPageInto(5, got); err == nil {
		t.Fatal("read of unallocated page succeeded")
	}
	if err := d.WritePage(5, p); err == nil {
		t.Fatal("write of unallocated page succeeded")
	}
	s := d.Stats()
	if s.Reads == 0 || s.Writes == 0 {
		t.Fatalf("stats not counted: %+v", s)
	}
}

func TestMemDisk(t *testing.T) { testDisk(t, NewMemDisk()) }

func TestFileDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	d, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	testDisk(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: pages persist.
	d2, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.NumPages() != 1 {
		t.Fatalf("reopened disk has %d pages", d2.NumPages())
	}
	got, err := d2.ReadPage(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.LSN != 99 {
		t.Fatalf("reopened page LSN = %d", got.LSN)
	}
}
