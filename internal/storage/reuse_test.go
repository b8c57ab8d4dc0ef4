package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
	"unsafe"

	"ariesrh/internal/wal"
)

// image returns the encoded form of p.
func image(t testing.TB, p *Page) []byte {
	t.Helper()
	buf, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// samePage reports whether a and b are identical down to where each slot's
// Value points, which is what "an error leaves the page unchanged" means
// for a page whose values are views of its own backing array.
func samePage(a, b *Page) bool {
	if a.LSN != b.LSN || a.vals != b.vals {
		return false
	}
	for i := range a.Slots {
		x, y := a.Slots[i], b.Slots[i]
		if x.Used != y.Used || x.Object != y.Object || len(x.Value) != len(y.Value) ||
			cap(x.Value) != cap(y.Value) || unsafe.SliceData(x.Value) != unsafe.SliceData(y.Value) {
			return false
		}
	}
	return true
}

// TestPageUnmarshalIntoReusedPage decodes a page into one that still
// holds another page's contents: a slot the incoming image leaves empty
// must read empty, and the reused page must re-encode to the image.
func TestPageUnmarshalIntoReusedPage(t *testing.T) {
	old := &Page{LSN: 40}
	old.Slots[5] = Slot{Used: true, Object: 11, Value: bytes.Repeat([]byte{0xCD}, 100)}
	old.Slots[6] = Slot{Used: true, Object: 12, Value: []byte("kept")}
	victim, err := UnmarshalPage(image(t, old))
	if err != nil {
		t.Fatal(err)
	}

	in := &Page{LSN: 41}
	in.Slots[6] = Slot{Used: true, Object: 13, Value: []byte("new")}
	img := image(t, in)
	if err := victim.Unmarshal(img); err != nil {
		t.Fatal(err)
	}
	if s := victim.Slots[5]; s.Used || s.Object != 0 || len(s.Value) != 0 {
		t.Fatalf("slot 5 kept the evicted page's contents: %+v", s)
	}
	if s := victim.Slots[6]; !s.Used || s.Object != 13 || string(s.Value) != "new" {
		t.Fatalf("slot 6 = %+v", s)
	}
	if victim.LSN != 41 {
		t.Fatalf("LSN = %d, want 41", victim.LSN)
	}
	if got := image(t, victim); !bytes.Equal(got, img) {
		t.Fatal("reused page does not re-encode to the disk image")
	}
}

// TestPageUnmarshalValuesStayInSlot checks the full-slice cap: a
// maximal in-place append to one decoded slot leaves its neighbour alone.
func TestPageUnmarshalValuesStayInSlot(t *testing.T) {
	src := &Page{LSN: 1}
	src.Slots[0] = Slot{Used: true, Object: 1, Value: []byte("a")}
	src.Slots[1] = Slot{Used: true, Object: 2, Value: []byte("neighbour")}
	p, err := UnmarshalPage(image(t, src))
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Slots {
		if c := cap(p.Slots[i].Value); c != MaxValueSize {
			t.Fatalf("slot %d cap = %d, want %d", i, c, MaxValueSize)
		}
	}
	p.Slots[0].Value = append(p.Slots[0].Value[:0], bytes.Repeat([]byte{'z'}, MaxValueSize)...)
	if string(p.Slots[1].Value) != "neighbour" {
		t.Fatalf("slot 1 = %q after a full append to slot 0", p.Slots[1].Value)
	}
}

// withCRC recomputes buf's checksum so a structural defect, not the CRC,
// is what the decoder has to catch.
func withCRC(buf []byte) []byte {
	binary.LittleEndian.PutUint32(buf[8:], crc32.ChecksumIEEE(buf[12:]))
	return buf
}

func TestPageUnmarshalErrorLeavesPageUnchanged(t *testing.T) {
	src := &Page{LSN: 7}
	src.Slots[0] = Slot{Used: true, Object: 3, Value: []byte("before")}
	good := image(t, src)

	other := &Page{LSN: 8}
	other.Slots[0] = Slot{Used: true, Object: 4, Value: []byte("after")}
	badCRC := image(t, other)
	badCRC[100] ^= 0xFF
	longSlot := image(t, other)
	// The last slot's length is checked after every earlier slot would
	// have decoded, had the decoder written as it went.
	binary.LittleEndian.PutUint16(longSlot[pageHeaderSize+(SlotsPerPage-1)*slotSize+9:], MaxValueSize+1)
	withCRC(longSlot)
	slotCount := image(t, other)
	binary.LittleEndian.PutUint16(slotCount[12:], SlotsPerPage-1)
	withCRC(slotCount)

	for name, buf := range map[string][]byte{
		"bad crc":       badCRC,
		"slot too long": longSlot,
		"slot count":    slotCount,
		"short buffer":  good[:PageSize-1],
		"nil buffer":    nil,
		"long buffer":   append(append([]byte(nil), good...), 0),
	} {
		p, err := UnmarshalPage(good)
		if err != nil {
			t.Fatal(err)
		}
		before := *p // its Values still point into p's rows
		if err := p.Unmarshal(buf); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if !samePage(p, &before) {
			t.Fatalf("%s: a rejected image changed the page", name)
		}
	}
}

// The counted allocation guards: decoding into an existing page and a
// MemDisk write-back allocate nothing.

func TestPageUnmarshalAllocations(t *testing.T) {
	src := &Page{LSN: 3}
	for i := range src.Slots {
		src.Slots[i] = Slot{Used: true, Object: wal.ObjectID(i), Value: bytes.Repeat([]byte{byte(i)}, i)}
	}
	buf := image(t, src)
	p := new(Page)
	if n := testing.AllocsPerRun(100, func() {
		if err := p.Unmarshal(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Unmarshal into an existing page: %.2f allocs, want 0", n)
	}
}

func TestMemDiskWritePageAllocations(t *testing.T) {
	d := NewMemDisk()
	pid, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	p := &Page{LSN: 5}
	p.Slots[2] = Slot{Used: true, Object: 9, Value: []byte("value")}
	if n := testing.AllocsPerRun(100, func() {
		if err := d.WritePage(pid, p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("MemDisk.WritePage: %.2f allocs, want 0", n)
	}
	got, err := d.ReadPage(pid)
	if err != nil || string(got.Slots[2].Value) != "value" {
		t.Fatalf("read back %+v, %v", got, err)
	}
}

// TestMemDiskInPlaceWriteIsDeterministic: encoding over an old image
// leaves none of its bytes behind, so the stored image is exactly what a
// fresh Marshal produces.
func TestMemDiskInPlaceWriteIsDeterministic(t *testing.T) {
	d := NewMemDisk()
	pid, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	long := &Page{LSN: 1}
	long.Slots[0] = Slot{Used: true, Object: 1, Value: bytes.Repeat([]byte{0xFF}, MaxValueSize)}
	if err := d.WritePage(pid, long); err != nil {
		t.Fatal(err)
	}
	short := &Page{LSN: 2}
	short.Slots[0] = Slot{Used: true, Object: 1, Value: []byte("s")}
	if err := d.WritePage(pid, short); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.pages[pid], image(t, short)) {
		t.Fatal("in-place write left bytes of the previous image behind")
	}
}

// TestMemDiskRejectedWriteKeepsImage: an oversized value is refused
// before the stored image is overwritten in place.
func TestMemDiskRejectedWriteKeepsImage(t *testing.T) {
	d := NewMemDisk()
	pid, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	p := &Page{LSN: 5}
	p.Slots[0] = Slot{Used: true, Object: 1, Value: []byte("stable")}
	if err := d.WritePage(pid, p); err != nil {
		t.Fatal(err)
	}
	bad := &Page{LSN: 6}
	bad.Slots[3] = Slot{Used: true, Object: 2, Value: make([]byte, MaxValueSize+1)}
	if err := d.WritePage(pid, bad); err == nil {
		t.Fatal("oversized value written")
	}
	got, err := d.ReadPage(pid)
	if err != nil || got.LSN != 5 || string(got.Slots[0].Value) != "stable" {
		t.Fatalf("stored image after a rejected write: %+v, %v", got, err)
	}
}
