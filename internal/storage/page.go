// Package storage implements the stable database storage the recovery
// engines operate on: fixed-size slotted pages holding object records, and
// disk managers (in-memory and file-backed) that persist them.
//
// Updates are done in place on the updated object (paper §2.1.1), so each
// object occupies a fixed slot on a fixed page once allocated; the physical
// before/after images in the WAL address objects, and the object directory
// (internal/object) maps ObjectID → (page, slot).
//
// Each page carries a pageLSN — the LSN of the last log record whose change
// is reflected in the page — which makes redo idempotent: a redo is applied
// only when the record's LSN exceeds the pageLSN.
package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"ariesrh/internal/wal"
)

// PageID identifies a page.  Pages are numbered densely from 0.
type PageID uint32

// Geometry of the page format.
const (
	// PageSize is the size of a page on disk in bytes.
	PageSize = 4096
	// MaxValueSize is the largest object value storable in a slot.
	MaxValueSize = 112
	// slotSize = used flag + object id + value length + value bytes.
	slotSize = 1 + 8 + 2 + MaxValueSize
	// pageHeaderSize = pageLSN + crc + slot count.
	pageHeaderSize = 8 + 4 + 2
	// SlotsPerPage is the number of object slots on each page.
	SlotsPerPage = (PageSize - pageHeaderSize) / slotSize
)

// Slot holds one object record inside a page.
type Slot struct {
	// Used reports whether the slot holds an object.
	Used bool
	// Object is the ID of the stored object.
	Object wal.ObjectID
	// Value is the object's current value (≤ MaxValueSize bytes).
	Value []byte
}

// Page is the in-memory form of a disk page.
type Page struct {
	// LSN is the pageLSN: the LSN of the last record applied to the page.
	LSN wal.LSN
	// Slots are the object records.
	Slots [SlotsPerPage]Slot
	// vals backs the slot values Unmarshal decodes: slot i's Value is a
	// view of vals[i], so decoding into a page allocates nothing.
	vals [SlotsPerPage][MaxValueSize]byte
}

// FreeSlot returns the index of an unused slot, or -1 if the page is full.
func (p *Page) FreeSlot() int {
	for i := range p.Slots {
		if !p.Slots[i].Used {
			return i
		}
	}
	return -1
}

// Marshal serializes the page into a fresh PageSize-byte buffer (see
// MarshalTo).
func (p *Page) Marshal() ([]byte, error) {
	buf := make([]byte, PageSize)
	if err := p.MarshalTo(buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// MarshalTo serializes the page into buf, which must be PageSize bytes,
// with a checksum over the payload.  buf is cleared first, so the padding
// and the checksum depend only on the page; an oversized value is
// reported before buf is touched.
func (p *Page) MarshalTo(buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("storage: page buffer is %d bytes, want %d", len(buf), PageSize)
	}
	for i := range p.Slots {
		if n := len(p.Slots[i].Value); n > MaxValueSize {
			return fmt.Errorf("storage: slot %d value %d bytes exceeds max %d", i, n, MaxValueSize)
		}
	}
	clear(buf)
	binary.LittleEndian.PutUint64(buf[0:], uint64(p.LSN))
	binary.LittleEndian.PutUint16(buf[12:], uint16(SlotsPerPage))
	off := pageHeaderSize
	for i := range p.Slots {
		s := &p.Slots[i]
		if s.Used {
			buf[off] = 1
		}
		binary.LittleEndian.PutUint64(buf[off+1:], uint64(s.Object))
		binary.LittleEndian.PutUint16(buf[off+9:], uint16(len(s.Value)))
		copy(buf[off+11:], s.Value)
		off += slotSize
	}
	sum := crc32.ChecksumIEEE(buf[12:]) // everything after the crc field
	binary.LittleEndian.PutUint32(buf[8:], sum)
	return nil
}

// UnmarshalPage parses a PageSize-byte buffer produced by Marshal into a
// fresh Page.
func UnmarshalPage(buf []byte) (*Page, error) {
	p := new(Page)
	if err := p.Unmarshal(buf); err != nil {
		return nil, err
	}
	return p, nil
}

// Unmarshal decodes a PageSize-byte buffer produced by Marshal into p,
// replacing its contents without allocating: slot i's Value becomes a view
// of p's own backing row, whose capacity is MaxValueSize, so an in-place
// append(Value[:0], ...) of a legal value stays inside its slot.  The
// buffer is validated in full (length, checksum, slot count, every slot
// length) before p is touched, so an error leaves p unchanged.
func (p *Page) Unmarshal(buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("storage: page buffer is %d bytes, want %d", len(buf), PageSize)
	}
	sum := binary.LittleEndian.Uint32(buf[8:])
	if crc32.ChecksumIEEE(buf[12:]) != sum {
		return fmt.Errorf("storage: page checksum mismatch")
	}
	if n := binary.LittleEndian.Uint16(buf[12:]); int(n) != SlotsPerPage {
		return fmt.Errorf("storage: page has %d slots, want %d", n, SlotsPerPage)
	}
	for i, off := 0, pageHeaderSize; i < SlotsPerPage; i, off = i+1, off+slotSize {
		if n := binary.LittleEndian.Uint16(buf[off+9:]); n > MaxValueSize {
			return fmt.Errorf("storage: slot %d declares %d value bytes", i, n)
		}
	}
	p.LSN = wal.LSN(binary.LittleEndian.Uint64(buf[0:]))
	off := pageHeaderSize
	for i := range p.Slots {
		s := &p.Slots[i]
		s.Used = buf[off] == 1
		s.Object = wal.ObjectID(binary.LittleEndian.Uint64(buf[off+1:]))
		n := int(binary.LittleEndian.Uint16(buf[off+9:]))
		s.Value = p.vals[i][:n]
		copy(s.Value, buf[off+11:])
		off += slotSize
	}
	return nil
}
