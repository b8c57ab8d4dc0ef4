package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Binary layout of an encoded record:
//
//	u32 bodyLen | u32 crc32(body) | body
//
// body:
//
//	u8  type
//	u64 lsn
//	u32 txid
//	u64 prevLSN
//	... type-specific fields ...
//
// All integers are little-endian.  The frame is self-describing so a log can
// be rescanned from byte 0 after a crash, and the CRC detects torn tails.
//
// A delegate record (Fig. 6) carries tor, tee, torBC, teeBC and one object
// after the header.  A delegate-set record serves a whole delegate(tor,
// tee) with one pair: its header's txid and prevLSN are tor and torBC, so
// it stores only
//
//	u32 tee | u64 teeBC | uvarint count | count × uvarint object delta
//
// with the objects strictly ascending, the first delta from zero and each
// later one from its predecessor (so every later delta is at least 1).
// Every uvarint is minimal and the count is at least 1; the decoder
// rejects anything else, so an accepted body re-encodes to the same bytes.

// ErrCorrupt is returned when a record frame fails its checksum or is
// structurally malformed.
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrTruncated is returned when the buffer ends before the frame does — a
// torn tail after a crash, recoverable by dropping the partial frame.  It
// wraps ErrCorrupt, so errors.Is(err, ErrCorrupt) also holds.
var ErrTruncated = errors.New("wal: truncated record")

const frameHeaderSize = 8

type recordEncoder struct{ buf []byte }

func (e *recordEncoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *recordEncoder) u16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *recordEncoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *recordEncoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

func (e *recordEncoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// objectSet writes a delegate set: its count, then each object as its
// distance from the one before.
func (e *recordEncoder) objectSet(objs []ObjectID) error {
	if len(objs) == 0 {
		return errors.New("wal: empty delegate set")
	}
	e.uvarint(uint64(len(objs)))
	var prev ObjectID
	for i, obj := range objs {
		if i > 0 && obj <= prev {
			return fmt.Errorf("wal: delegate set not strictly ascending at index %d", i)
		}
		e.uvarint(uint64(obj - prev))
		prev = obj
	}
	return nil
}

func (e *recordEncoder) bytes16(p []byte) {
	if len(p) > 0xFFFF {
		panic("wal: image larger than 64 KiB")
	}
	e.u16(uint16(len(p)))
	e.buf = append(e.buf, p...)
}

func (e *recordEncoder) bytes32(p []byte) {
	e.u32(uint32(len(p)))
	e.buf = append(e.buf, p...)
}

type recordDecoder struct {
	buf []byte
	off int
	err error
}

// take returns the next n bytes of the body, or nil — recording
// ErrCorrupt — once the body is exhausted.
func (d *recordDecoder) take(n int) []byte {
	if d.err != nil || d.off+n > len(d.buf) {
		d.err = ErrCorrupt
		return nil
	}
	p := d.buf[d.off : d.off+n]
	d.off += n
	return p
}

func (d *recordDecoder) u8() uint8 {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *recordDecoder) u16() uint16 {
	if p := d.take(2); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

func (d *recordDecoder) u32() uint32 {
	if p := d.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (d *recordDecoder) u64() uint64 {
	if p := d.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// uvarint reads one minimal unsigned varint: a longer encoding of the
// same value (a last byte of zero) is corrupt, because it would not
// re-encode to the bytes it was read from.
func (d *recordDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 || (n > 1 && d.buf[d.off+n-1] == 0) {
		d.err = ErrCorrupt
		return 0
	}
	d.off += n
	return v
}

// objectSet reads a delegate set written by recordEncoder.objectSet.  A
// zero count, a count larger than the bytes left (each object takes at
// least one), a repeated object and a sum past the top of the ID space
// are all corrupt.
func (d *recordDecoder) objectSet() []ObjectID {
	n := d.uvarint()
	if d.err != nil || n == 0 || n > uint64(len(d.buf)-d.off) {
		d.err = ErrCorrupt
		return nil
	}
	objs := make([]ObjectID, n)
	var prev ObjectID
	for i := range objs {
		delta := ObjectID(d.uvarint())
		obj := prev + delta
		if i > 0 && (delta == 0 || obj < prev) {
			d.err = ErrCorrupt
		}
		if d.err != nil {
			return nil
		}
		objs[i], prev = obj, obj
	}
	return objs
}

// bytes16 and bytes32 copy a length-prefixed image; an empty one decodes
// as nil.
func (d *recordDecoder) bytes16() []byte { return append([]byte(nil), d.take(int(d.u16()))...) }
func (d *recordDecoder) bytes32() []byte { return append([]byte(nil), d.take(int(d.u32()))...) }

// EncodeRecord serializes r into a framed, checksummed byte slice.
func EncodeRecord(r *Record) ([]byte, error) {
	return appendRecord(make([]byte, 0, frameHeaderSize+64+len(r.Before)+len(r.After)+len(r.Payload)+binary.MaxVarintLen64*len(r.Objects)), r)
}

// appendRecord appends r's frame to dst and returns the extended slice.
// On error the bytes of dst are unchanged (its spare capacity may not be).
func appendRecord(dst []byte, r *Record) ([]byte, error) {
	start := len(dst)
	e := recordEncoder{buf: append(dst, make([]byte, frameHeaderSize)...)}
	e.u8(uint8(r.Type))
	e.u64(uint64(r.LSN))
	e.u32(uint32(r.TxID))
	e.u64(uint64(r.PrevLSN))
	switch r.Type {
	case TypeBegin, TypeCommit, TypeAbort, TypeEnd, TypeCheckpointBegin:
		// header only
	case TypeUpdate:
		e.u64(uint64(r.Object))
		e.bytes16(r.Before)
		e.bytes16(r.After)
	case TypeCLR:
		e.u64(uint64(r.Object))
		e.u64(uint64(r.UndoNextLSN))
		e.u64(uint64(r.Compensates))
		if r.Logical {
			e.u8(1)
			e.u64(uint64(r.Delta))
		} else {
			e.u8(0)
			e.bytes16(r.Before)
		}
	case TypeIncrement:
		e.u64(uint64(r.Object))
		e.u64(uint64(r.Delta))
	case TypeDelegate:
		e.u32(uint32(r.Tor))
		e.u32(uint32(r.Tee))
		e.u64(uint64(r.TorPrev))
		e.u64(uint64(r.TeePrev))
		e.u64(uint64(r.Object))
	case TypePrepare:
		e.u64(r.GID)
		e.u32(r.Shard)
	case TypeDelegateOut:
		e.u32(uint32(r.Tor))
		e.u32(uint32(r.Tee))
		e.u64(uint64(r.TorPrev))
		e.u64(uint64(r.TeePrev))
		e.u64(uint64(r.Object))
		e.u64(r.GID)
		e.u32(r.Shard)
	case TypeDelegateIn:
		e.u64(uint64(r.Object))
		e.u64(r.GID)
		e.u32(r.Shard)
	case TypeDelegateSet:
		// tor and torBC are the header's txid and prevLSN.
		e.u32(uint32(r.Tee))
		e.u64(uint64(r.TeePrev))
		if err := e.objectSet(r.Objects); err != nil {
			return nil, err
		}
	case TypeCheckpointEnd:
		e.bytes32(r.Payload)
	default:
		return nil, fmt.Errorf("wal: cannot encode record type %v", r.Type)
	}
	frame := e.buf[start:]
	body := frame[frameHeaderSize:]
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(body))
	return e.buf, nil
}

// frameBody checks the frame at the front of p — length and checksum —
// and returns its body and the frame's total size.
func frameBody(p []byte) ([]byte, int, error) {
	if len(p) < frameHeaderSize {
		return nil, 0, fmt.Errorf("%w (%w): frame header", ErrTruncated, ErrCorrupt)
	}
	bodyLen := int(binary.LittleEndian.Uint32(p[0:]))
	sum := binary.LittleEndian.Uint32(p[4:])
	if len(p) < frameHeaderSize+bodyLen {
		return nil, 0, fmt.Errorf("%w (%w): body wants %d bytes", ErrTruncated, ErrCorrupt, bodyLen)
	}
	body := p[frameHeaderSize : frameHeaderSize+bodyLen]
	if crc32.ChecksumIEEE(body) != sum {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return body, frameHeaderSize + bodyLen, nil
}

// DecodeRecord parses one framed record from the front of p, returning the
// record and the total number of bytes consumed.  It returns ErrCorrupt
// (possibly wrapped) when the frame is truncated or fails its checksum.
func DecodeRecord(p []byte) (*Record, int, error) {
	body, n, err := frameBody(p)
	if err != nil {
		return nil, 0, err
	}
	d := recordDecoder{buf: body}
	r := &Record{}
	r.Type = RecordType(d.u8())
	r.LSN = LSN(d.u64())
	r.TxID = TxID(d.u32())
	r.PrevLSN = LSN(d.u64())
	switch r.Type {
	case TypeBegin, TypeCommit, TypeAbort, TypeEnd, TypeCheckpointBegin:
	case TypeUpdate:
		r.Object = ObjectID(d.u64())
		r.Before = d.bytes16()
		r.After = d.bytes16()
	case TypeCLR:
		r.Object = ObjectID(d.u64())
		r.UndoNextLSN = LSN(d.u64())
		r.Compensates = LSN(d.u64())
		if d.u8() == 1 {
			r.Logical = true
			r.Delta = int64(d.u64())
		} else {
			r.Before = d.bytes16()
		}
	case TypeIncrement:
		r.Object = ObjectID(d.u64())
		r.Delta = int64(d.u64())
	case TypeDelegate:
		r.Tor = TxID(d.u32())
		r.Tee = TxID(d.u32())
		r.TorPrev = LSN(d.u64())
		r.TeePrev = LSN(d.u64())
		r.Object = ObjectID(d.u64())
	case TypePrepare:
		r.GID = d.u64()
		r.Shard = d.u32()
	case TypeDelegateOut:
		r.Tor = TxID(d.u32())
		r.Tee = TxID(d.u32())
		r.TorPrev = LSN(d.u64())
		r.TeePrev = LSN(d.u64())
		r.Object = ObjectID(d.u64())
		r.GID = d.u64()
		r.Shard = d.u32()
	case TypeDelegateIn:
		r.Object = ObjectID(d.u64())
		r.GID = d.u64()
		r.Shard = d.u32()
	case TypeDelegateSet:
		r.Tor, r.TorPrev = r.TxID, r.PrevLSN
		r.Tee = TxID(d.u32())
		r.TeePrev = LSN(d.u64())
		r.Objects = d.objectSet()
	case TypeCheckpointEnd:
		r.Payload = d.bytes32()
	default:
		return nil, 0, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, uint8(r.Type))
	}
	if d.err != nil {
		return nil, 0, d.err
	}
	if d.off != len(body) {
		return nil, 0, fmt.Errorf("%w: %d trailing bytes in body", ErrCorrupt, len(body)-d.off)
	}
	return r, n, nil
}
