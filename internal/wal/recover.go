package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// segmentImage indexes one segment image: the record frames that
// survived on the device, their offsets, and whether the image ended in a
// torn (partially written) frame.  The frames are validated, not decoded.
type segmentImage struct {
	hdr     segmentHeader
	data    []byte // frame bytes that validated cleanly (header excluded)
	offsets []int
	torn    bool // image had trailing bytes that did not validate
}

// scanSegmentImage validates and indexes a raw segment image (header +
// frames): every frame's length and checksum, and LSN density from the
// header's first LSN.  A trailing partial frame — the signature of a
// crash between WriteAt and Sync — is reported via torn, not as an error;
// density violations and interior corruption are errors.
func scanSegmentImage(buf []byte) (*segmentImage, error) {
	hdr, err := decodeSegmentHeader(buf)
	if err != nil {
		return nil, err
	}
	d := &segmentImage{hdr: hdr}
	body := buf[segmentHeaderSize:]
	off := 0
	for off < len(body) {
		frame, n, err := frameBody(body[off:])
		if err != nil {
			if errors.Is(err, ErrTruncated) {
				d.torn = true
				break
			}
			return nil, fmt.Errorf("segment %d at offset %d: %w", hdr.num, off, err)
		}
		// The body opens with u8 type, u64 LSN (see record.go).
		want := hdr.firstLSN + LSN(len(d.offsets))
		if len(frame) < 9 || LSN(binary.LittleEndian.Uint64(frame[1:])) != want {
			return nil, fmt.Errorf("%w: segment %d record at offset %d does not carry LSN %d",
				ErrCorrupt, hdr.num, off, want)
		}
		d.offsets = append(d.offsets, off)
		off += n
	}
	d.data = body[:off]
	return d, nil
}

// loadFromDir (re)initializes the log from its directory: pick the
// authoritative manifest, validate and index every listed segment,
// repair the torn tail a crash may have left, and sweep files no
// generation references.
//
// What recovery tolerates, and why it is enough: flushing writes+syncs
// segment chunks in strict LSN order, so at any instant at most ONE
// segment device carries unsynced frame bytes.  A crash therefore leaves
// (a) a clean prefix of fully durable segments, (b) at most one segment
// with a shorter-than-volatile — possibly mid-frame torn — frame run,
// and (c) possibly empty later segments (their headers were synced by
// rotation but no frames ever reached them).  Decodable frames appearing
// AFTER such a gap would mean the device reordered a sync barrier and
// are refused as corruption.  A torn or missing higher manifest
// generation (crash mid-rotation or mid-archive) is ignored in favor of
// the previous generation, whose files are all still present because
// files are deleted only after the generation dropping them is durable.
func (l *Log) loadFromDir() error {
	names, err := l.dir.List()
	if err != nil {
		return fmt.Errorf("wal: open: %w", err)
	}
	m, err := pickManifest(l.dir, names)
	if err != nil {
		return fmt.Errorf("wal: open: %w", err)
	}
	if m == nil {
		return l.initFreshDir(names)
	}
	if len(m.segs) == 0 {
		return fmt.Errorf("%w: manifest lists no segments", ErrCorrupt)
	}

	l.base = m.base
	l.manifestGen = m.gen
	head := m.base
	if m.segs[0].firstLSN <= m.base {
		// The first segment retains records at or below the archived
		// base (archive is logical-first, physical at segment
		// granularity); continuity is judged from its first record.
		head = m.segs[0].firstLSN - 1
	}
	var live []*segment
	var dropped []uint64
	for _, e := range m.segs {
		dev, err := l.dir.Open(segmentName(e.num))
		if err != nil {
			return fmt.Errorf("wal: open segment %d: %w", e.num, err)
		}
		buf, err := readAll(dev)
		if err != nil {
			return fmt.Errorf("wal: read segment %d: %w", e.num, err)
		}
		d, err := scanSegmentImage(buf)
		if err != nil {
			// A listed segment's header was synced before the manifest
			// listing it; an unreadable header here is real corruption,
			// not a crash artifact.
			return fmt.Errorf("wal: %w", err)
		}
		if d.hdr.num != e.num || d.hdr.firstLSN != e.firstLSN {
			return fmt.Errorf("%w: segment %d header (num %d, firstLSN %d) disagrees with manifest entry (firstLSN %d)",
				ErrCorrupt, e.num, d.hdr.num, d.hdr.firstLSN, e.firstLSN)
		}
		if e.firstLSN > head+1 {
			// Unreachable past the durable head: the segment was created
			// by a rotation whose volatile tail died with the process.
			if len(d.offsets) > 0 {
				return fmt.Errorf("%w: segment %d holds records %d.. after durable head %d",
					ErrCorrupt, e.num, e.firstLSN, head)
			}
			dropped = append(dropped, e.num)
			continue
		}
		if len(live) > 0 && e.firstLSN != head+1 {
			return fmt.Errorf("%w: segment %d first LSN %d overlaps durable head %d",
				ErrCorrupt, e.num, e.firstLSN, head)
		}
		if d.torn {
			// Discard the torn trailing frame from the device so future
			// appends and flushes extend a clean image.
			if err := dev.Truncate(segmentHeaderSize + int64(len(d.data))); err != nil {
				return fmt.Errorf("wal: truncate torn segment %d: %w", e.num, err)
			}
			if err := dev.Sync(); err != nil {
				return fmt.Errorf("wal: sync torn segment %d: %w", e.num, err)
			}
		}
		live = append(live, &segment{
			num:          e.num,
			firstLSN:     e.firstLSN,
			dev:          dev,
			data:         d.data,
			offsets:      d.offsets,
			flushedBytes: int64(len(d.data)),
		})
		head = e.firstLSN + LSN(len(d.offsets)) - 1
	}
	if head < l.base {
		return fmt.Errorf("%w: durable head %d below archived base %d", ErrCorrupt, head, l.base)
	}

	l.segs = live
	l.flushedLSN = head
	if len(dropped) > 0 {
		// Make the pruned segment set durable BEFORE deleting any file:
		// a listed segment must always exist.
		if err := l.writeManifestLocked(l.base, manifestEntries(live)); err != nil {
			return err
		}
		for _, num := range dropped {
			_ = l.dir.Remove(segmentName(num))
		}
	}
	l.sweepStrays(names)
	l.met.segments.Set(int64(len(l.segs)))
	return nil
}

// initFreshDir initializes an empty directory: segment 1 plus manifest
// generation 1.  A directory with no decodable manifest but with segment
// record data is refused with ErrNoManifest — nothing says which
// segments are live, so silently re-initializing would discard records.
// Headerless or empty stray seg-/manifest- files (a crash during a
// previous fresh init) are removed; unknown names are left alone, the
// same policy as sweepStrays.
func (l *Log) initFreshDir(names []string) error {
	for _, name := range names {
		if num, ok := parseNumbered(name, "seg-"); ok {
			dev, err := l.dir.Open(name)
			if err != nil {
				return fmt.Errorf("wal: open: %w", err)
			}
			buf, err := readAll(dev)
			if err != nil {
				return fmt.Errorf("wal: open: %w", err)
			}
			if d, err := scanSegmentImage(buf); err == nil && len(d.offsets) > 0 {
				return fmt.Errorf("%w: segment %d holds records", ErrNoManifest, num)
			}
		} else if _, ok := parseNumbered(name, "manifest-"); !ok {
			continue // unknown name: not ours to delete
		}
		_ = l.dir.Remove(name)
	}
	dev, err := l.dir.Open(segmentName(1))
	if err != nil {
		return fmt.Errorf("wal: init: %w", err)
	}
	hdr := encodeSegmentHeader(segmentHeader{num: 1, firstLSN: 1})
	if _, err := dev.WriteAt(hdr, 0); err != nil {
		return fmt.Errorf("wal: init: %w", err)
	}
	if err := dev.Sync(); err != nil {
		return fmt.Errorf("wal: init: %w", err)
	}
	l.base = NilLSN
	l.manifestGen = 0
	l.flushedLSN = NilLSN
	l.segs = []*segment{{num: 1, firstLSN: 1, dev: dev}}
	if err := l.writeManifestLocked(NilLSN, manifestEntries(l.segs)); err != nil {
		return err
	}
	l.met.segments.Set(1)
	return nil
}

// sweepStrays removes files the authoritative state no longer references:
// manifest images of other generations and segment files outside the live
// set (leftovers of an interrupted rotation, archive or prune).  Failures
// are ignored — a stray is re-swept at the next open.
func (l *Log) sweepStrays(names []string) {
	liveSegs := make(map[uint64]struct{}, len(l.segs))
	for _, s := range l.segs {
		liveSegs[s.num] = struct{}{}
	}
	for _, name := range names {
		if gen, ok := parseNumbered(name, "manifest-"); ok {
			if gen != l.manifestGen {
				_ = l.dir.Remove(name)
			}
			continue
		}
		if num, ok := parseNumbered(name, "seg-"); ok {
			if _, live := liveSegs[num]; !live {
				_ = l.dir.Remove(name)
			}
			continue
		}
		// Unknown names are left alone.
	}
}

// ReadDurable decodes the durable record sequence of a log directory
// without opening a Log over it: the archived base plus every record the
// authoritative manifest's segments hold, in LSN order — including
// records at or below the base that their segment still retains (callers
// filter by LSN as needed).  It is read-only and tolerant exactly like
// recovery: a torn trailing frame or an empty trailing segment ends the
// sequence; it never repairs the directory.  Crash oracles use it to ask
// "what would recovery see?" of a post-crash image.
func ReadDurable(dir Dir) (base LSN, recs []*Record, err error) {
	names, err := dir.List()
	if err != nil {
		return NilLSN, nil, err
	}
	m, err := pickManifest(dir, names)
	if err != nil {
		return NilLSN, nil, err
	}
	if m == nil {
		return NilLSN, nil, nil
	}
	head := m.base
	if len(m.segs) > 0 && m.segs[0].firstLSN <= m.base {
		head = m.segs[0].firstLSN - 1
	}
	for _, e := range m.segs {
		dev, err := dir.Open(segmentName(e.num))
		if err != nil {
			return NilLSN, nil, err
		}
		buf, err := readAll(dev)
		if err != nil {
			return NilLSN, nil, err
		}
		d, err := scanSegmentImage(buf)
		if err != nil {
			return NilLSN, nil, err
		}
		if e.firstLSN > head+1 {
			break // durable sequence ends at the gap
		}
		for _, off := range d.offsets {
			r, _, err := DecodeRecord(d.data[off:])
			if err != nil {
				return NilLSN, nil, fmt.Errorf("segment %d at offset %d: %w", e.num, off, err)
			}
			recs = append(recs, r)
		}
		head = e.firstLSN + LSN(len(d.offsets)) - 1
		if d.torn {
			break
		}
	}
	return m.base, recs, nil
}
