package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
)

// On-disk layout of a segmented log directory:
//
//	seg-<num>       segment image: segment header | record frames
//	manifest-<gen>  manifest image (one per generation, immutable)
//
// <num> and <gen> are 16-digit zero-padded lowercase hex.  A segment
// image is strictly append-only after its header is written; a manifest
// image is written whole exactly once and then synced.  The manifest
// with the highest generation that decodes (magic, version, CRC) is the
// authoritative one; a torn or partial higher generation — the signature
// of a crash mid-rotation or mid-archive — is simply ignored, which is
// what makes manifest updates crash-atomic without any in-place writes.
//
// Segment header (segmentHeaderSize bytes):
//
//	u32 magic "WSG1" | u32 reserved | u64 num | u64 firstLSN
//
// Manifest body:
//
//	u32 magic "WMF1" | u32 version | u64 gen | u64 base |
//	u32 count | count × { u64 num | u64 firstLSN } | u32 crc32
//
// The CRC covers every byte before it.  All integers little-endian.

// ErrNoManifest is returned when a log directory contains segment data
// but no decodable manifest — nothing says which segments are live, so
// opening must refuse rather than guess.
var ErrNoManifest = errors.New("wal: no valid manifest")

const (
	segmentMagic  uint32 = 0x31475357 // "WSG1"
	manifestMagic uint32 = 0x31464D57 // "WMF1"

	manifestVersion = 1

	segmentHeaderSize  = 24
	manifestFixedSize  = 24 // magic+version+gen+base
	manifestEntrySize  = 16
	manifestCRCSize    = 4
	manifestCountSize  = 4
	maxManifestEntries = 1 << 20 // hard sanity bound on decode
)

// SegmentHeaderSize is the size in bytes of the per-segment header that
// precedes the first record frame of a segment image.  Tools that decode
// a raw segment image directly skip this prefix and then read record
// frames with DecodeRecord.
const SegmentHeaderSize = segmentHeaderSize

// DefaultSegmentBytes is the rotation threshold used when LogOptions
// does not override it: once a segment's record bytes reach it, the next
// append opens a fresh segment.
const DefaultSegmentBytes = 1 << 20

// segmentName / manifestName build the canonical device names.
func segmentName(num uint64) string  { return fmt.Sprintf("seg-%016x", num) }
func manifestName(gen uint64) string { return fmt.Sprintf("manifest-%016x", gen) }

// parseNumbered extracts the hex suffix of a "<prefix><16 hex>" name;
// ok is false for any other shape.
func parseNumbered(name, prefix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	hex := name[len(prefix):]
	if len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// segmentHeader is the decoded fixed prefix of a segment image.
type segmentHeader struct {
	num      uint64
	firstLSN LSN
}

func encodeSegmentHeader(h segmentHeader) []byte {
	buf := make([]byte, segmentHeaderSize)
	binary.LittleEndian.PutUint32(buf[0:], segmentMagic)
	binary.LittleEndian.PutUint64(buf[8:], h.num)
	binary.LittleEndian.PutUint64(buf[16:], uint64(h.firstLSN))
	return buf
}

// decodeSegmentHeader parses the fixed header at the front of a segment
// image.  A buffer shorter than the header is reported as ErrTruncated
// (a segment created but torn before its header sync), any other
// malformation as ErrCorrupt.
func decodeSegmentHeader(p []byte) (segmentHeader, error) {
	if len(p) < segmentHeaderSize {
		return segmentHeader{}, fmt.Errorf("%w (%w): segment header", ErrTruncated, ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(p[0:]) != segmentMagic {
		return segmentHeader{}, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(p[4:]) != 0 {
		return segmentHeader{}, fmt.Errorf("%w: segment header reserved field is not zero", ErrCorrupt)
	}
	return segmentHeader{
		num:      binary.LittleEndian.Uint64(p[8:]),
		firstLSN: LSN(binary.LittleEndian.Uint64(p[16:])),
	}, nil
}

// manifestEntry names one live segment and the LSN of its first record.
type manifestEntry struct {
	num      uint64
	firstLSN LSN
}

// manifest is the decoded low-water-mark index of the log: the archived
// base and the ordered list of live segments.
type manifest struct {
	gen  uint64
	base LSN
	segs []manifestEntry
}

func encodeManifest(m *manifest) []byte {
	buf := make([]byte, 0, manifestFixedSize+manifestCountSize+len(m.segs)*manifestEntrySize+manifestCRCSize)
	buf = binary.LittleEndian.AppendUint32(buf, manifestMagic)
	buf = binary.LittleEndian.AppendUint32(buf, manifestVersion)
	buf = binary.LittleEndian.AppendUint64(buf, m.gen)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.base))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.segs)))
	for _, e := range m.segs {
		buf = binary.LittleEndian.AppendUint64(buf, e.num)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.firstLSN))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// decodeManifest parses a whole manifest image.  The declared entry
// count is validated against the buffer length BEFORE any allocation is
// sized from it, so a corrupt count cannot force an oversized
// preallocation (the same discipline as decodeCheckpoint).
func decodeManifest(p []byte) (*manifest, error) {
	if len(p) < manifestFixedSize+manifestCountSize+manifestCRCSize {
		return nil, fmt.Errorf("%w (%w): manifest", ErrTruncated, ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(p[0:]) != manifestMagic {
		return nil, fmt.Errorf("%w: bad manifest magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(p[4:]); v != manifestVersion {
		return nil, fmt.Errorf("%w: manifest version %d", ErrCorrupt, v)
	}
	count := int64(binary.LittleEndian.Uint32(p[manifestFixedSize:]))
	if count > maxManifestEntries {
		return nil, fmt.Errorf("%w: manifest declares %d segments", ErrCorrupt, count)
	}
	want := int64(manifestFixedSize+manifestCountSize+manifestCRCSize) + count*manifestEntrySize
	if int64(len(p)) < want {
		return nil, fmt.Errorf("%w (%w): manifest wants %d bytes, have %d", ErrTruncated, ErrCorrupt, want, len(p))
	}
	if int64(len(p)) > want {
		return nil, fmt.Errorf("%w: %d trailing manifest bytes", ErrCorrupt, int64(len(p))-want)
	}
	body := p[:want-manifestCRCSize]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(p[want-manifestCRCSize:]) {
		return nil, fmt.Errorf("%w: manifest checksum mismatch", ErrCorrupt)
	}
	m := &manifest{
		gen:  binary.LittleEndian.Uint64(p[8:]),
		base: LSN(binary.LittleEndian.Uint64(p[16:])),
		segs: make([]manifestEntry, 0, count),
	}
	off := manifestFixedSize + manifestCountSize
	for i := int64(0); i < count; i++ {
		m.segs = append(m.segs, manifestEntry{
			num:      binary.LittleEndian.Uint64(p[off:]),
			firstLSN: LSN(binary.LittleEndian.Uint64(p[off+8:])),
		})
		off += manifestEntrySize
	}
	// Structural sanity: segment numbers and first LSNs must be strictly
	// increasing, and the first segment must not start above base+1.
	for i := 1; i < len(m.segs); i++ {
		if m.segs[i].num <= m.segs[i-1].num || m.segs[i].firstLSN <= m.segs[i-1].firstLSN {
			return nil, fmt.Errorf("%w: manifest segments not strictly increasing", ErrCorrupt)
		}
	}
	if len(m.segs) > 0 && m.segs[0].firstLSN > m.base+1 {
		return nil, fmt.Errorf("%w: manifest base %d below first segment LSN %d", ErrCorrupt, m.base, m.segs[0].firstLSN)
	}
	return m, nil
}

// readAll reads the entire contents of a device.
func readAll(dev Store) ([]byte, error) {
	size, err := dev.Size()
	if err != nil {
		return nil, err
	}
	if size == 0 {
		return nil, nil
	}
	buf := make([]byte, size)
	if _, err := dev.ReadAt(buf, 0); err != nil {
		return nil, err
	}
	return buf, nil
}

// pickManifest scans names for manifest images and returns the decoded
// manifest with the highest generation that passes validation, or nil
// if none does.  Torn higher generations are skipped, not errors: an
// interrupted manifest write leaves exactly that shape behind.  A
// generation whose device cannot be opened or read is skipped the same
// way — a single unreadable higher generation must not block recovery
// when a valid older one exists; only if NO generation is usable is the
// first such error surfaced (rather than nil, which would let a fresh
// init discard the directory).
func pickManifest(dir Dir, names []string) (*manifest, error) {
	var gens []uint64
	for _, name := range names {
		if gen, ok := parseNumbered(name, "manifest-"); ok {
			gens = append(gens, gen)
		}
	}
	// Highest generation first.
	for i := 0; i < len(gens); i++ {
		for j := i + 1; j < len(gens); j++ {
			if gens[j] > gens[i] {
				gens[i], gens[j] = gens[j], gens[i]
			}
		}
	}
	var firstErr error
	for _, gen := range gens {
		dev, err := dir.Open(manifestName(gen))
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("manifest gen %d: %w", gen, err)
			}
			continue
		}
		buf, err := readAll(dev)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("manifest gen %d: %w", gen, err)
			}
			continue
		}
		m, err := decodeManifest(buf)
		if err != nil || m.gen != gen {
			continue // torn or stale image; fall back to an older gen
		}
		return m, nil
	}
	return nil, firstErr
}
