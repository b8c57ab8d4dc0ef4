package wal

import (
	"bytes"
	"errors"
	"testing"
)

// TestDecodeRecordTornPrefix pins the torn-tail contract exhaustively:
// every proper prefix of a valid frame must be rejected (never silently
// accepted, never panic), which is what makes the recovery rescan stop
// cleanly at a torn tail instead of replaying garbage.
func TestDecodeRecordTornPrefix(t *testing.T) {
	for _, r := range sampleRecords() {
		enc, err := EncodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(enc); cut++ {
			_, _, err := DecodeRecord(enc[:cut])
			if err == nil {
				t.Fatalf("type %v: prefix of %d/%d bytes decoded successfully", r.Type, cut, len(enc))
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("type %v: prefix error %v does not wrap ErrCorrupt", r.Type, err)
			}
		}
	}
}

// FuzzDecodeRecord checks that arbitrary bytes never panic the decoder and
// that anything it accepts re-encodes to the same bytes (round-trip
// stability — the property the log's crash rescan depends on).
func FuzzDecodeRecord(f *testing.F) {
	for _, r := range sampleRecords() {
		enc, err := EncodeRecord(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	// Torn-write prefixes: a crash mid-flush persists some prefix of the
	// last append, so the decoder must reject every cut of a valid frame
	// without panicking — that is what lets the recovery rescan stop
	// cleanly at the torn tail.
	for _, r := range sampleRecords() {
		enc, err := EncodeRecord(r)
		if err != nil {
			f.Fatal(err)
		}
		for _, cut := range []int{1, frameHeaderSize - 1, frameHeaderSize, frameHeaderSize + 1, len(enc) / 2, len(enc) - 1} {
			if cut > 0 && cut < len(enc) {
				f.Add(append([]byte(nil), enc[:cut]...))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeRecord(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		re, err := EncodeRecord(rec)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("round trip changed bytes:\n in  %x\n out %x", data[:n], re)
		}
	})
}

// FuzzDecodeManifest checks that arbitrary bytes never panic the
// manifest decoder — in particular that a corrupt entry count cannot
// force an oversized preallocation — and that anything it accepts
// re-encodes to the same bytes (a recovery pick must be deterministic).
func FuzzDecodeManifest(f *testing.F) {
	for _, m := range []*manifest{
		{gen: 1, base: NilLSN, segs: []manifestEntry{{num: 1, firstLSN: 1}}},
		{gen: 7, base: 42, segs: []manifestEntry{{num: 3, firstLSN: 40}, {num: 4, firstLSN: 50}}},
		{gen: 2, base: 9, segs: nil},
	} {
		f.Add(encodeManifest(m))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	// A count field claiming the maximum: the decoder must bound its
	// allocation by the buffer length, not the declared count.
	huge := encodeManifest(&manifest{gen: 1, base: 0, segs: []manifestEntry{{num: 1, firstLSN: 1}}})
	huge = append([]byte(nil), huge...)
	huge[manifestFixedSize] = 0xFF
	huge[manifestFixedSize+1] = 0xFF
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeManifest(m), data) {
			t.Fatalf("accepted manifest does not round-trip: %x", data)
		}
	})
}

// FuzzDecodeSegmentHeader checks that arbitrary bytes never panic the
// segment-header decoder and that accepted headers round-trip.
func FuzzDecodeSegmentHeader(f *testing.F) {
	f.Add(encodeSegmentHeader(segmentHeader{num: 1, firstLSN: 1}))
	f.Add(encodeSegmentHeader(segmentHeader{num: 1<<40 + 3, firstLSN: 9999}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, segmentHeaderSize+8))
	f.Add([]byte("WSG100000000000000000000")) // good magic, reserved field not zero
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodeSegmentHeader(data)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeSegmentHeader(h), data[:segmentHeaderSize]) {
			t.Fatalf("accepted header does not round-trip: %x", data[:segmentHeaderSize])
		}
	})
}
