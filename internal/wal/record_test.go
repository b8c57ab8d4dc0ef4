package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleRecords() []*Record {
	return []*Record{
		{Type: TypeBegin, LSN: 1, TxID: 7},
		{Type: TypeUpdate, LSN: 2, TxID: 7, PrevLSN: 1, Object: 42, Before: []byte("old"), After: []byte("new")},
		{Type: TypeUpdate, LSN: 3, TxID: 7, PrevLSN: 2, Object: 43, Before: nil, After: []byte{}},
		{Type: TypeCLR, LSN: 4, TxID: 7, PrevLSN: 3, Object: 42, UndoNextLSN: 1, Compensates: 2, Before: []byte("old")},
		{Type: TypeDelegate, LSN: 5, TxID: 7, PrevLSN: 4, Tor: 7, Tee: 9, TorPrev: 4, TeePrev: 0, Object: 42},
		{Type: TypeCommit, LSN: 6, TxID: 9, PrevLSN: 5},
		{Type: TypeAbort, LSN: 7, TxID: 7, PrevLSN: 4},
		{Type: TypeEnd, LSN: 8, TxID: 7, PrevLSN: 7},
		{Type: TypeCheckpointBegin, LSN: 9},
		{Type: TypeCheckpointEnd, LSN: 10, PrevLSN: 9, Payload: []byte{1, 2, 3, 0, 255}},
		{Type: TypePrepare, LSN: 11, TxID: 7, PrevLSN: 5, GID: 0xDEADBEEF01, Shard: 2},
		{Type: TypeDelegateOut, LSN: 12, TxID: 7, PrevLSN: 11, Tor: 7, Tee: 9, TorPrev: 11, TeePrev: 0, Object: 42, GID: 0xDEADBEEF02, Shard: 3},
		{Type: TypeDelegateIn, LSN: 13, TxID: 9, PrevLSN: 6, Object: 42, GID: 0xDEADBEEF02, Shard: 1},
		// Delegate-set records: Tor and TorPrev are the header's TxID
		// and PrevLSN, as decoding fills them in.
		{Type: TypeDelegateSet, LSN: 14, TxID: 7, PrevLSN: 12, Tor: 7, Tee: 9, TorPrev: 12, TeePrev: 13, Objects: []ObjectID{42}},
		{Type: TypeDelegateSet, LSN: 15, TxID: 7, PrevLSN: 14, Tor: 7, Tee: 9, TorPrev: 14, TeePrev: 0, Objects: []ObjectID{0, 1 << 63}},
		{Type: TypeDelegateSet, LSN: 16, TxID: 9, PrevLSN: 15, Tor: 9, Tee: 11, TorPrev: 15, TeePrev: 3, Objects: wideSet(64)},
	}
}

// wideSet returns n strictly ascending object IDs whose gaps cycle through
// the uvarint widths from one byte (gaps 1 and 127) to eight (1<<49),
// each width's first value and the one below it where they differ.  The
// two-object sample above covers the ten-byte width (1<<63).
func wideSet(n int) []ObjectID {
	gaps := []uint64{1, 127, 128, 1<<14 - 1, 1 << 14, 1 << 21, 1 << 28, 1 << 35, 1 << 42, 1 << 49}
	objs := make([]ObjectID, n)
	var obj ObjectID = 3
	for i := range objs {
		objs[i] = obj
		obj += ObjectID(gaps[i%len(gaps)])
	}
	return objs
}

// normalize maps nil byte slices to empty so reflect.DeepEqual tolerates the
// decoder's empty-slice representation.
func normalize(r *Record) *Record {
	c := *r
	if c.Before == nil {
		c.Before = []byte{}
	}
	if c.After == nil {
		c.After = []byte{}
	}
	if c.Payload == nil {
		c.Payload = []byte{}
	}
	return &c
}

func TestRecordRoundTrip(t *testing.T) {
	for _, r := range sampleRecords() {
		enc, err := EncodeRecord(r)
		if err != nil {
			t.Fatalf("encode %v: %v", r, err)
		}
		got, n, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", r, err)
		}
		if n != len(enc) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(enc))
		}
		if !reflect.DeepEqual(normalize(got), normalize(r)) {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, r)
		}
	}
}

func TestRecordRoundTripStream(t *testing.T) {
	var stream []byte
	recs := sampleRecords()
	for _, r := range recs {
		enc, err := EncodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, enc...)
	}
	off, i := 0, 0
	for off < len(stream) {
		r, n, err := DecodeRecord(stream[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if r.LSN != recs[i].LSN {
			t.Fatalf("record %d: LSN %d want %d", i, r.LSN, recs[i].LSN)
		}
		off += n
		i++
	}
	if i != len(recs) {
		t.Fatalf("decoded %d records, want %d", i, len(recs))
	}
}

func TestRecordCorruptionDetected(t *testing.T) {
	r := &Record{Type: TypeUpdate, LSN: 2, TxID: 7, PrevLSN: 1, Object: 42, Before: []byte("aaa"), After: []byte("bbb")}
	enc, err := EncodeRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x40
		if _, _, err := DecodeRecord(bad); err == nil {
			// Flipping a bit inside the length prefix may still fail;
			// a successful decode of a corrupted frame is only legal
			// if it decodes to exactly the same record (impossible
			// here since we flipped a bit somewhere in the frame).
			t.Errorf("byte %d: corruption not detected", i)
		}
	}
}

func TestRecordTruncationDetected(t *testing.T) {
	r := &Record{Type: TypeUpdate, LSN: 2, TxID: 7, Object: 42, Before: []byte("aaa"), After: []byte("bbb")}
	enc, err := EncodeRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(enc); n++ {
		if _, _, err := DecodeRecord(enc[:n]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("prefix of %d bytes: err = %v, want ErrCorrupt", n, err)
		}
	}
}

func TestRecordUnknownTypeRejected(t *testing.T) {
	if _, err := EncodeRecord(&Record{Type: RecordType(200)}); err == nil {
		t.Fatal("encoding unknown type succeeded")
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(txRaw uint32, prev uint64, obj uint64, before, after []byte) bool {
		if len(before) > 1000 {
			before = before[:1000]
		}
		if len(after) > 1000 {
			after = after[:1000]
		}
		r := &Record{
			Type:    TypeUpdate,
			LSN:     LSN(rng.Uint64()%1_000_000 + 1),
			TxID:    TxID(txRaw),
			PrevLSN: LSN(prev),
			Object:  ObjectID(obj),
			Before:  before,
			After:   after,
		}
		enc, err := EncodeRecord(r)
		if err != nil {
			return false
		}
		got, n, err := DecodeRecord(enc)
		if err != nil || n != len(enc) {
			return false
		}
		return got.LSN == r.LSN && got.TxID == r.TxID && got.PrevLSN == r.PrevLSN &&
			got.Object == r.Object && bytes.Equal(got.Before, r.Before) && bytes.Equal(got.After, r.After)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordString(t *testing.T) {
	cases := []struct {
		r    *Record
		want string
	}{
		{&Record{Type: TypeUpdate, LSN: 102, TxID: 2, Object: 7}, "102 update[t2, 7]"},
		{&Record{Type: TypeDelegate, LSN: 106, Tor: 1, Tee: 2, Object: 7}, "106 delegate(t1 -> t2, 7)"},
		{&Record{Type: TypeDelegateSet, LSN: 107, Tor: 1, Tee: 2, Objects: []ObjectID{7, 9}}, "107 delegate-set(t1 -> t2, [7 9])"},
		{&Record{Type: TypeCommit, LSN: 9, TxID: 3}, "9 commit(t3)"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// frameOf frames a hand-built body, checksum included, so a test can feed
// the decoder bodies the encoder would never write.
func frameOf(body []byte) []byte {
	f := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	f = binary.LittleEndian.AppendUint32(f, crc32.ChecksumIEEE(body))
	return append(f, body...)
}

// setBody returns a delegate-set body from its header and the raw bytes
// after teeBC (the count and the deltas).
func setBody(tail ...byte) []byte {
	b := []byte{uint8(TypeDelegateSet)}
	b = binary.LittleEndian.AppendUint64(b, 20) // lsn
	b = binary.LittleEndian.AppendUint32(b, 7)  // txid = tor
	b = binary.LittleEndian.AppendUint64(b, 19) // prevLSN = torBC
	b = binary.LittleEndian.AppendUint32(b, 9)  // tee
	b = binary.LittleEndian.AppendUint64(b, 4)  // teeBC
	return append(b, tail...)
}

// TestDelegateSetDecodeCanonical pins the delegate-set body to one
// encoding per record: the decoder accepts the canonical form and rejects
// a zero count, an object repeated or out of order, a sum past the top of
// the ID space, and a non-minimal uvarint in the count or a delta — each
// of which would decode to a record that re-encodes to other bytes.
func TestDelegateSetDecodeCanonical(t *testing.T) {
	good := setBody(2, 5, 3) // {5, 8}
	r, _, err := DecodeRecord(frameOf(good))
	if err != nil {
		t.Fatalf("canonical body rejected: %v", err)
	}
	if r.Tor != 7 || r.TorPrev != 19 || r.Tee != 9 || r.TeePrev != 4 || !reflect.DeepEqual(r.Objects, []ObjectID{5, 8}) {
		t.Fatalf("decoded %+v", r)
	}
	for name, body := range map[string][]byte{
		"zero count":             setBody(0),
		"count past the body":    setBody(3, 5, 3),
		"duplicate":              setBody(2, 5, 0),
		"wraps past the top":     setBody(append([]byte{2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, 1)...),
		"non-minimal count":      setBody(0x82, 0x00, 5, 3),
		"non-minimal first":      setBody(2, 0x85, 0x00, 3),
		"non-minimal delta":      setBody(2, 5, 0x83, 0x80, 0x00),
		"overlong uvarint":       setBody(1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02),
		"trailing byte":          setBody(1, 5, 0),
		"missing delta":          setBody(2, 5),
		"missing count and tail": setBody(),
	} {
		if _, _, err := DecodeRecord(frameOf(body)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestDelegateSetEncodeRejects checks the encoder refuses a set the
// decoder would refuse: empty, repeated or descending.
func TestDelegateSetEncodeRejects(t *testing.T) {
	for _, objs := range [][]ObjectID{nil, {4, 4}, {5, 3}} {
		if _, err := EncodeRecord(&Record{Type: TypeDelegateSet, TxID: 1, Tee: 2, Objects: objs}); err == nil {
			t.Errorf("encoded delegate set %v", objs)
		}
	}
}

// TestDelegateSetSize states the set record's cost: the 29-byte frame and
// header, tee and teeBC once (12 bytes), then a one-byte count and about
// one byte per object when the objects are dense — against 61 bytes per
// object as TypeDelegate records.
func TestDelegateSetSize(t *testing.T) {
	single, err := EncodeRecord(&Record{Type: TypeDelegate, TxID: 1, Tor: 1, Tee: 2, Object: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != 61 {
		t.Errorf("delegate record is %d bytes, want 61", len(single))
	}
	for _, n := range []int{1, 2, 64} {
		objs := make([]ObjectID, n)
		for i := range objs {
			objs[i] = ObjectID(i + 1)
		}
		enc, err := EncodeRecord(&Record{Type: TypeDelegateSet, TxID: 1, Tee: 2, Objects: objs})
		if err != nil {
			t.Fatal(err)
		}
		if want := 29 + 12 + 1 + n; len(enc) != want {
			t.Errorf("%d dense objects: %d bytes, want %d", n, len(enc), want)
		}
	}
}

// TestDelegatedServesEveryForm checks the one accessor every reader of
// delegations uses, and that reading a single-object record through it
// costs no allocation.
func TestDelegatedServesEveryForm(t *testing.T) {
	for _, c := range []struct {
		r    *Record
		want []ObjectID
	}{
		{&Record{Type: TypeDelegate, Object: 4}, []ObjectID{4}},
		{&Record{Type: TypeDelegateOut, Object: 5}, []ObjectID{5}},
		{&Record{Type: TypeDelegateSet, Object: 99, Objects: []ObjectID{1, 6}}, []ObjectID{1, 6}},
		{&Record{Type: TypeDelegateIn, Object: 4}, nil},
		{&Record{Type: TypeUpdate, Object: 4}, nil},
	} {
		if got := c.r.Delegated(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v: Delegated() = %v, want %v", c.r.Type, got, c.want)
		}
	}
	r := &Record{Type: TypeDelegate, Object: 4}
	var sum ObjectID
	if n := testing.AllocsPerRun(100, func() {
		for _, obj := range r.Delegated() {
			sum += obj
		}
	}); n != 0 {
		t.Errorf("ranging over a delegate record's Delegated allocates %.0f times", n)
	}
}
