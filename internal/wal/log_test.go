package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

func mustAppend(t *testing.T, l *Log, r *Record) LSN {
	t.Helper()
	lsn, err := l.Append(r)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	return lsn
}

func newMemLog(t *testing.T) *Log {
	t.Helper()
	l, err := NewLog(NewMemDir())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// activeSegmentDev returns the device of the log's append-target segment.
func activeSegmentDev(t *testing.T, dir Dir, l *Log) Store {
	t.Helper()
	segs := l.Segments()
	dev, err := dir.Open(segs[len(segs)-1].Name)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func TestLogAppendAssignsDenseLSNs(t *testing.T) {
	l := newMemLog(t)
	for i := 1; i <= 10; i++ {
		lsn := mustAppend(t, l, &Record{Type: TypeUpdate, TxID: 1, Object: ObjectID(i), After: []byte{byte(i)}})
		if lsn != LSN(i) {
			t.Fatalf("append %d: lsn = %d", i, lsn)
		}
	}
	if l.Head() != 10 {
		t.Fatalf("head = %d, want 10", l.Head())
	}
}

func TestLogGet(t *testing.T) {
	l := newMemLog(t)
	mustAppend(t, l, &Record{Type: TypeBegin, TxID: 3})
	mustAppend(t, l, &Record{Type: TypeUpdate, TxID: 3, PrevLSN: 1, Object: 9, After: []byte("x")})
	r, err := l.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Type != TypeUpdate || r.Object != 9 || r.PrevLSN != 1 {
		t.Fatalf("got %+v", r)
	}
	if _, err := l.Get(0); !errors.Is(err, ErrNoSuchLSN) {
		t.Fatalf("Get(0) err = %v", err)
	}
	if _, err := l.Get(3); !errors.Is(err, ErrNoSuchLSN) {
		t.Fatalf("Get(3) err = %v", err)
	}
}

// TestLogReadsReturnOwnedRecords pins that every read path hands out a
// record of the caller's own: scribbling over one returned by Get, Scan
// or a tail subscription's Next — header fields and image bytes — leaves
// the next read of the same LSN unchanged.
func TestLogReadsReturnOwnedRecords(t *testing.T) {
	l := newMemLog(t)
	mustAppend(t, l, &Record{Type: TypeUpdate, TxID: 3, Object: 9, Before: []byte("old"), After: []byte("new")})
	if err := l.Flush(1); err != nil {
		t.Fatal(err)
	}
	sub, err := l.Subscribe(1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	reads := map[string]func() *Record{
		"get": func() *Record {
			r, err := l.Get(1)
			if err != nil {
				t.Fatal(err)
			}
			return r
		},
		"scan": func() *Record {
			var r *Record
			if err := l.Scan(1, 1, func(rec *Record) (bool, error) { r = rec; return true, nil }); err != nil {
				t.Fatal(err)
			}
			return r
		},
		"next": func() *Record {
			recs, err := sub.Next(1)
			if err != nil {
				t.Fatal(err)
			}
			return recs[0]
		},
	}
	for name, read := range reads {
		r := read()
		r.Object = 1000
		r.Before[0] = 'X'
		r.After[0] = 'X'
		got, err := l.Get(1)
		if err != nil {
			t.Fatal(err)
		}
		if got.Object != 9 || string(got.Before) != "old" || string(got.After) != "new" {
			t.Fatalf("after mutating the record %s returned, the log reads %+v", name, got)
		}
	}
}

// TestLogReadsReportDamagedFrame: every read decodes the in-memory
// frame, so a damaged one surfaces from each read path as an error
// wrapping ErrCorrupt — not as a panic, and not as a plausible record.
func TestLogReadsReportDamagedFrame(t *testing.T) {
	l := newMemLog(t)
	mustAppend(t, l, &Record{Type: TypeUpdate, TxID: 1, Object: 1, After: []byte("v")})
	if err := l.Flush(1); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	l.segs[0].data[frameHeaderSize+1] ^= 0xFF // inside the body: the checksum fails
	l.mu.Unlock()
	if _, err := l.Get(1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get err = %v, want ErrCorrupt", err)
	}
	if err := l.Scan(1, 1, func(*Record) (bool, error) { return true, nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Scan err = %v, want ErrCorrupt", err)
	}
	sub, err := l.Subscribe(1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := sub.Next(0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Next err = %v, want ErrCorrupt", err)
	}
}

// TestLogAppendAllocations guards the append path's allocation budget:
// the frame is encoded straight onto the segment's bytes, so an append
// of a 64-byte update costs at most one allocation (amortized slice
// growth), not an encode buffer plus a retained decoded copy.
func TestLogAppendAllocations(t *testing.T) {
	l := newMemLog(t)
	r := &Record{Type: TypeUpdate, TxID: 1, Object: 5, Before: make([]byte, 32), After: make([]byte, 32)}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Append allocates %.2f times per call, want at most 1", allocs)
	}
}

func TestLogFlushAndCrash(t *testing.T) {
	l := newMemLog(t)
	for i := 0; i < 5; i++ {
		mustAppend(t, l, &Record{Type: TypeUpdate, TxID: 1, Object: ObjectID(i)})
	}
	if err := l.Flush(3); err != nil {
		t.Fatal(err)
	}
	if got := l.FlushedLSN(); got != 3 {
		t.Fatalf("flushedLSN = %d, want 3", got)
	}
	if err := l.Crash(); err != nil {
		t.Fatal(err)
	}
	if l.Head() != 3 {
		t.Fatalf("head after crash = %d, want 3", l.Head())
	}
	if _, err := l.Get(4); !errors.Is(err, ErrNoSuchLSN) {
		t.Fatalf("record 4 survived the crash: %v", err)
	}
	// Appends after the crash continue from the surviving head.
	lsn := mustAppend(t, l, &Record{Type: TypeCommit, TxID: 1, PrevLSN: 3})
	if lsn != 4 {
		t.Fatalf("post-crash append lsn = %d, want 4", lsn)
	}
}

func TestLogFlushPastHeadFlushesAll(t *testing.T) {
	l := newMemLog(t)
	mustAppend(t, l, &Record{Type: TypeBegin, TxID: 1})
	if err := l.Flush(99); err != nil {
		t.Fatal(err)
	}
	if l.FlushedLSN() != 1 {
		t.Fatalf("flushedLSN = %d", l.FlushedLSN())
	}
}

func TestLogReopenFromDir(t *testing.T) {
	dir := NewMemDir()
	l, err := NewLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, &Record{Type: TypeBegin, TxID: 2})
	mustAppend(t, l, &Record{Type: TypeUpdate, TxID: 2, PrevLSN: 1, Object: 5, Before: []byte("a"), After: []byte("b")})
	if err := l.Flush(2); err != nil {
		t.Fatal(err)
	}
	l2, err := NewLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Head() != 2 || l2.FlushedLSN() != 2 {
		t.Fatalf("reopened head=%d flushed=%d", l2.Head(), l2.FlushedLSN())
	}
	r, err := l2.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Object != 5 || string(r.After) != "b" {
		t.Fatalf("reopened record: %+v", r)
	}
}

func TestLogTornTailTruncated(t *testing.T) {
	dir := NewMemDir()
	l, err := NewLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, &Record{Type: TypeBegin, TxID: 1})
	mustAppend(t, l, &Record{Type: TypeCommit, TxID: 1, PrevLSN: 1})
	if err := l.Flush(2); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: chop bytes off the active segment's tail.
	dev := activeSegmentDev(t, dir, l)
	size, _ := dev.Size()
	if err := dev.Truncate(size - 3); err != nil {
		t.Fatal(err)
	}
	l2, err := NewLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Head() != 1 {
		t.Fatalf("head = %d, want 1 (torn record dropped)", l2.Head())
	}
}

func TestLogScan(t *testing.T) {
	l := newMemLog(t)
	for i := 1; i <= 6; i++ {
		mustAppend(t, l, &Record{Type: TypeUpdate, TxID: 1, Object: ObjectID(i)})
	}
	var got []ObjectID
	err := l.Scan(2, 5, func(r *Record) (bool, error) {
		got = append(got, r.Object)
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []ObjectID{2, 3, 4, 5}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}
	// Early stop.
	n := 0
	if err := l.Scan(NilLSN, NilLSN, func(r *Record) (bool, error) { n++; return n < 3, nil }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestLogFileDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	dir, err := OpenFileDir(path)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, &Record{Type: TypeBegin, TxID: 1})
	mustAppend(t, l, &Record{Type: TypeCommit, TxID: 1, PrevLSN: 1})
	if err := l.Flush(2); err != nil {
		t.Fatal(err)
	}
	if err := dir.Close(); err != nil {
		t.Fatal(err)
	}
	dir2, err := OpenFileDir(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dir2.Close()
	l2, err := NewLog(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Head() != 2 {
		t.Fatalf("file-backed reopen head = %d", l2.Head())
	}
}

func TestLogConcurrentAppends(t *testing.T) {
	l := newMemLog(t)
	const goroutines, per = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := l.Append(&Record{Type: TypeUpdate, TxID: TxID(g + 1), Object: ObjectID(i)}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if l.Head() != goroutines*per {
		t.Fatalf("head = %d, want %d", l.Head(), goroutines*per)
	}
	// Every LSN must be readable and dense.
	for lsn := LSN(1); lsn <= goroutines*per; lsn++ {
		if _, err := l.Get(lsn); err != nil {
			t.Fatalf("get %d: %v", lsn, err)
		}
	}
}

func TestLogInteriorCorruptionRefusesOpen(t *testing.T) {
	dir := NewMemDir()
	l, err := NewLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, &Record{Type: TypeBegin, TxID: 1})
	mustAppend(t, l, &Record{Type: TypeUpdate, TxID: 1, Object: 1, After: []byte("v")})
	mustAppend(t, l, &Record{Type: TypeCommit, TxID: 1, PrevLSN: 2})
	if err := l.Flush(3); err != nil {
		t.Fatal(err)
	}
	// Flip a byte INSIDE the first record's body (interior corruption:
	// covered by the frame checksum, not the frame length field).
	dev := activeSegmentDev(t, dir, l)
	var b [1]byte
	off := int64(SegmentHeaderSize) + 8 + 3
	if _, err := dev.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := dev.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	if _, err := NewLog(dir); err == nil {
		t.Fatal("interior corruption silently accepted")
	} else if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	// Restore the byte: a genuinely torn tail (short final frame) still
	// opens, dropping only the torn record.
	b[0] ^= 0xFF
	if _, err := dev.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	size, _ := dev.Size()
	if err := dev.Truncate(size - 3); err != nil {
		t.Fatal(err)
	}
	l3, err := NewLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if l3.Head() != 2 {
		t.Fatalf("head after torn tail = %d, want 2", l3.Head())
	}
}
