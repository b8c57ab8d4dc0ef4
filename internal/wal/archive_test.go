package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"ariesrh/internal/obs"
)

// dirBytes sums the sizes of every device in dir — the log's physical
// footprint on stable storage.
func dirBytes(t *testing.T, dir Dir) int64 {
	t.Helper()
	names, err := dir.List()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, name := range names {
		dev, err := dir.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		size, err := dev.Size()
		if err != nil {
			t.Fatal(err)
		}
		total += size
	}
	return total
}

// newTinySegLog returns a log over dir that rotates after every record
// (SegmentBytes=1), so archives can reclaim at record granularity.
func newTinySegLog(t *testing.T, dir Dir) *Log {
	t.Helper()
	l, err := NewLogWith(dir, LogOptions{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestArchiveBasic(t *testing.T) {
	dir := NewMemDir()
	l := newTinySegLog(t, dir)
	for i := 1; i <= 10; i++ {
		mustAppend(t, l, &Record{Type: TypeUpdate, TxID: 1, Object: ObjectID(i)})
	}
	if err := l.Flush(10); err != nil {
		t.Fatal(err)
	}
	sizeBefore := dirBytes(t, dir)
	if err := l.Archive(6); err != nil {
		t.Fatal(err)
	}
	sizeAfter := dirBytes(t, dir)
	if sizeAfter >= sizeBefore {
		t.Fatalf("directory did not shrink: %d -> %d", sizeBefore, sizeAfter)
	}
	if l.Base() != 6 || l.Head() != 10 {
		t.Fatalf("base=%d head=%d", l.Base(), l.Head())
	}
	// Archived records are gone; surviving ones intact.
	if _, err := l.Get(6); !errors.Is(err, ErrArchived) {
		t.Fatalf("Get(6) err = %v", err)
	}
	for lsn := LSN(7); lsn <= 10; lsn++ {
		r, err := l.Get(lsn)
		if err != nil {
			t.Fatal(err)
		}
		if r.LSN != lsn || r.Object != ObjectID(lsn) {
			t.Fatalf("record %d = %+v", lsn, r)
		}
	}
	// LSNs keep counting from where they were.
	lsn := mustAppend(t, l, &Record{Type: TypeCommit, TxID: 1, PrevLSN: 10})
	if lsn != 11 {
		t.Fatalf("post-archive append lsn = %d", lsn)
	}
}

func TestArchiveSurvivesReopenAndCrash(t *testing.T) {
	dir := NewMemDir()
	l := newTinySegLog(t, dir)
	for i := 1; i <= 8; i++ {
		mustAppend(t, l, &Record{Type: TypeUpdate, TxID: 1, Object: ObjectID(i)})
	}
	if err := l.Flush(8); err != nil {
		t.Fatal(err)
	}
	if err := l.Archive(5); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, &Record{Type: TypeUpdate, TxID: 1, Object: 9}) // LSN 9, unflushed
	if err := l.Crash(); err != nil {
		t.Fatal(err)
	}
	if l.Base() != 5 || l.Head() != 8 {
		t.Fatalf("after crash: base=%d head=%d", l.Base(), l.Head())
	}
	// Fresh Log over the same directory.
	l2, err := NewLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Base() != 5 || l2.Head() != 8 {
		t.Fatalf("reopen: base=%d head=%d", l2.Base(), l2.Head())
	}
	r, err := l2.Get(7)
	if err != nil || r.Object != 7 {
		t.Fatalf("Get(7) = %+v, %v", r, err)
	}
}

func TestArchiveRejectsUnflushed(t *testing.T) {
	l := newMemLog(t)
	mustAppend(t, l, &Record{Type: TypeBegin, TxID: 1})
	mustAppend(t, l, &Record{Type: TypeCommit, TxID: 1, PrevLSN: 1})
	if err := l.Flush(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Archive(2); err == nil {
		t.Fatal("archiving past the flushed LSN accepted")
	}
	if err := l.Archive(1); err != nil {
		t.Fatal(err)
	}
	// Idempotent / monotone.
	if err := l.Archive(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Archive(0); err != nil {
		t.Fatal(err)
	}
	if l.Base() != 1 {
		t.Fatalf("base = %d", l.Base())
	}
}

func TestArchiveThenScanStartsAfterBase(t *testing.T) {
	l := newMemLog(t)
	for i := 1; i <= 6; i++ {
		mustAppend(t, l, &Record{Type: TypeUpdate, TxID: 1, Object: ObjectID(i)})
	}
	if err := l.Flush(6); err != nil {
		t.Fatal(err)
	}
	if err := l.Archive(3); err != nil {
		t.Fatal(err)
	}
	var seen []ObjectID
	if err := l.Scan(NilLSN, NilLSN, func(r *Record) (bool, error) {
		seen = append(seen, r.Object)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[0] != 4 || seen[2] != 6 {
		t.Fatalf("scan = %v", seen)
	}
}

// TestArchiveMidSegmentIsLogical pins the archive's logical-first
// contract: with every record in one big segment, Archive moves the base
// exactly to upTo (records at or below it answer ErrArchived) even
// though no whole segment can be reclaimed — and the base survives
// reopen via the manifest.
func TestArchiveMidSegmentIsLogical(t *testing.T) {
	dir := NewMemDir()
	l, err := NewLog(dir) // default cap: everything fits one segment
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		mustAppend(t, l, &Record{Type: TypeUpdate, TxID: 1, Object: ObjectID(i)})
	}
	if err := l.Flush(6); err != nil {
		t.Fatal(err)
	}
	segsBefore := len(l.Segments())
	if err := l.Archive(4); err != nil {
		t.Fatal(err)
	}
	if l.Base() != 4 {
		t.Fatalf("base = %d, want 4", l.Base())
	}
	if got := len(l.Segments()); got != segsBefore {
		t.Fatalf("segments = %d, want %d (mid-segment archive must not drop files)", got, segsBefore)
	}
	if _, err := l.Get(4); !errors.Is(err, ErrArchived) {
		t.Fatalf("Get(4) err = %v", err)
	}
	if _, err := l.Get(5); err != nil {
		t.Fatal(err)
	}
	l2, err := NewLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Base() != 4 || l2.Head() != 6 {
		t.Fatalf("reopen: base=%d head=%d", l2.Base(), l2.Head())
	}
	if _, err := l2.Get(4); !errors.Is(err, ErrArchived) {
		t.Fatalf("reopened Get(4) err = %v", err)
	}
}

// TestArchiveDeviceFailureLeavesStateIntact pins the archive's ordering
// contract: the manifest write is the commit point, and it happens
// BEFORE any volatile mutation — a device failure during the archive
// must leave the log exactly as it was, with every record readable and
// the metrics untouched.
func TestArchiveDeviceFailureLeavesStateIntact(t *testing.T) {
	dir := &failSyncDir{MemDir: NewMemDir()}
	l, err := NewLogWith(dir, LogOptions{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	l.Instrument(reg)
	for i := 1; i <= 6; i++ {
		mustAppend(t, l, &Record{Type: TypeUpdate, TxID: 1, Object: ObjectID(i)})
	}
	if err := l.Flush(6); err != nil {
		t.Fatal(err)
	}
	segsBefore := len(l.Segments())

	dir.FailSyncsWith(fmt.Errorf("injected sync failure"))
	if err := l.Archive(4); err == nil {
		t.Fatal("archive succeeded despite failing device")
	}
	dir.FailSyncsWith(nil)

	// Nothing moved: base, segments, metrics, and every record.
	if l.Base() != NilLSN {
		t.Fatalf("failed archive moved base to %d", l.Base())
	}
	if got := len(l.Segments()); got != segsBefore {
		t.Fatalf("failed archive changed segment count %d -> %d", segsBefore, got)
	}
	if got := reg.Counter("wal.archives").Load(); got != 0 {
		t.Fatalf("wal.archives = %d after failed archive, want 0", got)
	}
	for lsn := LSN(1); lsn <= 6; lsn++ {
		if _, err := l.Get(lsn); err != nil {
			t.Fatalf("Get(%d) after failed archive: %v", lsn, err)
		}
	}
	// The log remains fully usable: append, flush, then archive for real.
	mustAppend(t, l, &Record{Type: TypeUpdate, TxID: 1, Object: 7})
	if err := l.Flush(7); err != nil {
		t.Fatal(err)
	}
	if err := l.Archive(4); err != nil {
		t.Fatal(err)
	}
	if l.Base() != 4 {
		t.Fatalf("base = %d after recovery archive", l.Base())
	}
	if got := reg.Counter("wal.archives").Load(); got != 1 {
		t.Fatalf("wal.archives = %d after one successful archive, want 1", got)
	}
}

// TestFailedManifestAttemptRemoved pins the cleanup contract of a
// failed manifest write: the attempt's device must not remain in the
// directory.  On a real filesystem a failed fsync does not prove the
// bytes were lost; a fully written, CRC-valid higher generation left
// behind would outrank the authoritative manifest at the next recovery
// while referencing segments the failed archive went on to delete.
func TestFailedManifestAttemptRemoved(t *testing.T) {
	dir := &failSyncDir{MemDir: NewMemDir()}
	l, err := NewLogWith(dir, LogOptions{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		mustAppend(t, l, &Record{Type: TypeUpdate, TxID: 1, Object: ObjectID(i)})
	}
	if err := l.Flush(6); err != nil {
		t.Fatal(err)
	}

	dir.FailSyncsWith(fmt.Errorf("injected sync failure"))
	if err := l.Archive(4); err == nil {
		t.Fatal("archive succeeded despite failing device")
	}
	dir.FailSyncsWith(nil)

	// Exactly one manifest image remains: the authoritative generation.
	names, err := dir.List()
	if err != nil {
		t.Fatal(err)
	}
	var manifests []uint64
	for _, name := range names {
		if gen, ok := parseNumbered(name, "manifest-"); ok {
			manifests = append(manifests, gen)
		}
	}
	if len(manifests) != 1 || manifests[0] != l.manifestGen {
		t.Fatalf("manifests on device after failed archive: %v (authoritative gen %d)", manifests, l.manifestGen)
	}

	// Recovery from this directory picks the authoritative generation and
	// sees every record.
	l2, err := NewLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Base() != NilLSN || l2.Head() != 6 {
		t.Fatalf("reopen after failed archive: base=%d head=%d", l2.Base(), l2.Head())
	}
}

// failSyncDir wraps a MemDir so every device's Sync fails with a
// configurable error — the failure mode of a dying disk.
type failSyncDir struct {
	*MemDir
	mu  sync.Mutex
	err error
}

func (d *failSyncDir) FailSyncsWith(err error) {
	d.mu.Lock()
	d.err = err
	d.mu.Unlock()
}

func (d *failSyncDir) Open(name string) (Store, error) {
	s, err := d.MemDir.Open(name)
	if err != nil {
		return nil, err
	}
	return &failSyncDev{Store: s, dir: d}, nil
}

type failSyncDev struct {
	Store
	dir *failSyncDir
}

func (s *failSyncDev) Sync() error {
	s.dir.mu.Lock()
	err := s.dir.err
	s.dir.mu.Unlock()
	if err != nil {
		return err
	}
	return s.Store.Sync()
}
