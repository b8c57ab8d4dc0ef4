package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"ariesrh/internal/core"
	"ariesrh/internal/obs"
	"ariesrh/internal/wal"
)

// writeOnceDir wraps a wal.Dir and refuses any write to a seg-* device
// that starts below the length the device's last successful Sync covered:
// once a segment byte is durable the log must never write it again.  The
// group leader is the only writer of record bytes and starts every chunk
// at the segment's durable length, so a correct log never trips this.
type writeOnceDir struct {
	wal.Dir
	mu         sync.Mutex
	segs       map[string]*writeOnceStore
	violations int
}

func newWriteOnceDir(inner wal.Dir) *writeOnceDir {
	return &writeOnceDir{Dir: inner, segs: make(map[string]*writeOnceStore)}
}

func (d *writeOnceDir) Open(name string) (wal.Store, error) {
	s, err := d.Dir.Open(name)
	if err != nil || !strings.HasPrefix(name, "seg-") {
		return s, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if w, ok := d.segs[name]; ok {
		return w, nil
	}
	// Bytes already on a device when it is first seen are durable.
	size, err := s.Size()
	if err != nil {
		return nil, err
	}
	w := &writeOnceStore{Store: s, dir: d, name: name, written: size, synced: size}
	d.segs[name] = w
	return w, nil
}

func (d *writeOnceDir) Remove(name string) error {
	d.mu.Lock()
	delete(d.segs, name)
	d.mu.Unlock()
	return d.Dir.Remove(name)
}

func (d *writeOnceDir) Violations() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.violations
}

type writeOnceStore struct {
	wal.Store
	dir  *writeOnceDir
	name string

	mu      sync.Mutex
	written int64 // extent of the bytes written so far
	synced  int64 // extent covered by the last successful Sync
}

func (s *writeOnceStore) violation(op string, off int64) error {
	s.dir.mu.Lock()
	s.dir.violations++
	s.dir.mu.Unlock()
	return fmt.Errorf("write-once violated: %s %s at %d, below the synced length %d: %w",
		s.name, op, off, s.synced, wal.ErrNoRetry)
}

func (s *writeOnceStore) WriteAt(p []byte, off int64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if off < s.synced {
		return 0, s.violation("WriteAt", off)
	}
	n, err := s.Store.WriteAt(p, off)
	if end := off + int64(n); end > s.written {
		s.written = end
	}
	return n, err
}

func (s *writeOnceStore) Truncate(size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if size < s.synced {
		return s.violation("Truncate", size)
	}
	if size < s.written {
		s.written = size
	}
	return s.Store.Truncate(size)
}

func (s *writeOnceStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.Store.Sync()
	if err == nil {
		s.synced = s.written
	}
	return err
}

// TestWriteOnceDirCatchesRewrite proves the wrapper has teeth: patching a
// synced segment byte is refused and counted, appending past it and
// writing any other device is not.
func TestWriteOnceDirCatchesRewrite(t *testing.T) {
	dir := newWriteOnceDir(wal.NewMemDir())
	seg, err := dir.Open("seg-00000001")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.WriteAt([]byte("abcd"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := seg.WriteAt([]byte("AB"), 0); err != nil {
		t.Fatalf("overwrite of unsynced bytes refused: %v", err)
	}
	if err := seg.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := seg.WriteAt([]byte("x"), 3); err == nil {
		t.Fatal("patch of a synced byte accepted")
	}
	if _, err := seg.WriteAt([]byte("efgh"), 4); err != nil {
		t.Fatalf("append at the synced length refused: %v", err)
	}
	again, err := dir.Open("seg-00000001")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := again.WriteAt([]byte("x"), 0); err == nil {
		t.Fatal("reopening the device forgot its synced length")
	}
	other, err := dir.Open("manifest-00000001")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := other.WriteAt([]byte("m"), 0); err != nil {
			t.Fatal(err)
		}
		if err := other.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if got := dir.Violations(); got != 2 {
		t.Fatalf("violations = %d, want 2", got)
	}
}

// TestEngineWritesSegmentBytesOnce drives delegation-heavy histories with
// aborts, a checkpoint, an archive and two crash/recover cycles through
// an engine whose log sits on a write-once directory with small segments.
// The first crash discards a volatile tail, so what follows is appended
// over device offsets that were never synced; the second flushes first.
func TestEngineWritesSegmentBytesOnce(t *testing.T) {
	dir := newWriteOnceDir(wal.NewMemDir())
	e, err := core.New(core.Options{PoolSize: 32, LogDir: dir, LogSegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	target := CoreTarget{e}
	oracle := NewOracle()
	cfg := defaultCfg(0)
	cfg.Steps = 400
	cfg.DelegationRate = 0.35
	for cycle := 0; cycle < 2; cycle++ {
		cfg.Seed = int64(31 + cycle)
		trace := Generate(cfg)
		cut := (len(trace) * 3) / 4
		for _, a := range trace[:cut] {
			if err := oracle.Apply(a); err != nil {
				t.Fatal(err)
			}
		}
		rep := NewReplayer(target, trace)
		if err := rep.RunTo(cut / 2); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		// Pages first, so the checkpoint's dirty-page table does not pin
		// the archive bound below the first sealed segment.
		if err := e.FlushPages(); err != nil {
			t.Fatal(err)
		}
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if _, err := e.ArchiveLog(); err != nil {
			t.Fatal(err)
		}
		if err := rep.RunTo(cut); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		losers := rep.LiveSlots()
		if cycle == 0 {
			if err := target.Crash(); err != nil {
				t.Fatal(err)
			}
			if err := target.Recover(); err != nil {
				t.Fatal(err)
			}
		} else if err := rep.CrashRecover(); err != nil {
			t.Fatal(err)
		}
		oracle.CrashRecover(losers)
		checkAgainstOracle(t, cfg.Seed, target, oracle, cfg)
	}
	m := e.Metrics()
	if rotations, archives := m.Counter("wal.rotations"), m.Counter("wal.archives"); rotations < 4 || archives == 0 || e.Log().Base() == wal.NilLSN {
		t.Fatalf("workload too small to mean anything: %d rotations, %d archives, base %d",
			rotations, archives, e.Log().Base())
	}
	if delegations, aborts := m.Counter("core.delegations"), m.Counter("core.aborts"); delegations == 0 || aborts == 0 {
		t.Fatalf("trace had %d delegations, %d aborts", delegations, aborts)
	}
	if got := dir.Violations(); got != 0 {
		t.Fatalf("%d writes below a segment's synced length", got)
	}
}

// TestLogWritesSegmentBytesOnce is the same invariant at the WAL's own
// surface: appends interleaved with whole and partial flushes (a partial
// flush leaves the next one starting mid-segment), rotations, archives
// and crashes that drop the unflushed tail.
func TestLogWritesSegmentBytesOnce(t *testing.T) {
	dir := newWriteOnceDir(wal.NewMemDir())
	l, err := wal.NewLogWith(dir, wal.LogOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	l.Instrument(reg)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 600; i++ {
		rec := &wal.Record{Type: wal.TypeUpdate, TxID: 1, Object: wal.ObjectID(i), After: make([]byte, rng.Intn(40))}
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		var err error
		switch rng.Intn(10) {
		case 0:
			err = l.Flush(l.Head())
		case 1:
			err = l.Flush(l.FlushedLSN() + 1 + wal.LSN(rng.Intn(3)))
		case 2:
			err = <-l.FlushAsync(l.Head())
		case 3:
			err = l.Archive(l.FlushedLSN() / 2)
		case 4:
			err = l.Crash()
		}
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := l.Flush(l.Head()); err != nil {
		t.Fatal(err)
	}
	if err := l.Crash(); err != nil {
		t.Fatal(err)
	}
	m := reg.Snapshot()
	if m.Counter("wal.rotations") < 4 || m.Counter("wal.archives") == 0 || l.Head() == wal.NilLSN || l.Head() != l.FlushedLSN() {
		t.Fatalf("loop too small to mean anything: %d rotations, %d archives, head %d, flushed %d",
			m.Counter("wal.rotations"), m.Counter("wal.archives"), l.Head(), l.FlushedLSN())
	}
	if got := dir.Violations(); got != 0 {
		t.Fatalf("%d writes below a segment's synced length", got)
	}
}
