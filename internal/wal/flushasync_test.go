package wal

import (
	"sync"
	"testing"
	"time"

	"ariesrh/internal/obs"
)

// gatedDir blocks every device Sync until released, so tests can
// deterministically pile waiters onto the flush queue while the leader's
// first device sync is in flight.
type gatedDir struct {
	*MemDir
	mu      sync.Mutex
	armed   bool // NewLog itself syncs (init writes); gate only after setup
	syncs   int
	gate    chan struct{} // each armed Sync receives once from here
	entered chan struct{} // signaled when an armed Sync starts waiting
}

func newGatedDir() *gatedDir {
	return &gatedDir{
		MemDir:  NewMemDir(),
		gate:    make(chan struct{}),
		entered: make(chan struct{}, 16),
	}
}

func (d *gatedDir) arm() {
	d.mu.Lock()
	d.armed = true
	d.mu.Unlock()
}

func (d *gatedDir) Open(name string) (Store, error) {
	s, err := d.MemDir.Open(name)
	if err != nil {
		return nil, err
	}
	return &gatedDev{Store: s, dir: d}, nil
}

func (d *gatedDir) syncCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncs
}

type gatedDev struct {
	Store
	dir *gatedDir
}

func (s *gatedDev) Sync() error {
	d := s.dir
	d.mu.Lock()
	armed := d.armed
	if armed {
		d.syncs++
	}
	d.mu.Unlock()
	if armed {
		d.entered <- struct{}{}
		<-d.gate
	}
	return s.Store.Sync()
}

func TestFlushAsyncSingleWaiter(t *testing.T) {
	l := newMemLog(t)
	reg := obs.NewRegistry()
	l.Instrument(reg)
	lsn := mustAppend(t, l, &Record{Type: TypeUpdate, TxID: 1, Object: 7})
	if err := <-l.FlushAsync(lsn); err != nil {
		t.Fatalf("FlushAsync: %v", err)
	}
	if got := l.FlushedLSN(); got < lsn {
		t.Fatalf("FlushedLSN = %d, want >= %d", got, lsn)
	}
	m := reg.Snapshot()
	if m.Counter("wal.grouped_flushes") != 1 || m.Counter("wal.flush_waiters") != 1 {
		t.Fatalf("grouped %d / waiters %d, want 1/1", m.Counter("wal.grouped_flushes"), m.Counter("wal.flush_waiters"))
	}
}

func TestFlushAsyncAlreadyDurable(t *testing.T) {
	l := newMemLog(t)
	lsn := mustAppend(t, l, &Record{Type: TypeUpdate, TxID: 1, Object: 7})
	if err := l.Flush(lsn); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	l.Instrument(reg)
	// Already-covered requests complete immediately without a device trip.
	if err := <-l.FlushAsync(lsn); err != nil {
		t.Fatalf("FlushAsync: %v", err)
	}
	if m := reg.Snapshot(); m.Counter("wal.flushes") != 0 || m.Counter("wal.grouped_flushes") != 0 {
		t.Fatalf("already-durable FlushAsync touched the device: %+v", m.Counters)
	}
}

// TestFlushAsyncCoalesces pins the leader's first sync on a gate, queues
// more waiters behind it, then releases the gate: the second (and final)
// sync must cover every queued waiter, giving exactly 2 device syncs for
// N+1 requests.
func TestFlushAsyncCoalesces(t *testing.T) {
	dir := newGatedDir()
	l, err := NewLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	l.Instrument(reg)
	dir.arm()

	first := mustAppend(t, l, &Record{Type: TypeUpdate, TxID: 1, Object: 1})
	ch0 := l.FlushAsync(first)
	<-dir.entered // leader is now blocked inside Sync for LSN `first`

	const extra = 5
	chans := make([]<-chan error, 0, extra)
	for i := 0; i < extra; i++ {
		lsn := mustAppend(t, l, &Record{Type: TypeUpdate, TxID: TxID(i + 2), Object: ObjectID(i + 2)})
		chans = append(chans, l.FlushAsync(lsn))
	}
	// None of the later waiters may complete while the first sync is stuck.
	for i, ch := range chans {
		select {
		case err := <-ch:
			t.Fatalf("waiter %d completed before its records were synced (err=%v)", i, err)
		default:
		}
	}

	dir.gate <- struct{}{} // release sync #1 (covers only `first`)
	if err := <-ch0; err != nil {
		t.Fatalf("first waiter: %v", err)
	}
	<-dir.entered          // leader started sync #2 for the max queued LSN
	dir.gate <- struct{}{} // release it
	for i, ch := range chans {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("waiter %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("waiter %d not released after covering sync", i)
		}
	}

	if got := dir.syncCount(); got != 2 {
		t.Fatalf("device syncs = %d, want 2 (one per batch)", got)
	}
	if got := reg.Counter("wal.grouped_flushes").Load(); got != 2 {
		t.Fatalf("wal.grouped_flushes = %d, want 2", got)
	}
	if got := reg.Counter("wal.flush_waiters").Load(); got != extra+1 {
		t.Fatalf("wal.flush_waiters = %d, want %d", got, extra+1)
	}
}
