package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

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

func appendN(t *testing.T, l *Log, n int) LSN {
	t.Helper()
	var last LSN
	for i := 0; i < n; i++ {
		lsn, err := l.Append(&Record{Type: TypeUpdate, TxID: 1, Object: 1, After: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		last = lsn
	}
	return last
}

func waitCB(t *testing.T, ch <-chan error) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(2 * time.Second):
		t.Fatal("OnDurable callback never fired")
		return nil
	}
}

// TestOnDurableAlreadyFlushed: a registration at or below the durable
// horizon fires immediately with nil.
func TestOnDurableAlreadyFlushed(t *testing.T) {
	l, err := NewLog(NewMemDir())
	if err != nil {
		t.Fatal(err)
	}
	lsn := appendN(t, l, 3)
	if err := l.Flush(lsn); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	l.OnDurable(lsn, func(err error) { got <- err })
	if err := waitCB(t, got); err != nil {
		t.Fatalf("callback error = %v, want nil", err)
	}
}

// TestOnDurableFiresOnSyncFlush: a pending registration fires once a
// synchronous Flush covers it, and registrations above the flushed range
// stay pending.
func TestOnDurableFiresOnSyncFlush(t *testing.T) {
	l, err := NewLog(NewMemDir())
	if err != nil {
		t.Fatal(err)
	}
	last := appendN(t, l, 5)
	low, high := make(chan error, 1), make(chan error, 1)
	l.OnDurable(2, func(err error) { low <- err })
	l.OnDurable(last, func(err error) { high <- err })
	if err := l.Flush(3); err != nil {
		t.Fatal(err)
	}
	if err := waitCB(t, low); err != nil {
		t.Fatalf("low callback error = %v, want nil", err)
	}
	select {
	case err := <-high:
		t.Fatalf("high callback fired early (err=%v) at flushed=%d", err, l.FlushedLSN())
	case <-time.After(50 * time.Millisecond):
	}
	if err := l.Flush(last); err != nil {
		t.Fatal(err)
	}
	if err := waitCB(t, high); err != nil {
		t.Fatalf("high callback error = %v, want nil", err)
	}
}

// TestOnDurableFiresOnGroupFlush: registrations are served by the group
// flush leader alongside FlushAsync waiters.
func TestOnDurableFiresOnGroupFlush(t *testing.T) {
	l, err := NewLog(NewMemDir())
	if err != nil {
		t.Fatal(err)
	}
	last := appendN(t, l, 4)
	got := make(chan error, 1)
	l.OnDurable(last, func(err error) { got <- err })
	if ferr := <-l.FlushAsync(last); ferr != nil {
		t.Fatal(ferr)
	}
	if err := waitCB(t, got); err != nil {
		t.Fatalf("callback error = %v, want nil", err)
	}
}

// TestOnDurableErrorOnFailedFlush: a failed flush round delivers its
// error to pending registrations exactly once.
func TestOnDurableErrorOnFailedFlush(t *testing.T) {
	dir := &failSyncDir{MemDir: NewMemDir()}
	l, err := NewLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := appendN(t, l, 2)
	injected := fmt.Errorf("device gone: %w", ErrNoRetry)
	dir.FailSyncsWith(injected)
	got := make(chan error, 2)
	l.OnDurable(last, func(err error) { got <- err })
	if ferr := <-l.FlushAsync(last); ferr == nil {
		t.Fatal("FlushAsync succeeded through a failing device")
	}
	if err := waitCB(t, got); !errors.Is(err, injected) {
		t.Fatalf("callback error = %v, want wrapped %v", err, injected)
	}
	// Exactly once: a later successful flush must not re-fire it.
	dir.FailSyncsWith(nil)
	if err := l.Flush(last); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		t.Fatalf("callback fired twice (second err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestOnDurableErrorOnCrash: Crash delivers an error to every pending
// registration — the instance they registered against is gone — and the
// error carries the ErrLogCrashed sentinel so callers can tell a crash
// from a device refusal.
func TestOnDurableErrorOnCrash(t *testing.T) {
	l, err := NewLog(NewMemDir())
	if err != nil {
		t.Fatal(err)
	}
	last := appendN(t, l, 2)
	got := make(chan error, 1)
	l.OnDurable(last, func(err error) { got <- err })
	if err := l.Crash(); err != nil {
		t.Fatal(err)
	}
	cberr := waitCB(t, got)
	if cberr == nil {
		t.Fatal("callback delivered nil across a crash that lost the records")
	}
	if !errors.Is(cberr, ErrLogCrashed) {
		t.Fatalf("callback error = %v, want errors.Is(_, ErrLogCrashed)", cberr)
	}
}
