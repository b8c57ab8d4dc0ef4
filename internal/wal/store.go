package wal

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// Store is the stable-storage device a Log persists to.  It is a plain
// random-access byte device; the Log layers framing, LSNs and crash
// semantics on top.  Two implementations are provided: MemStore (simulated
// stable storage, used by tests, benchmarks and crash injection) and
// FileStore (a real file); internal/fault wraps either with deterministic
// fault injection.
//
// Crash-safety contract: bytes are guaranteed durable — i.e. survive
// (*Log).Crash and a process failure — only once a Sync call issued
// after the write has returned nil.  Written-but-unsynced bytes may
// survive a crash entirely, partially (a torn prefix of the last
// append), or not at all; the Log's recovery scan tolerates exactly
// that by truncating a torn final frame.  A Sync that returns an error
// promises nothing about the writes it covered.
type Store interface {
	io.ReaderAt
	io.WriterAt
	// Size returns the current size of the device in bytes.
	Size() (int64, error)
	// Sync forces previously written bytes to stable storage.  On nil
	// return every byte written before the call is durable; on error
	// their fate is unknown (the Log treats such errors as transient
	// and retries unless they are marked ErrNoRetry).
	Sync() error
	// Truncate shrinks the device to size bytes.  Like writes, a
	// truncation is durable only after a subsequent successful Sync.
	Truncate(size int64) error
	// Close releases the device.  It does not imply Sync.
	Close() error
}

// MemStore is an in-memory Store that simulates stable storage.  Bytes
// written and synced survive (*Log).Crash, which makes it the device of
// choice for deterministic crash-injection tests.  MemStore itself is
// stricter than the Store contract requires: every write is immediately
// "stable" (Sync is a no-op), so it never produces torn tails on its
// own — use a device of a fault.Dir to model unsynced-byte loss and torn
// appends.  The zero value is an empty, ready-to-use store.
type MemStore struct {
	mu   sync.RWMutex
	data []byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// ReadAt implements io.ReaderAt.
func (s *MemStore) ReadAt(p []byte, off int64) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if off < 0 {
		return 0, fmt.Errorf("wal: negative offset %d", off)
	}
	if off >= int64(len(s.data)) {
		return 0, io.EOF
	}
	n := copy(p, s.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt, growing the store as needed.
func (s *MemStore) WriteAt(p []byte, off int64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("wal: negative offset %d", off)
	}
	end := off + int64(len(p))
	if end > int64(len(s.data)) {
		if end > int64(cap(s.data)) {
			// Grow geometrically: a simple make(end) here would
			// copy the whole store on every growing write, turning
			// a sequence of appends quadratic.
			newCap := 2 * cap(s.data)
			if int64(newCap) < end {
				newCap = int(end)
			}
			grown := make([]byte, end, newCap)
			copy(grown, s.data)
			s.data = grown
		} else {
			s.data = s.data[:end]
		}
	}
	copy(s.data[off:], p)
	return len(p), nil
}

// Size returns the number of bytes in the store.
func (s *MemStore) Size() (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int64(len(s.data)), nil
}

// Sync is a no-op: MemStore models the stable device itself.
func (s *MemStore) Sync() error { return nil }

// Truncate shrinks the store to size bytes.
func (s *MemStore) Truncate(size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if size < 0 || size > int64(len(s.data)) {
		return fmt.Errorf("wal: truncate size %d out of range [0,%d]", size, len(s.data))
	}
	s.data = s.data[:size]
	return nil
}

// Close is a no-op.
func (s *MemStore) Close() error { return nil }

// Bytes returns a copy of the store contents; test helper.
func (s *MemStore) Bytes() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]byte(nil), s.data...)
}

// FileStore is a Store backed by a file on disk.
type FileStore struct{ f *os.File }

// OpenFileStore opens (creating if necessary) the file at path as a Store.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	return &FileStore{f: f}, nil
}

// ReadAt implements io.ReaderAt.
func (s *FileStore) ReadAt(p []byte, off int64) (int, error) { return s.f.ReadAt(p, off) }

// WriteAt implements io.WriterAt.
func (s *FileStore) WriteAt(p []byte, off int64) (int, error) { return s.f.WriteAt(p, off) }

// Size returns the file size.
func (s *FileStore) Size() (int64, error) {
	fi, err := s.f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// Sync fsyncs the file.
func (s *FileStore) Sync() error { return s.f.Sync() }

// Truncate shrinks the file.
func (s *FileStore) Truncate(size int64) error { return s.f.Truncate(size) }

// Close closes the file.
func (s *FileStore) Close() error { return s.f.Close() }
