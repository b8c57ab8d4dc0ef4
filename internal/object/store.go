// Package object implements the object-level access layer shared by all
// recovery engines: a directory mapping ObjectID → (page, slot) over the
// buffer pool, with the pageLSN discipline that makes redo idempotent.
//
// Objects are registers of up to storage.MaxValueSize bytes.  An object
// that has never been written reads as absent; engines model "the value
// before the first update" with an empty before-image, so undoing the first
// update of an object restores the empty value.
package object

import (
	"fmt"
	"sync"

	"ariesrh/internal/buffer"
	"ariesrh/internal/storage"
	"ariesrh/internal/wal"
)

type rid struct {
	pid  storage.PageID
	slot int
}

// Store provides object reads and (logged-elsewhere) object writes on top
// of the buffer pool.  It is safe for concurrent use.
//
// The directory is volatile: Crash discards it and Reload rebuilds it by
// scanning the stable pages, exactly as a real system rebuilds its
// in-memory maps during restart.
type Store struct {
	mu   sync.Mutex
	pool *buffer.Pool
	disk storage.DiskManager
	dir  map[wal.ObjectID]rid
	// free lists pages believed to have at least one free slot.
	free []storage.PageID
}

// Open creates a store over pool and disk and loads the directory from the
// stable pages.
func Open(pool *buffer.Pool, disk storage.DiskManager) (*Store, error) {
	s := &Store{pool: pool, disk: disk}
	if err := s.Reload(); err != nil {
		return nil, err
	}
	return s, nil
}

// Reload rebuilds the directory and free list by scanning every stable
// page.  Called at open and after a simulated crash.  Every page decodes
// into one scratch Page.
func (s *Store) Reload() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dir = make(map[wal.ObjectID]rid)
	s.free = s.free[:0]
	n := s.disk.NumPages()
	page := new(storage.Page)
	for pid := storage.PageID(0); pid < n; pid++ {
		if err := s.disk.ReadPageInto(pid, page); err != nil {
			return fmt.Errorf("object: reload page %d: %w", pid, err)
		}
		hasFree := false
		for i := range page.Slots {
			sl := &page.Slots[i]
			if sl.Used {
				s.dir[sl.Object] = rid{pid: pid, slot: i}
			} else {
				hasFree = true
			}
		}
		if hasFree {
			s.free = append(s.free, pid)
		}
	}
	return nil
}

// Read returns the current value of obj and whether it exists.  The
// returned slice is a copy.
func (s *Store) Read(obj wal.ObjectID) ([]byte, bool, error) {
	return s.AppendValue(nil, obj)
}

// AppendValue appends the current value of obj to dst and returns the
// extended slice and whether obj exists (dst unchanged if not).  The page
// stays pinned while the value is copied, so a caller that reuses dst
// reads without allocating.
func (s *Store) AppendValue(dst []byte, obj wal.ObjectID) ([]byte, bool, error) {
	s.mu.Lock()
	r, ok := s.dir[obj]
	s.mu.Unlock()
	if !ok {
		return dst, false, nil
	}
	page, err := s.pool.Fetch(r.pid)
	if err != nil {
		return dst, false, err
	}
	defer s.pool.Unpin(r.pid, false, wal.NilLSN)
	sl := &page.Slots[r.slot]
	if !sl.Used || sl.Object != obj {
		return dst, false, fmt.Errorf("object: directory entry for %d is stale", obj)
	}
	return append(dst, sl.Value...), true, nil
}

// Write sets obj to val and stamps the containing page with pageLSN lsn
// (the LSN of the log record describing this change, which the caller must
// have appended first — write-ahead logging).  A new slot is allocated for
// objects not yet stored.
func (s *Store) Write(obj wal.ObjectID, val []byte, lsn wal.LSN) error {
	if len(val) > storage.MaxValueSize {
		return fmt.Errorf("object: value of %d bytes exceeds max %d", len(val), storage.MaxValueSize)
	}
	r, err := s.locate(obj)
	if err != nil {
		return err
	}
	page, err := s.pool.Fetch(r.pid)
	if err != nil {
		return err
	}
	sl := &page.Slots[r.slot]
	sl.Used = true
	sl.Object = obj
	sl.Value = append(sl.Value[:0], val...)
	if lsn > page.LSN {
		page.LSN = lsn
	}
	return s.pool.Unpin(r.pid, true, lsn)
}

// Prefetch pulls the page holding obj into the buffer pool without reading
// or writing its contents, so a later Read/Write under the engine latch
// hits memory.  The point is latch-scope reduction: the page fault — and a
// possible eviction of another dirty page, with its write-back and
// WAL-rule log flush — happens on the caller's thread with no engine latch
// held.  Purely a performance hint: unknown objects are ignored, errors
// are swallowed (the latched access will surface them), and the page may
// be evicted again before it is used.
func (s *Store) Prefetch(obj wal.ObjectID) {
	s.mu.Lock()
	r, ok := s.dir[obj]
	s.mu.Unlock()
	if !ok {
		return
	}
	_ = s.pool.Prefault(r.pid)
}

// PageLSN returns the pageLSN of the page holding obj (NilLSN for objects
// not yet stored).  The redo pass uses it to decide whether a logged change
// is already reflected on the page.
func (s *Store) PageLSN(obj wal.ObjectID) (wal.LSN, error) {
	s.mu.Lock()
	r, ok := s.dir[obj]
	s.mu.Unlock()
	if !ok {
		return wal.NilLSN, nil
	}
	page, err := s.pool.Fetch(r.pid)
	if err != nil {
		return wal.NilLSN, err
	}
	defer s.pool.Unpin(r.pid, false, wal.NilLSN)
	return page.LSN, nil
}

// PageOf returns the page currently holding obj without allocating one
// for unknown objects.  Parallel recovery uses it to group redo work and
// to seed per-page baselines: an absent object has no stable image, so
// its redo baseline is NilLSN.
func (s *Store) PageOf(obj wal.ObjectID) (storage.PageID, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.dir[obj]
	return r.pid, ok
}

// Locate returns the page holding obj, allocating a slot (and, if
// needed, a page) for objects not yet stored.  Parallel recovery calls
// it before the first write touching obj so the page's pre-recovery
// pageLSN can be captured while it is still the stable one.
func (s *Store) Locate(obj wal.ObjectID) (storage.PageID, error) {
	r, err := s.locate(obj)
	return r.pid, err
}

// PageLSNAt returns the pageLSN of page pid.  Unlike PageLSN it is
// keyed by page, not object: recovery baselines are per page, because a
// page flushed at pageLSN pl covers the updates with LSN ≤ pl of every
// object stored in it.
func (s *Store) PageLSNAt(pid storage.PageID) (wal.LSN, error) {
	page, err := s.pool.Fetch(pid)
	if err != nil {
		return wal.NilLSN, err
	}
	defer s.pool.Unpin(pid, false, wal.NilLSN)
	return page.LSN, nil
}

// locate returns the rid for obj, allocating a slot (and, if needed, a
// page) for new objects.
func (s *Store) locate(obj wal.ObjectID) (rid, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.dir[obj]; ok {
		return r, nil
	}
	for len(s.free) > 0 {
		pid := s.free[len(s.free)-1]
		page, err := s.pool.Fetch(pid)
		if err != nil {
			return rid{}, err
		}
		slot := page.FreeSlot()
		if slot < 0 {
			s.pool.Unpin(pid, false, wal.NilLSN)
			s.free = s.free[:len(s.free)-1]
			continue
		}
		// Reserve the slot; the caller's Write fills it in and marks
		// the page dirty with the real recLSN.  The reservation itself
		// is volatile: losing it to eviction or a crash is harmless
		// because Write re-establishes the slot contents.
		page.Slots[slot].Used = true
		page.Slots[slot].Object = obj
		if err := s.pool.Unpin(pid, false, wal.NilLSN); err != nil {
			return rid{}, err
		}
		r := rid{pid: pid, slot: slot}
		s.dir[obj] = r
		return r, nil
	}
	pid, err := s.disk.Allocate()
	if err != nil {
		return rid{}, err
	}
	s.free = append(s.free, pid)
	page, err := s.pool.Fetch(pid)
	if err != nil {
		return rid{}, err
	}
	page.Slots[0].Used = true
	page.Slots[0].Object = obj
	if err := s.pool.Unpin(pid, false, wal.NilLSN); err != nil {
		return rid{}, err
	}
	r := rid{pid: pid, slot: 0}
	s.dir[obj] = r
	return r, nil
}

// Crash discards the pool contents and the volatile directory, then
// rebuilds the directory from stable storage.
func (s *Store) Crash() error {
	s.pool.Crash()
	return s.Reload()
}

// FlushAll writes all dirty pages back (clean shutdown).
func (s *Store) FlushAll() error { return s.pool.FlushAll() }

// NumObjects returns the number of directory entries; test helper.
func (s *Store) NumObjects() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.dir)
}
