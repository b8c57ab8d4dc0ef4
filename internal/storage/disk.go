package storage

import (
	"fmt"
	"os"
	"sync"
)

// DiskStats counts page-level I/O for the benchmark harness.
type DiskStats struct {
	// Reads and Writes count whole-page transfers.
	Reads  uint64
	Writes uint64
}

// Sub returns the element-wise difference s - o.
func (s DiskStats) Sub(o DiskStats) DiskStats {
	return DiskStats{Reads: s.Reads - o.Reads, Writes: s.Writes - o.Writes}
}

// DiskManager persists pages.  Page writes are atomic at page granularity
// (real systems achieve this with sector-aligned writes; the simulated
// manager provides it trivially).  Both implementations survive the
// engines' simulated crashes: only buffered (in-pool) state is volatile.
// Neither allocates per page read or write: a read decodes into the
// caller's Page and a write encodes into a buffer the manager owns.
type DiskManager interface {
	// ReadPageInto reads page pid into p, overwriting it (see
	// Page.Unmarshal).  On error p is unchanged.
	ReadPageInto(pid PageID, p *Page) error
	// WritePage durably writes the page.
	WritePage(pid PageID, p *Page) error
	// Allocate appends a fresh, empty page and returns its ID.
	Allocate() (PageID, error)
	// NumPages returns the number of allocated pages.
	NumPages() PageID
	// Stats returns cumulative I/O counters.
	Stats() DiskStats
	// Close releases the manager.
	Close() error
}

// MemDisk is an in-memory DiskManager that models stable storage.
type MemDisk struct {
	mu    sync.RWMutex
	pages [][]byte
	stats DiskStats
}

// NewMemDisk returns an empty in-memory disk.
func NewMemDisk() *MemDisk { return &MemDisk{} }

// readFresh reads page pid from d into a fresh Page.
func readFresh(d DiskManager, pid PageID) (*Page, error) {
	p := new(Page)
	if err := d.ReadPageInto(pid, p); err != nil {
		return nil, err
	}
	return p, nil
}

// ReadPage reads page pid into a fresh Page.
func (d *MemDisk) ReadPage(pid PageID) (*Page, error) { return readFresh(d, pid) }

// ReadPageInto implements DiskManager.
func (d *MemDisk) ReadPageInto(pid PageID, p *Page) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(pid) >= len(d.pages) {
		return fmt.Errorf("storage: read of unallocated page %d", pid)
	}
	d.stats.Reads++
	return p.Unmarshal(d.pages[pid])
}

// WritePage implements DiskManager.  The page is encoded over its stored
// image in place.
func (d *MemDisk) WritePage(pid PageID, p *Page) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(pid) >= len(d.pages) {
		return fmt.Errorf("storage: write of unallocated page %d", pid)
	}
	if err := p.MarshalTo(d.pages[pid]); err != nil {
		return err
	}
	d.stats.Writes++
	return nil
}

// Allocate implements DiskManager.
func (d *MemDisk) Allocate() (PageID, error) {
	empty, err := (&Page{}).Marshal()
	if err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pages = append(d.pages, empty)
	return PageID(len(d.pages) - 1), nil
}

// NumPages implements DiskManager.
func (d *MemDisk) NumPages() PageID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return PageID(len(d.pages))
}

// Stats implements DiskManager.
func (d *MemDisk) Stats() DiskStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.stats
}

// Close implements DiskManager.
func (d *MemDisk) Close() error { return nil }

// FileDisk is a DiskManager backed by a single file of concatenated pages.
type FileDisk struct {
	mu    sync.Mutex
	f     *os.File
	n     PageID
	stats DiskStats
	// buf is the one page image every read and write goes through.
	buf [PageSize]byte
}

// OpenFileDisk opens (creating if necessary) a page file at path.
func OpenFileDisk(path string) (*FileDisk, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if fi.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s size %d is not page aligned", path, fi.Size())
	}
	return &FileDisk{f: f, n: PageID(fi.Size() / PageSize)}, nil
}

// ReadPage reads page pid into a fresh Page.
func (d *FileDisk) ReadPage(pid PageID) (*Page, error) { return readFresh(d, pid) }

// ReadPageInto implements DiskManager.
func (d *FileDisk) ReadPageInto(pid PageID, p *Page) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if pid >= d.n {
		return fmt.Errorf("storage: read of unallocated page %d", pid)
	}
	if _, err := d.f.ReadAt(d.buf[:], int64(pid)*PageSize); err != nil {
		return fmt.Errorf("storage: read page %d: %w", pid, err)
	}
	d.stats.Reads++
	return p.Unmarshal(d.buf[:])
}

// WritePage implements DiskManager.
func (d *FileDisk) WritePage(pid PageID, p *Page) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if pid >= d.n {
		return fmt.Errorf("storage: write of unallocated page %d", pid)
	}
	if err := p.MarshalTo(d.buf[:]); err != nil {
		return err
	}
	if _, err := d.f.WriteAt(d.buf[:], int64(pid)*PageSize); err != nil {
		return fmt.Errorf("storage: write page %d: %w", pid, err)
	}
	if err := d.f.Sync(); err != nil {
		return err
	}
	d.stats.Writes++
	return nil
}

// Allocate implements DiskManager.
func (d *FileDisk) Allocate() (PageID, error) {
	empty, err := (&Page{}).Marshal()
	if err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	pid := d.n
	if _, err := d.f.WriteAt(empty, int64(pid)*PageSize); err != nil {
		return 0, fmt.Errorf("storage: allocate page %d: %w", pid, err)
	}
	d.n++
	return pid, nil
}

// NumPages implements DiskManager.
func (d *FileDisk) NumPages() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}

// Stats implements DiskManager.
func (d *FileDisk) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Close implements DiskManager.
func (d *FileDisk) Close() error { return d.f.Close() }
