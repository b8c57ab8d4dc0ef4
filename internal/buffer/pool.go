// Package buffer implements the buffer pool between the recovery engines
// and the disk manager.  It follows the STEAL / NO-FORCE policy assumed by
// ARIES: dirty pages of uncommitted transactions may be written back
// (steal), and commit does not force data pages — only the log is forced.
// The write-ahead rule is enforced here: before a dirty page is evicted,
// the log is flushed through the page's pageLSN.
package buffer

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"ariesrh/internal/obs"
	"ariesrh/internal/storage"
	"ariesrh/internal/wal"
)

// ErrPoolExhausted is returned when every frame is pinned and a new page
// must be brought in.
var ErrPoolExhausted = errors.New("buffer: all frames pinned")

// frame holds one page of the pool.  A frame outlives the pages it
// holds: a miss evicts the least recently used unpinned frame and decodes
// the incoming page into the victim's Page, so steady-state misses
// allocate nothing.
type frame struct {
	pid   storage.PageID
	page  storage.Page
	pins  int
	dirty bool
	// prev and next link the frame into the pool's LRU list while it is
	// unpinned; both are nil while it is pinned.
	prev, next *frame
}

// Pool is an LRU buffer pool.  It is safe for concurrent use.
//
// Pool contents are volatile: Crash discards every frame, including dirty
// ones, simulating the loss of main memory at failure time.
type Pool struct {
	mu       sync.Mutex
	disk     storage.DiskManager
	capacity int
	flushLog func(wal.LSN) error

	frames map[storage.PageID]*frame
	// lru is the sentinel of a circular list of the unpinned frames, least
	// recently used at lru.next; its own page is never used.
	lru   frame
	dirty map[storage.PageID]wal.LSN
	met   poolMetrics
}

// poolMetrics holds the pool's pre-resolved metric handles.  A fresh pool
// binds them to a private registry so they are never nil; the owning
// engine rebinds them to its own registry via Instrument.
type poolMetrics struct {
	hits, misses, evictions, flushes, walForces *obs.Counter
}

func bindPoolMetrics(r *obs.Registry) poolMetrics {
	return poolMetrics{
		hits:      r.Counter("buffer.hits"),
		misses:    r.Counter("buffer.misses"),
		evictions: r.Counter("buffer.evictions"),
		flushes:   r.Counter("buffer.flushes"),
		walForces: r.Counter("buffer.wal_forces"),
	}
}

// Instrument rebinds the pool's metrics to reg (see internal/obs).  Call
// it at construction time, before the pool is shared.
func (p *Pool) Instrument(reg *obs.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.met = bindPoolMetrics(reg)
}

// NewPool creates a pool of the given capacity over disk.  flushLog is
// invoked with a pageLSN before any dirty page reaches disk (the WAL rule);
// pass a function that flushes the log through that LSN.
func NewPool(disk storage.DiskManager, capacity int, flushLog func(wal.LSN) error) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	if flushLog == nil {
		flushLog = func(wal.LSN) error { return nil }
	}
	p := &Pool{
		disk:     disk,
		capacity: capacity,
		flushLog: flushLog,
		frames:   make(map[storage.PageID]*frame),
		dirty:    make(map[storage.PageID]wal.LSN),
		met:      bindPoolMetrics(obs.NewRegistry()),
	}
	p.lru.prev, p.lru.next = &p.lru, &p.lru
	return p
}

// pushLRU appends f, which must be unlinked, as the most recently used
// unpinned frame.
func (p *Pool) pushLRU(f *frame) {
	f.prev, f.next = p.lru.prev, &p.lru
	f.prev.next, p.lru.prev = f, f
}

// unlinkLRU removes f from the LRU list if it is on it.
func unlinkLRU(f *frame) {
	if f.next == nil {
		return
	}
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
}

// Fetch pins page pid and returns its in-pool image.  The caller must hold
// whatever latch serializes page access (the engines serialize via their
// own mutex) and must Unpin the page when done; after Unpin the Page may
// be reused for another page id, so the caller must not keep it.
func (p *Pool) Fetch(pid storage.PageID) (*storage.Page, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.frames[pid]; ok {
		p.met.hits.Inc()
		unlinkLRU(f)
		f.pins++
		return &f.page, nil
	}
	f, err := p.loadLocked(pid)
	if err != nil {
		return nil, err
	}
	f.pins = 1
	return &f.page, nil
}

// Prefault brings pid into the pool without pinning it, evicting (and, if
// dirty, writing back under the WAL rule) a victim if needed.  Unlike
// Fetch it does not return the page and requires no engine latch: the
// whole operation happens inside one pool critical section, so it cannot
// interleave with Crash in a way that strands a pin.  Engines use it to
// take page faults — and eviction I/O — off their global latch.
func (p *Pool) Prefault(pid storage.PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.frames[pid]; ok {
		p.met.hits.Inc()
		return nil
	}
	f, err := p.loadLocked(pid)
	if err != nil {
		return err
	}
	p.pushLRU(f)
	return nil
}

// loadLocked takes a miss on pid: it reads the page into a free frame —
// the evicted victim's, or a new one while the pool is below capacity —
// and registers it unpinned and unlinked.  If the read fails the frame is
// dropped, so the pool holds one frame fewer and stays consistent.
func (p *Pool) loadLocked(pid storage.PageID) (*frame, error) {
	p.met.misses.Inc()
	f, err := p.evictForSpaceLocked()
	if err != nil {
		return nil, err
	}
	if f == nil {
		f = new(frame)
	}
	if err := p.disk.ReadPageInto(pid, &f.page); err != nil {
		return nil, err
	}
	f.pid = pid
	p.frames[pid] = f
	return f, nil
}

// evictForSpaceLocked makes room for one more frame, flushing a dirty
// victim under the WAL rule if needed.  It returns the victim — unpinned,
// clean, unlinked and out of the page table, so no caller can still hold
// its page — or nil if the pool is below capacity.
func (p *Pool) evictForSpaceLocked() (*frame, error) {
	if len(p.frames) < p.capacity {
		return nil, nil
	}
	victim := p.lru.next
	if victim == &p.lru {
		return nil, fmt.Errorf("%w: capacity %d", ErrPoolExhausted, p.capacity)
	}
	if victim.dirty {
		if err := p.forceLogLocked(victim.page.LSN); err != nil {
			return nil, fmt.Errorf("buffer: WAL flush before evicting page %d: %w", victim.pid, err)
		}
		if err := p.writeFrameLocked(victim); err != nil {
			return nil, err
		}
	}
	unlinkLRU(victim)
	delete(p.frames, victim.pid)
	p.met.evictions.Inc()
	return victim, nil
}

// forceLogLocked applies the WAL rule: the log is made stable through lsn
// before any page stamped with a pageLSN ≤ lsn is written.
func (p *Pool) forceLogLocked(lsn wal.LSN) error {
	p.met.walForces.Inc()
	return p.flushLog(lsn)
}

// writeFrameLocked writes one dirty frame to disk; the caller has already
// forced the log through its pageLSN.
func (p *Pool) writeFrameLocked(f *frame) error {
	if err := p.disk.WritePage(f.pid, &f.page); err != nil {
		return err
	}
	f.dirty = false
	delete(p.dirty, f.pid)
	p.met.flushes.Inc()
	return nil
}

// Unpin releases one pin on pid.  If dirty is true the page is marked
// dirty; recLSN is recorded in the dirty-page table the first time the page
// becomes dirty (the LSN of the earliest record that may need redoing).
func (p *Pool) Unpin(pid storage.PageID, dirty bool, recLSN wal.LSN) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[pid]
	if !ok {
		return fmt.Errorf("buffer: unpin of unfetched page %d", pid)
	}
	if f.pins <= 0 {
		return fmt.Errorf("buffer: unpin of unpinned page %d", pid)
	}
	if dirty {
		f.dirty = true
		if _, ok := p.dirty[pid]; !ok {
			p.dirty[pid] = recLSN
		}
	}
	f.pins--
	if f.pins == 0 {
		p.pushLRU(f)
	}
	return nil
}

// FlushAll writes every dirty frame to disk (used by clean shutdown and by
// checkpoint variants that flush; fuzzy checkpoints do not call it).  The
// log is forced once, through the highest dirty pageLSN, which satisfies
// the WAL rule for every page; the pages are then written in PageID order,
// so the device sees the same write sequence on every run.
func (p *Pool) FlushAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var todo []*frame
	var through wal.LSN
	for _, f := range p.frames {
		if f.dirty {
			todo = append(todo, f)
			through = max(through, f.page.LSN)
		}
	}
	if len(todo) == 0 {
		return nil
	}
	if err := p.forceLogLocked(through); err != nil {
		return fmt.Errorf("buffer: WAL flush before writing back %d pages: %w", len(todo), err)
	}
	slices.SortFunc(todo, func(a, b *frame) int { return cmp.Compare(a.pid, b.pid) })
	for _, f := range todo {
		if err := p.writeFrameLocked(f); err != nil {
			return err
		}
	}
	return nil
}

// DirtyPageTable returns a copy of the dirty-page table (pid → recLSN),
// as logged by fuzzy checkpoints.
func (p *Pool) DirtyPageTable() map[storage.PageID]wal.LSN {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[storage.PageID]wal.LSN, len(p.dirty))
	for pid, lsn := range p.dirty {
		out[pid] = lsn
	}
	return out
}

// Crash discards every frame — dirty or not — without flushing, simulating
// the loss of volatile memory.
func (p *Pool) Crash() {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Every frame is dropped, not recycled: one still pinned across the
	// crash may be written through by its holder, so its Page is never
	// handed to another page id.
	p.frames = make(map[storage.PageID]*frame)
	p.lru.prev, p.lru.next = &p.lru, &p.lru
	p.dirty = make(map[storage.PageID]wal.LSN)
}
