package bench

import (
	"sync"
	"sync/atomic"
	"time"

	"ariesrh/internal/wal"
)

// syncDelayDir wraps an in-memory wal directory, counting device Sync
// calls across all its devices and charging each one a fixed latency.
// MemDir's syncs are free, which would hide exactly what group commit
// buys: without a sync cost, N serialized syncs and 1 coalesced sync
// take the same time.  The delay models a commodity device (an NVMe
// flush is tens of µs, a SATA disk milliseconds).
type syncDelayDir struct {
	inner *wal.MemDir
	delay time.Duration
	syncs atomic.Uint64

	mu   sync.Mutex
	open map[string]wal.Store
}

func newSyncDelayDir(delay time.Duration) *syncDelayDir {
	return &syncDelayDir{inner: wal.NewMemDir(), delay: delay, open: make(map[string]wal.Store)}
}

// Open caches the wrapper per name so repeated opens observe one device,
// as the wal.Dir contract requires.
func (d *syncDelayDir) Open(name string) (wal.Store, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s, ok := d.open[name]; ok {
		return s, nil
	}
	inner, err := d.inner.Open(name)
	if err != nil {
		return nil, err
	}
	s := &syncDelayStore{Store: inner, dir: d}
	d.open[name] = s
	return s, nil
}

func (d *syncDelayDir) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.open, name)
	return d.inner.Remove(name)
}

func (d *syncDelayDir) List() ([]string, error) { return d.inner.List() }
func (d *syncDelayDir) Close() error            { return d.inner.Close() }

// syncDelayStore is one device of a syncDelayDir.
type syncDelayStore struct {
	wal.Store
	dir *syncDelayDir
}

func (s *syncDelayStore) Sync() error {
	s.dir.syncs.Add(1)
	if s.dir.delay > 0 {
		time.Sleep(s.dir.delay)
	}
	return s.Store.Sync()
}
