package main

import (
	"sync"
	"sync/atomic"

	"ariesrh/internal/wal"
)

// deviceStats is what the device wrapper counts, over all its devices.
type deviceStats struct {
	syncs, writes, writeBytes, opens, removes int64
}

// tracedDir wraps the log's stable directory — a real FileDir for the file
// workloads, a MemDir for the others — and measures the device from outside
// the program: every Sync and WriteAt is counted, timed and recorded as a
// span.  It is injected through Options.FaultDir (shard.Options.LogDirs for
// cross_shard); the timed pass never uses it.
type tracedDir struct {
	inner wal.Dir
	tr    *tracer
	mu    sync.Mutex
	open  map[string]wal.Store

	syncs, writes, writeBytes, opens, removes atomic.Int64
}

func newTracedDir(inner wal.Dir, tr *tracer) *tracedDir {
	return &tracedDir{inner: inner, tr: tr, open: make(map[string]wal.Store)}
}

// Open caches the wrapper per name: the wal.Dir contract promises the same
// Store for the same name until Remove.
func (d *tracedDir) Open(name string) (wal.Store, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s, ok := d.open[name]; ok {
		return s, nil
	}
	inner, err := d.inner.Open(name)
	if err != nil {
		return nil, err
	}
	d.opens.Add(1)
	s := &tracedStore{Store: inner, dir: d}
	d.open[name] = s
	return s, nil
}

func (d *tracedDir) Remove(name string) error {
	d.mu.Lock()
	delete(d.open, name)
	d.mu.Unlock()
	d.removes.Add(1)
	return d.inner.Remove(name)
}

func (d *tracedDir) List() ([]string, error) { return d.inner.List() }
func (d *tracedDir) Close() error            { return d.inner.Close() }

func (d *tracedDir) stats() deviceStats {
	return deviceStats{d.syncs.Load(), d.writes.Load(), d.writeBytes.Load(), d.opens.Load(), d.removes.Load()}
}

type tracedStore struct {
	wal.Store
	dir *tracedDir
}

func (s *tracedStore) Sync() error {
	d := s.dir
	t0 := d.tr.clock()
	err := s.Store.Sync()
	d.syncs.Add(1)
	d.tr.addShared(spanDeviceSync, t0, d.tr.clock())
	return err
}

func (s *tracedStore) WriteAt(p []byte, off int64) (int, error) {
	d := s.dir
	t0 := d.tr.clock()
	n, err := s.Store.WriteAt(p, off)
	d.writes.Add(1)
	d.writeBytes.Add(int64(n))
	d.tr.addShared(spanDeviceWrite, t0, d.tr.clock())
	return n, err
}
