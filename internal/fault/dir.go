package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"ariesrh/internal/wal"
)

// Dir is a fault-injecting wal.Dir: a directory of dual-image devices
// sharing ONE fault schedule.  The segmented WAL spreads its syncs over
// many devices (segment images, manifest generations); a crash schedule
// that counted per device would miss exactly the cross-device windows
// that matter (rotation: segment sync then manifest sync; archive:
// manifest sync then deletes).  Dir counts every Sync on every device
// against the same Plan, so CrashAtSync=N freezes the whole directory
// at the Nth sync boundary of the run, whichever device it lands on.
//
// Model per device: a working image, a stable image snapshotted on
// successful Sync, and a torn tail only for pure appends.
// Namespace model: Remove is durable immediately while the directory is
// healthy; once the crash schedule fires (frozen), Remove fails with
// ErrCrashPoint — files cannot disappear after the crash point — and
// Open of a NEW name fails likewise, since nothing new can become
// stable.  A device created but never successfully synced does not
// survive CrashNow (its directory entry was never durable).
type Dir struct {
	mu    sync.Mutex
	plan  Plan
	rng   *rand.Rand
	files map[string]*dirFile

	frozen        bool
	transientLeft int

	syncs    uint64
	writes   uint64
	injected uint64
	torn     uint64
}

// dirFile is one device in a Dir.  It implements wal.Store; all state is
// guarded by the owning Dir's mutex.
type dirFile struct {
	d    *Dir
	name string

	working []byte
	stable  []byte
	// stableExists is set by the first successful Sync: only then does
	// the device survive a crash at all.
	stableExists bool
	// overwrote is set when an unsynced write or truncation touched the
	// stable image; CrashNow then drops the whole unsynced delta (the
	// torn-tail model only covers pure appends).
	overwrote bool
}

// NewDir creates an empty fault-injecting directory with the given plan.
func NewDir(plan Plan) *Dir {
	return &Dir{
		plan:          plan,
		rng:           rand.New(rand.NewSource(plan.Seed)),
		files:         make(map[string]*dirFile),
		transientLeft: plan.TransientSyncErrors,
	}
}

// Open returns the named device, creating it if absent.  Creation fails
// with ErrCrashPoint while the directory is frozen: past the crash point
// nothing new can become stable, so handing out a writable fresh device
// would let the log believe in bytes the crash must discard.
func (d *Dir) Open(name string) (wal.Store, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f, ok := d.files[name]; ok {
		return f, nil
	}
	if d.frozen {
		d.injected++
		return nil, fmt.Errorf("open %s: %w", name, ErrCrashPoint)
	}
	f := &dirFile{d: d, name: name}
	d.files[name] = f
	return f, nil
}

// Remove deletes the named device — immediately durable while healthy,
// refused with ErrCrashPoint while frozen (a crashed directory cannot
// lose entries; recovery must observe them and sweep them itself).
func (d *Dir) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.files[name]; !ok {
		return fmt.Errorf("fault: remove %s: no such device", name)
	}
	if d.frozen {
		d.injected++
		return fmt.Errorf("remove %s: %w", name, ErrCrashPoint)
	}
	delete(d.files, name)
	return nil
}

// List returns the device names, sorted.
func (d *Dir) List() ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.files))
	for name := range d.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Close is a no-op (the images are in memory).
func (d *Dir) Close() error { return nil }

// CrashNow materializes the crash across the whole directory: every
// never-synced device vanishes, every other device is rewound to its
// stable image — extended, if the plan asks for torn tails and its
// unsynced delta is a pure append, by a seeded-length prefix of that
// delta.  Devices are processed in sorted name order so the seeded
// choices are deterministic.  The crash schedule is disarmed afterwards;
// persistent failure modes (FailAllSyncs) stay armed.
func (d *Dir) CrashNow() (tornBytes int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.frozen = false
	d.plan.CrashAtSync = 0
	names := make([]string, 0, len(d.files))
	for name := range d.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := d.files[name]
		if !f.stableExists {
			delete(d.files, name)
			continue
		}
		img := append([]byte(nil), f.stable...)
		if d.plan.TornTail && !f.overwrote && len(f.working) > len(f.stable) {
			tail := f.working[len(f.stable):]
			keep := d.rng.Intn(len(tail) + 1)
			img = append(img, tail[:keep]...)
			tornBytes += keep
			if keep > 0 {
				d.torn++
			}
		}
		f.working = img
		f.stable = append([]byte(nil), img...)
		f.overwrote = false
	}
	return tornBytes, nil
}

// StableDir snapshots the crash-surviving state of the directory as a
// wal.MemDir: exactly the devices (and bytes) CrashNow would leave
// behind, minus torn tails.  Oracles decode it with wal.ReadDurable to
// learn the durable log without disturbing the live directory.
func (d *Dir) StableDir() *wal.MemDir {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := wal.NewMemDir()
	for name, f := range d.files {
		if f.stableExists {
			out.Put(name, append([]byte(nil), f.stable...))
		}
	}
	return out
}

// SetFailAllSyncs arms or disarms the persistent-failure mode.
func (d *Dir) SetFailAllSyncs(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.plan.FailAllSyncs = on
}

// Syncs returns the number of Sync attempts observed across all devices
// (including failed ones); a fault-free probe run's count enumerates the
// sync boundaries of a workload.
func (d *Dir) Syncs() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncs
}

// Writes returns the number of WriteAt calls observed across all devices.
func (d *Dir) Writes() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writes
}

// InjectedErrors returns the number of errors injected so far (failed
// syncs plus refused opens/removes while frozen).
func (d *Dir) InjectedErrors() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.injected
}

// TornCrashes returns the number of devices that kept a non-empty torn
// tail across CrashNow calls.
func (d *Dir) TornCrashes() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.torn
}

// Frozen reports whether the crash schedule has fired.
func (d *Dir) Frozen() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.frozen
}

// ReadAt implements io.ReaderAt over the working image.
func (f *dirFile) ReadAt(p []byte, off int64) (int, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("fault: negative offset %d", off)
	}
	if off >= int64(len(f.working)) {
		if len(p) == 0 {
			return 0, nil
		}
		return 0, fmt.Errorf("fault: read %s at %d beyond size %d", f.name, off, len(f.working))
	}
	n := copy(p, f.working[off:])
	if n < len(p) {
		return n, fmt.Errorf("fault: short read %s at %d", f.name, off)
	}
	return n, nil
}

// WriteAt implements io.WriterAt into the working image; the bytes are
// not durable until the next successful Sync.
func (f *dirFile) WriteAt(p []byte, off int64) (int, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("fault: negative offset %d", off)
	}
	f.d.writes++
	if off < int64(len(f.stable)) {
		f.overwrote = true
	}
	end := off + int64(len(p))
	if end > int64(len(f.working)) {
		grown := make([]byte, end)
		copy(grown, f.working)
		f.working = grown
	}
	copy(f.working[off:], p)
	return len(p), nil
}

// Size returns the working image size.
func (f *dirFile) Size() (int64, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	return int64(len(f.working)), nil
}

// Truncate shrinks the working image; truncating into the stable image
// counts as an overwrite for the torn-tail model.
func (f *dirFile) Truncate(size int64) error {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if size < int64(len(f.stable)) {
		f.overwrote = true
	}
	if size >= 0 && size < int64(len(f.working)) {
		f.working = f.working[:size]
	}
	return nil
}

// Sync runs the directory's shared fault schedule; on success this
// device's working image becomes its stable image.
func (f *dirFile) Sync() error {
	d := f.d
	d.mu.Lock()
	defer d.mu.Unlock()
	d.syncs++
	n := d.syncs
	if d.plan.DelayEveryNthSync > 0 && d.plan.SyncDelay > 0 && n%d.plan.DelayEveryNthSync == 0 {
		time.Sleep(d.plan.SyncDelay)
	}
	if d.frozen {
		d.injected++
		return ErrCrashPoint
	}
	failing := d.plan.FailSyncsFrom > 0 && n >= d.plan.FailSyncsFrom && n-d.plan.FailSyncsFrom < d.plan.FailSyncsCount
	if d.plan.FailAllSyncs || failing {
		d.injected++
		return ErrDeviceFailed
	}
	if d.transientLeft > 0 {
		d.transientLeft--
		d.injected++
		return ErrInjectedSync
	}
	if d.plan.FailEveryNthSync > 0 && n%d.plan.FailEveryNthSync == 0 {
		d.injected++
		return ErrInjectedSync
	}
	f.stable = append(f.stable[:0], f.working...)
	f.stableExists = true
	f.overwrote = false
	if d.plan.CrashAtSync > 0 && n >= d.plan.CrashAtSync {
		d.frozen = true
	}
	return nil
}

// Close is a no-op; the Dir owns the images.
func (f *dirFile) Close() error { return nil }
