// Package fault provides deterministic fault injection for the log's
// stable devices: every segment and manifest store (wal.Store) of a log
// directory (wal.Dir).  Page writes are not injected.
//
// The central abstraction is the dual image: every device of a fault.Dir
// tracks both its working contents (everything written) and its stable
// image (the contents as of the last successful Sync).  A simulated
// crash (CrashNow) rewinds each device to its stable image, optionally
// extended by a seeded torn prefix of the unsynced tail —
// exactly the set of states a real disk can present after power loss,
// given that the WAL appends sequentially and syncs in prefix order.
//
// Faults are described by a Plan and are fully deterministic: the same
// plan and the same workload produce the same injected errors, the same
// crash image and the same torn-tail length.  Schedules are enumerable —
// a probe run counts the sync boundaries of a workload, then one run
// per boundary crashes at each (see internal/torture).
package fault

import (
	"errors"
	"fmt"
	"time"

	"ariesrh/internal/wal"
)

// ErrCrashPoint is the error injected once a crash schedule triggers:
// the device is frozen (no further bytes can become stable) and every
// subsequent Sync fails with it until CrashNow materializes the crash.
// It wraps wal.ErrNoRetry — retrying a crash is pointless, and skipping
// the backoff keeps enumerated crash sweeps fast.
var ErrCrashPoint = fmt.Errorf("fault: injected crash point (%w)", wal.ErrNoRetry)

// ErrInjectedSync is the transient sync failure injected by
// TransientSyncErrors / FailEveryNthSync plans.  It does not wrap
// wal.ErrNoRetry: the WAL's bounded-backoff retry is expected to absorb
// it.
var ErrInjectedSync = errors.New("fault: injected transient sync failure")

// ErrDeviceFailed is the persistent device failure injected while
// FailAllSyncs is armed.  Deliberately not marked wal.ErrNoRetry: a
// real dying device looks transient until the retry budget is spent, so
// this exercises the full retry-then-degrade path.
var ErrDeviceFailed = errors.New("fault: injected persistent device failure")

// Plan describes the fault schedule of a Dir.  The zero Plan injects
// nothing: the directory then only tracks the stable/working split,
// which is itself useful (StableDir exposes exactly what a crash would
// preserve).
type Plan struct {
	// Seed drives every random choice the injector makes (currently
	// the torn-tail length).  Runs with equal seeds and workloads are
	// byte-identical.
	Seed int64

	// CrashAtSync freezes the device immediately after the Nth Sync
	// call returns (1-based, counting every attempt): the stable image
	// is pinned at that boundary and later Syncs fail with
	// ErrCrashPoint.  0 disables the schedule.
	CrashAtSync uint64

	// TornTail, when set, makes CrashNow persist a seeded-length
	// prefix of the unsynced appended tail instead of dropping it
	// whole — the torn-write case a real disk can produce.
	TornTail bool

	// TransientSyncErrors makes the first N Sync calls fail with
	// ErrInjectedSync before the device starts behaving.
	TransientSyncErrors int

	// FailEveryNthSync makes every Nth Sync attempt (1-based, counting
	// every attempt including retries) fail once with ErrInjectedSync.
	// With a retry budget ≥ 1 and N ≥ 2 every episode is absorbed.
	FailEveryNthSync uint64

	// FailAllSyncs makes every Sync fail with ErrDeviceFailed until
	// disarmed with SetFailAllSyncs(false).
	FailAllSyncs bool

	// FailSyncsFrom and FailSyncsCount fail a window of Sync attempts
	// (1-based, counting every attempt including retries): attempts
	// FailSyncsFrom through FailSyncsFrom+FailSyncsCount-1 fail with
	// ErrDeviceFailed, and the device then works again.  A window of
	// wal.FlushAttempts that opens at a force's first attempt fails that
	// one force past the WAL's retry budget — a failed-then-healed force.
	// FailSyncsFrom 0 disables.
	FailSyncsFrom, FailSyncsCount uint64

	// SyncDelay and DelayEveryNthSync inject latency spikes: every Nth
	// Sync sleeps SyncDelay before proceeding.  Either zero disables.
	SyncDelay         time.Duration
	DelayEveryNthSync uint64
}
