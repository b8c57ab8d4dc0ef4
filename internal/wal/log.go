package wal

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ariesrh/internal/obs"
)

// ErrNoSuchLSN is returned by Get for LSNs that name no record.
var ErrNoSuchLSN = errors.New("wal: no such LSN")

// ErrArchived is returned by Get and Scan for LSNs that were
// discarded by Archive.  Every path wraps it through errArchived, so the
// message shape is uniform: "wal: record archived: lsn N <= base M".
var ErrArchived = errors.New("wal: record archived")

// errArchived wraps ErrArchived with the one message shape all paths
// share.
func errArchived(lsn, base LSN) error {
	return fmt.Errorf("%w: lsn %d <= base %d", ErrArchived, lsn, base)
}

// ErrNoRetry marks a device error that the flush retry loop must not
// retry.  A Store whose Sync failure is known to be permanent for the
// rest of the run (an injected crash point, a device torn out from under
// the process) wraps its error with ErrNoRetry so the log surfaces it
// immediately instead of burning the backoff budget.  Plain device
// errors, by contrast, are treated as possibly transient and retried.
var ErrNoRetry = errors.New("wal: device error is not retriable")

// LogOptions tunes a Log at construction time.
type LogOptions struct {
	// SegmentBytes is the rotation threshold: once the active segment
	// holds at least this many record bytes, the next Append seals it
	// and opens a fresh segment.  0 means DefaultSegmentBytes.  A single
	// record larger than the threshold still fits — rotation happens
	// between records, so the cap is soft by up to one record.
	SegmentBytes int64
}

// Log is the write-ahead log.  It is safe for concurrent use.
//
// Volatile state: all appended records live in per-segment in-memory
// buffers of encoded frames, the bytes Flush writes.  They are the log's
// only in-memory image: every read decodes its frame afresh and returns
// a record the caller owns.  Durable state: the log's directory holds
// one append-only image per segment plus a generation-numbered manifest
// (see manifest.go); Flush copies encoded bytes to the segment devices
// in LSN order.  Crash discards everything past the last flush and
// re-opens from the directory, exactly as a real system loses its
// in-memory log tail.
//
// Appending past the segment cap rotates: the active segment is sealed
// and a fresh one (with its own device) becomes the append target, the
// manifest being rewritten — as a new generation, never in place — to
// list it.  Archive discards a stable prefix of the log (records the
// engine proved no future recovery can need — see core.MinRequiredLSN)
// by bumping the manifest's base and deleting whole sealed segment
// files; archived LSNs answer ErrArchived.
type Log struct {
	mu  sync.Mutex
	dir Dir

	segCap      int64
	segs        []*segment // live segments, ascending; last is the append target
	base        LSN        // records 1..base have been archived
	manifestGen uint64     // generation of the authoritative manifest image

	flushedLSN LSN // durable horizon

	// Group-flush state (see FlushAsync).  flushQ holds pending waiters;
	// flushLeader is true while a leader goroutine is draining the queue;
	// flushInFlight is true while the leader has released mu for device
	// I/O — Archive (which deletes segment files) and Crash (which re-reads
	// them via loadFromDir) must wait for it via flushIdle.
	flushQ        []flushWaiter
	flushLeader   bool
	flushInFlight bool
	flushIdle     *sync.Cond
	// flushLoop is groupFlushLoop bound once, so electing a leader
	// starts a goroutine without allocating a method value; chunks is the
	// leader's reused plan of device writes (there is one leader at a
	// time, and it alone touches chunks).
	flushLoop func()
	chunks    []flushChunk

	// Tail subscriptions (see Subscribe): tailCond is broadcast whenever
	// the durable horizon advances (or a subscription closes), waking
	// blocked Next calls; each live subscription's retention pin bounds
	// what Archive may discard.
	subs     map[*Subscription]struct{}
	tailCond *sync.Cond

	met logMetrics
}

// segment is one live log segment: a device image plus the volatile
// mirror of its record bytes.  Records firstLSN..firstLSN+len(offsets)-1
// live here; data holds their frames (the durable prefix mirrored on dev
// after the segment header).  Bytes of data are never rewritten once
// appended, so a view of them stays valid after l.mu is released.
type segment struct {
	num      uint64
	firstLSN LSN
	dev      Store

	data    []byte // encoded frames, volatile image
	offsets []int  // offsets[i] = byte offset (in data) of record firstLSN+i

	flushedBytes int64 // bytes of data durably mirrored (excluding header)
}

// lastLSN returns the LSN of the segment's last record (firstLSN-1 when
// empty, so callers can treat it uniformly as "records through lastLSN").
func (s *segment) lastLSN() LSN { return s.firstLSN + LSN(len(s.offsets)) - 1 }

// SegmentInfo describes one live segment; see (*Log).Segments.
type SegmentInfo struct {
	// Name is the device name inside the log's Dir.
	Name string
	// Num is the segment number; FirstLSN the LSN of its first record.
	Num      uint64
	FirstLSN LSN
	// Records is the number of records in the segment (volatile image);
	// Bytes their encoded size, DurableBytes the durable prefix of it.
	Records      int
	Bytes        int64
	DurableBytes int64
	// Sealed reports that the segment is no longer the append target.
	Sealed bool
}

// logMetrics holds the log's pre-resolved obs handles.  A fresh Log binds
// them to a private registry so they are never nil; the owning engine
// rebinds them to its own registry via Instrument.
type logMetrics struct {
	reg            *obs.Registry
	appends        *obs.Counter
	flushes        *obs.Counter
	flushedBytes   *obs.Counter
	groupedFlushes *obs.Counter
	flushWaiters   *obs.Counter
	flushRetries   *obs.Counter
	flushErrors    *obs.Counter
	reads          *obs.Counter
	scans          *obs.Counter
	archives       *obs.Counter
	rotations      *obs.Counter
	segments       *obs.Gauge
	flushNs        *obs.Histogram
}

func bindLogMetrics(r *obs.Registry) logMetrics {
	return logMetrics{
		reg:            r,
		appends:        r.Counter("wal.appends"),
		flushes:        r.Counter("wal.flushes"),
		flushedBytes:   r.Counter("wal.flushed_bytes"),
		groupedFlushes: r.Counter("wal.grouped_flushes"),
		flushWaiters:   r.Counter("wal.flush_waiters"),
		flushRetries:   r.Counter("wal.flush_retries"),
		flushErrors:    r.Counter("wal.flush_errors"),
		reads:          r.Counter("wal.reads"),
		scans:          r.Counter("wal.scans"),
		archives:       r.Counter("wal.archives"),
		rotations:      r.Counter("wal.rotations"),
		segments:       r.Gauge("wal.segments"),
		flushNs:        r.Histogram("wal.flush_ns"),
	}
}

// Instrument rebinds the log's metrics to reg (see internal/obs).  The
// counters restart from reg's current values; call it at construction
// time, before traffic.
func (l *Log) Instrument(reg *obs.Registry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.met = bindLogMetrics(reg)
	l.met.segments.Set(int64(len(l.segs)))
}

// flushWaiter is one FlushAsync request: release ch (with nil or an
// error) once every record with LSN ≤ upTo is durable.
type flushWaiter struct {
	upTo LSN
	ch   chan error
}

// NewLog creates a log over dir with default options, recovering any
// segments already present (e.g. after a crash or a process restart).
func NewLog(dir Dir) (*Log, error) { return NewLogWith(dir, LogOptions{}) }

// NewLogWith creates a log over dir with the given options, recovering
// any segments already present.
func NewLogWith(dir Dir, o LogOptions) (*Log, error) {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	l := &Log{
		dir:    dir,
		segCap: o.SegmentBytes,
		met:    bindLogMetrics(obs.NewRegistry()),
	}
	l.flushIdle = sync.NewCond(&l.mu)
	l.tailCond = sync.NewCond(&l.mu)
	l.flushLoop = l.groupFlushLoop
	l.subs = make(map[*Subscription]struct{})
	if err := l.loadFromDir(); err != nil {
		return nil, err
	}
	return l, nil
}

// Flush retry policy: a failed device write+Sync is retried up to
// retryMax times, sleeping retryBackoff before the first retry and
// doubling it for each subsequent one — at most ~1.4ms of added latency
// before a persistent device error is surfaced to the committer.
const (
	retryMax     = 3
	retryBackoff = 200 * time.Microsecond
)

// FlushAttempts is how many device write+Sync attempts one flush makes
// before it surfaces a retriable device error: the first and retryMax
// retries.
const FlushAttempts = retryMax + 1

// writeSyncRetry performs a device write+Sync for a flush, retrying
// transient failures per the retry policy.  It returns the number of
// retries performed and the final error (nil on success).  Errors
// wrapping ErrNoRetry are surfaced immediately.  The caller holds the
// device through the flushInFlight fence; sleeping inside the loop is
// bounded by the policy.
func (l *Log) writeSyncRetry(dev Store, buf []byte, off int64) (retries int, err error) {
	backoff := retryBackoff
	for attempt := 0; ; attempt++ {
		_, err = dev.WriteAt(buf, off)
		if err == nil {
			err = dev.Sync()
		}
		if err == nil {
			return attempt, nil
		}
		if errors.Is(err, ErrNoRetry) || attempt >= retryMax {
			return attempt, err
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

// waitFlushIdleLocked blocks (releasing l.mu) until no group-flush device
// I/O is in flight.  Callers hold l.mu and must re-validate any state they
// read before the wait.
func (l *Log) waitFlushIdleLocked() {
	for l.flushInFlight {
		l.flushIdle.Wait()
	}
}

// headLocked returns the LSN of the most recently appended record.
func (l *Log) headLocked() LSN {
	return l.segs[len(l.segs)-1].lastLSN()
}

// segIndexLocked returns the index of the segment holding lsn, or -1 if
// lsn precedes the first live segment.  The returned segment may not
// actually contain lsn (it may lie past the head); callers bound-check.
func (l *Log) segIndexLocked(lsn LSN) int {
	lo, hi := 0, len(l.segs)-1
	if lsn < l.segs[0].firstLSN {
		return -1
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if l.segs[mid].firstLSN <= lsn {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// frameAtLocked returns the log's bytes from the frame of the record at
// lsn to the end of its segment — decode the frame with DecodeRecord — or
// nil if no live segment holds it.  No read is counted.
func (l *Log) frameAtLocked(lsn LSN) []byte {
	if lsn == NilLSN {
		return nil
	}
	i := l.segIndexLocked(lsn)
	if i < 0 {
		return nil
	}
	seg := l.segs[i]
	idx := int(lsn - seg.firstLSN)
	if idx < 0 || idx >= len(seg.offsets) {
		return nil
	}
	return seg.data[seg.offsets[idx]:]
}

// decodeFrame decodes the in-memory frame of the record at lsn; a frame
// that fails to decode is reported, wrapping ErrCorrupt.
func decodeFrame(lsn LSN, frame []byte) (*Record, error) {
	r, _, err := DecodeRecord(frame)
	if err != nil {
		return nil, fmt.Errorf("wal: record %d: %w", lsn, err)
	}
	return r, nil
}

// writeManifestLocked persists a fresh manifest generation listing
// entries with the given base, then makes it authoritative.  The write
// is crash-atomic by construction: the new generation's image is
// written whole to its own device and synced; until that sync returns,
// the previous generation remains the one recovery picks.  Only on
// success is the in-memory generation bumped and the old image removed
// (best-effort — a stray old generation is cleaned up at next open).
//
// A failed attempt removes its device before returning: a fully
// written image whose Sync errored may nonetheless prove durable (a
// real fsync failure does not imply the bytes were lost), and a
// CRC-valid higher generation left on the device would outrank the
// authoritative one at the next recovery while referencing segments
// the failed operation then deleted.  The removal is best-effort only
// as a last resort — if it too fails, the next successful write of
// this generation number truncates the stale image first.
func (l *Log) writeManifestLocked(base LSN, entries []manifestEntry) error {
	gen := l.manifestGen + 1
	dev, err := l.dir.Open(manifestName(gen))
	if err != nil {
		return fmt.Errorf("wal: manifest: %w", err)
	}
	buf := encodeManifest(&manifest{gen: gen, base: base, segs: entries})
	// A previous failed attempt may have left longer working bytes on
	// this generation's device; truncate so the image is exactly buf.
	if err := dev.Truncate(0); err != nil {
		_ = l.dir.Remove(manifestName(gen))
		return fmt.Errorf("wal: manifest truncate: %w", err)
	}
	if _, err := dev.WriteAt(buf, 0); err != nil {
		_ = l.dir.Remove(manifestName(gen))
		return fmt.Errorf("wal: manifest write: %w", err)
	}
	if err := dev.Sync(); err != nil {
		_ = l.dir.Remove(manifestName(gen))
		return fmt.Errorf("wal: manifest sync: %w", err)
	}
	old := l.manifestGen
	l.manifestGen = gen
	if old > 0 {
		_ = l.dir.Remove(manifestName(old))
	}
	return nil
}

// manifestEntriesLocked builds the manifest entry list for segs.
func manifestEntries(segs []*segment) []manifestEntry {
	entries := make([]manifestEntry, len(segs))
	for i, s := range segs {
		entries[i] = manifestEntry{num: s.num, firstLSN: s.firstLSN}
	}
	return entries
}

// rotateLocked seals the active segment and opens a fresh one as the
// append target: new device, durable segment header, then a manifest
// generation listing it.  On any failure the volatile log is untouched
// (the append that triggered the rotation fails) and the partially
// created device is removed best-effort — recovery ignores and deletes
// segments the manifest does not list.
func (l *Log) rotateLocked() error {
	head := l.headLocked()
	num := l.segs[len(l.segs)-1].num + 1
	name := segmentName(num)
	dev, err := l.dir.Open(name)
	if err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	hdr := encodeSegmentHeader(segmentHeader{num: num, firstLSN: head + 1})
	if _, err := dev.WriteAt(hdr, 0); err != nil {
		_ = l.dir.Remove(name)
		return fmt.Errorf("wal: rotate: %w", err)
	}
	if err := dev.Sync(); err != nil {
		_ = l.dir.Remove(name)
		return fmt.Errorf("wal: rotate: %w", err)
	}
	entries := append(manifestEntries(l.segs), manifestEntry{num: num, firstLSN: head + 1})
	if err := l.writeManifestLocked(l.base, entries); err != nil {
		_ = l.dir.Remove(name)
		return err
	}
	l.segs = append(l.segs, &segment{num: num, firstLSN: head + 1, dev: dev})
	l.met.rotations.Inc()
	l.met.segments.Set(int64(len(l.segs)))
	if l.met.reg.HasEventHook() {
		l.met.reg.Emit(obs.Event{Name: "wal.rotate", LSN: uint64(head + 1), Value: int64(num)})
	}
	return nil
}

// Append assigns the next LSN to r, encodes it and appends it to the
// active segment's volatile image, rotating to a fresh segment first if
// the active one has reached the segment cap.  The record is not durable
// until Flush (or a flush forced by commit processing) covers it.  A
// rotation failure (the new segment's header or the manifest could not
// be made durable) surfaces here with the volatile log unchanged.
func (l *Log) Append(r *Record) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	active := l.segs[len(l.segs)-1]
	if int64(len(active.data)) >= l.segCap && len(active.offsets) > 0 {
		if err := l.rotateLocked(); err != nil {
			return NilLSN, err
		}
		active = l.segs[len(l.segs)-1]
	}
	r.LSN = l.headLocked() + 1
	data, err := appendRecord(active.data, r)
	if err != nil {
		return NilLSN, err
	}
	active.offsets = append(active.offsets, len(active.data))
	active.data = data
	l.met.appends.Inc()
	return r.LSN, nil
}

// Head returns the LSN of the most recently appended record (NilLSN if the
// log is empty).
func (l *Log) Head() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.headLocked()
}

// Base returns the highest archived LSN (NilLSN if nothing was archived).
func (l *Log) Base() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// FlushedLSN returns the largest LSN known to be durable.
func (l *Log) FlushedLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushedLSN
}

// Segments returns a snapshot of the live segment layout, oldest first.
func (l *Log) Segments() []SegmentInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SegmentInfo, len(l.segs))
	for i, s := range l.segs {
		out[i] = SegmentInfo{
			Name:         segmentName(s.num),
			Num:          s.num,
			FirstLSN:     s.firstLSN,
			Records:      len(s.offsets),
			Bytes:        int64(len(s.data)),
			DurableBytes: s.flushedBytes,
			Sealed:       i < len(l.segs)-1,
		}
	}
	return out
}

// flushChunk is one contiguous device write of a flush: bytes
// [start,end) of seg.data, viewed by buf, which once synced advance the
// durable horizon to endLSN.
type flushChunk struct {
	seg    *segment
	buf    []byte
	start  int64
	end    int64
	endLSN LSN
}

// flushChunksLocked plans the device writes that make records through
// upTo durable: one chunk per segment with unflushed bytes in the range,
// in LSN order, planned into the log's reused chunks buffer.  The caller
// is the group-flush leader and guarantees flushedLSN < upTo ≤ head.
func (l *Log) flushChunksLocked(upTo LSN) []flushChunk {
	chunks := l.chunks[:0]
	i := l.segIndexLocked(l.flushedLSN + 1)
	if i < 0 {
		i = 0
	}
	for ; i < len(l.segs); i++ {
		seg := l.segs[i]
		if seg.firstLSN > upTo {
			break
		}
		var end int64
		var endLSN LSN
		if upTo >= seg.lastLSN() {
			end = int64(len(seg.data))
			endLSN = seg.lastLSN()
		} else {
			end = int64(seg.offsets[upTo-seg.firstLSN+1])
			endLSN = upTo
		}
		if end > seg.flushedBytes {
			chunks = append(chunks, flushChunk{seg: seg, buf: seg.data[seg.flushedBytes:end],
				start: seg.flushedBytes, end: end, endLSN: endLSN})
		}
	}
	l.chunks = chunks
	return chunks
}

// Flush makes all records with LSN ≤ upTo durable.  Flushing past the head
// flushes the whole log.  It performs no device I/O of its own: unless
// the range is already durable it queues on the group flusher like any
// other FlushAsync waiter and blocks for that round's outcome, so a Flush
// that arrives while a round is failing gets that round's error.  An
// error return means records past the (possibly advanced) durable horizon
// are NOT durable.
func (l *Log) Flush(upTo LSN) error {
	// The buffer pool's WAL rule calls this for every page write-back and
	// nearly always finds the log ahead of the page: answer without
	// queueing a waiter.
	l.mu.Lock()
	if head := l.headLocked(); upTo > head {
		upTo = head
	}
	durable := upTo <= l.flushedLSN
	l.mu.Unlock()
	if durable {
		return nil
	}
	ch := flushChans.Get().(chan error)
	err := <-l.FlushAsync(upTo, ch)
	flushChans.Put(ch)
	return err
}

// flushChans recycles Flush's waiter channels: each has received its one
// value, and is empty again, when it is put back.
var flushChans = sync.Pool{New: func() any { return make(chan error, 1) }}

// FlushAsync makes every record with LSN ≤ upTo durable without holding the
// caller on the device, and returns ch, which receives exactly one value —
// nil once the records are stable, or the device error that prevented it.
// ch must be buffered and empty, and the caller must receive that value
// before it passes ch to FlushAsync again: the sender never blocks, so a
// caller can keep one channel for all its waits.
//
// Concurrent requests are coalesced (group commit): waiters register their
// target LSN, one leader goroutine performs a single write+Sync covering
// the highest LSN queued, and every waiter whose target that round covers
// is released together.  N committers thus pay ~1 device sync per batch
// rather than N.  The registry records the batching: wal.flush_waiters
// counts requests that queued, wal.grouped_flushes the leader rounds that
// served them.
func (l *Log) FlushAsync(upTo LSN, ch chan error) <-chan error {
	l.mu.Lock()
	if head := l.headLocked(); upTo > head {
		upTo = head
	}
	if upTo <= l.flushedLSN {
		l.mu.Unlock()
		ch <- nil
		return ch
	}
	l.flushQ = append(l.flushQ, flushWaiter{upTo: upTo, ch: ch})
	l.met.flushWaiters.Inc()
	if !l.flushLeader {
		l.flushLeader = true
		go l.flushLoop()
	}
	l.mu.Unlock()
	return ch
}

// groupFlushLoop is the group-commit leader.  Each round it targets the
// highest LSN queued, performs one device write+Sync pass for the whole
// range (releasing l.mu for the I/O), then releases every waiter the new
// durable horizon covers.  Requests arriving during the I/O join the next
// round.  The leader exits when the queue drains; the next FlushAsync
// elects a new one.
func (l *Log) groupFlushLoop() {
	l.mu.Lock()
	for len(l.flushQ) > 0 {
		target := l.flushQ[0].upTo
		for _, w := range l.flushQ[1:] {
			if w.upTo > target {
				target = w.upTo
			}
		}
		// A Crash interleaved with this loop can shrink the head below a
		// waiter's target (the record was lost with the volatile tail):
		// clamp, and release such waiters below — the engine's crashed
		// flag, rechecked by every committer, governs their fate.
		head := l.headLocked()
		if target > head {
			target = head
		}
		var err error
		if target > l.flushedLSN {
			err = l.flushRangeUnlatched(target)
			head = l.headLocked()
		}
		queued := len(l.flushQ)
		rest := l.flushQ[:0]
		for _, w := range l.flushQ {
			switch {
			case w.upTo <= l.flushedLSN || w.upTo > head:
				w.ch <- nil
			case err != nil:
				// This leader cannot make the waiter durable; it
				// must see the failure rather than wait forever.
				w.ch <- err
			default:
				rest = append(rest, w)
			}
		}
		if released := queued - len(rest); released > 0 && l.met.reg.HasEventHook() {
			l.met.reg.Emit(obs.Event{Name: "wal.group_flush", LSN: uint64(l.flushedLSN), Value: int64(released)})
		}
		l.flushQ = rest
	}
	l.flushLeader = false
	l.mu.Unlock()
}

// flushRangeUnlatched makes records through upTo durable while allowing
// appends to proceed: the unflushed chunks are viewed under l.mu (frame
// bytes are never rewritten, so a view stays valid even if an append
// reallocates its segment's buffer), the mutex is released for the
// device writes+Syncs (with flushInFlight fencing out Archive and
// Crash), then re-acquired to publish the new durable horizon.  It is the only code that writes
// record bytes to a segment device, and it writes each byte once: every
// chunk starts at its segment's flushedBytes, which only a synced chunk
// advances.  Chunks are written and synced in strict LSN order — segment
// by segment — so the durable log is always a prefix: a failure mid-way
// leaves earlier segments durable and later ones untouched, never a gap.
// Rotation during the unlatched I/O is safe — it only creates new
// devices, never touching the chunks being written.  Called only by the
// group-flush leader with l.mu held and upTo ≤ head.
func (l *Log) flushRangeUnlatched(upTo LSN) error {
	chunks := l.flushChunksLocked(upTo)
	if len(chunks) == 0 {
		return nil
	}
	l.flushInFlight = true
	l.mu.Unlock()
	began := time.Now()
	var err error
	var retries int
	done := 0
	for i, c := range chunks {
		var r int
		r, err = l.writeSyncRetry(c.seg.dev, c.buf, segmentHeaderSize+c.start)
		retries += r
		if err != nil {
			break
		}
		done = i + 1
	}
	took := time.Since(began)
	l.mu.Lock()
	l.flushInFlight = false
	l.flushIdle.Broadcast()
	l.met.flushRetries.Add(uint64(retries))
	var flushed uint64
	for _, c := range chunks[:done] {
		c.seg.flushedBytes = c.end
		l.flushedLSN = c.endLSN
		flushed += uint64(c.end - c.start)
	}
	if flushed > 0 {
		l.flushedLSN = chunks[done-1].endLSN
		l.tailCond.Broadcast()
		l.met.flushes.Inc()
		l.met.groupedFlushes.Inc()
		l.met.flushedBytes.Add(flushed)
		l.met.flushNs.Observe(took)
	}
	// Drop the plan's segment views: the buffer outlives this round.
	clear(chunks)
	if err != nil {
		l.met.flushErrors.Inc()
		return fmt.Errorf("wal: flush: %w", err)
	}
	return nil
}

// Get returns the record with the given LSN, freshly decoded from its
// frame: callers may retain or modify it freely.
func (l *Log) Get(lsn LSN) (*Record, error) {
	l.mu.Lock()
	frame, err := l.readFrameLocked(lsn)
	l.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return decodeFrame(lsn, frame)
}

// readFrameLocked returns the frame of the record at lsn for a read,
// accounting the access.
func (l *Log) readFrameLocked(lsn LSN) ([]byte, error) {
	if lsn != NilLSN && lsn <= l.base {
		return nil, errArchived(lsn, l.base)
	}
	frame := l.frameAtLocked(lsn)
	if frame == nil {
		return nil, fmt.Errorf("%w: %d (head %d)", ErrNoSuchLSN, lsn, l.headLocked())
	}
	l.met.reads.Inc()
	return frame, nil
}

// Scan iterates records with LSN in [from, to] in increasing order, calling
// fn for each.  fn returning false stops the scan early.  A to of NilLSN
// means "through the head of the log".
func (l *Log) Scan(from, to LSN, fn func(*Record) (bool, error)) error {
	l.mu.Lock()
	head := l.headLocked()
	base := l.base
	l.met.scans.Inc()
	l.mu.Unlock()
	if from == NilLSN {
		from = 1
	}
	if from <= base {
		from = base + 1
	}
	if to == NilLSN || to > head {
		to = head
	}
	for lsn := from; lsn <= to; lsn++ {
		r, err := l.Get(lsn)
		if err != nil {
			return err
		}
		ok, err := fn(r)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
	return nil
}

// RecordShards returns the encoded frames of every record with LSN in
// [from, head] (NilLSN means "from the log's base"), one run of whole
// frames per live segment in LSN order, oldest segment first: decode
// each front to back with DecodeRecord.
//
// This is the parallel-recovery scan surface.  Frame bytes are never
// rewritten and each run is cut with a full-slice expression, so later
// appends cannot write into it: the shards are immutable views that
// concurrent workers may decode without synchronization, and the active
// segment's shard is a snapshot that excludes records appended after the
// call (e.g. recovery's own CLRs).  Shards reflect the volatile image, so
// take them only after Crash/open reloaded the log from the durable
// segment files (as Recover does), and do not hold them across an
// Archive.
func (l *Log) RecordShards(from LSN) [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from == NilLSN {
		from = 1
	}
	if from <= l.base {
		from = l.base + 1
	}
	shards := make([][]byte, 0, len(l.segs))
	for _, seg := range l.segs {
		lo := 0
		if from > seg.firstLSN {
			lo = int(from - seg.firstLSN)
		}
		if lo >= len(seg.offsets) {
			continue
		}
		hi := len(seg.data)
		shards = append(shards, seg.data[seg.offsets[lo]:hi:hi])
	}
	return shards
}

// Crash simulates a failure: every record past the last flush is lost and
// the log is re-opened from stable storage.  Accumulated access statistics
// survive (they describe the device, not the process).
func (l *Log) Crash() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Let any in-flight group flush finish its device I/O: a write that
	// has already been issued to the device is not undone by losing the
	// process, and re-reading the store mid-write would tear it.  Pending
	// waiters are released normally by the leader (it holds l.mu between
	// rounds, so it drains before we proceed whenever it is mid-queue);
	// their transactions then observe the engine's crashed flag.
	l.waitFlushIdleLocked()
	// The crash takes the shipping side down with it: every tail
	// subscription is closed (a real process failure severs its
	// replication connections); replicas reattach after recovery with
	// their LSN cursor.
	l.closeAllSubsLocked(fmt.Errorf("%w: log crashed", ErrSubscriptionClosed))
	return l.loadFromDir()
}

// Archive discards every record with LSN ≤ upTo: archived LSNs answer
// ErrArchived and whole sealed segments below the new base are deleted
// from the directory.  Only the durable prefix may be archived (upTo
// must not exceed the flushed LSN): archiving is for reclaiming log
// space, not for dropping live tail.  Archiving more than once is fine;
// archiving NilLSN is a no-op.
//
// Crash contract: the archive commits by writing a fresh manifest
// generation (new base, surviving segment list) to its own device and
// syncing it — live segment bytes are never rewritten, so there is no
// torn-compaction window.  A crash or error before that sync leaves the
// previous manifest authoritative and the log (volatile and durable)
// exactly as it was; a crash after it leaves the archive fully
// committed, with any not-yet-deleted segment files swept as garbage on
// the next open.  Device cost is O(segments dropped + manifest size),
// independent of total log length.
func (l *Log) Archive(upTo LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.waitFlushIdleLocked()
	// Retention pin: an attached tail subscription (a replica) may still
	// need records from its pin onward; clamp rather than discard them.
	if pin := l.minPinLocked(); pin != NilLSN && upTo >= pin {
		upTo = pin - 1
	}
	if upTo <= l.base {
		return nil
	}
	if upTo > l.flushedLSN {
		return fmt.Errorf("wal: archive through %d beyond flushed LSN %d", upTo, l.flushedLSN)
	}
	// Whole sealed segments at or below the new base are dropped; the
	// active segment always survives.
	drop := 0
	for drop < len(l.segs)-1 && l.segs[drop+1].firstLSN <= upTo+1 {
		drop++
	}
	kept := l.segs[drop:]
	// Commit point: the new manifest generation.  Nothing volatile is
	// touched until it is durable, so a failure here leaves the log
	// fully consistent (and the archives counter untouched).
	if err := l.writeManifestLocked(upTo, manifestEntries(kept)); err != nil {
		return err
	}
	dropped := l.segs[:drop]
	l.segs = append(l.segs[:0:0], kept...)
	l.base = upTo
	l.met.archives.Inc()
	l.met.segments.Set(int64(len(l.segs)))
	for _, s := range dropped {
		// Best-effort: a segment file that cannot be deleted now is
		// unreferenced by the manifest and is swept at the next open.
		_ = l.dir.Remove(segmentName(s.num))
	}
	return nil
}
