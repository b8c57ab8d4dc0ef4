package bench

import (
	"fmt"
	"time"

	"ariesrh/internal/torture"
	"ariesrh/internal/wal"
)

// dirBytes sums the sizes of every device in dir — the log's physical
// footprint on the stable medium.
func dirBytes(dir wal.Dir) (int64, error) {
	names, err := dir.List()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, name := range names {
		dev, err := dir.Open(name)
		if err != nil {
			return 0, err
		}
		n, err := dev.Size()
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// e13Fill appends n update records to a fresh segmented log and flushes
// them, returning the log and its directory.
func e13Fill(n int, segmentBytes int64) (*wal.Log, *wal.MemDir, error) {
	dir := wal.NewMemDir()
	l, err := wal.NewLogWith(dir, wal.LogOptions{SegmentBytes: segmentBytes})
	if err != nil {
		return nil, nil, err
	}
	val := []byte("archive-bench-payload-0123456789")
	for i := 0; i < n; i++ {
		if _, err := l.Append(&wal.Record{
			Type:   wal.TypeUpdate,
			TxID:   wal.TxID(i/8 + 1),
			Object: wal.ObjectID(i%64 + 1),
			After:  val,
		}); err != nil {
			return nil, nil, err
		}
	}
	if err := l.Flush(l.Head()); err != nil {
		return nil, nil, err
	}
	return l, dir, nil
}

// E13ArchiveCost measures what the segmented archive buys over a
// rewrite-the-device compaction:
//
//  1. Archive latency versus retained log length: dropping a FIXED prefix
//     from logs of growing length.  The archive commits by writing a new
//     manifest generation and deleting whole sealed segments — it never
//     rewrites live bytes — so its cost tracks the segments dropped (plus
//     a manifest proportional to the segment count), not the bytes
//     retained.  A compaction that rewrites the device would scale with
//     the retained length.
//
//  2. Disk footprint under archive-while-append: a windowed workload
//     (append, flush, archive everything older than the window) must hold
//     the directory's peak size near the window, while the same appends
//     without archiving grow without bound.
//
//  3. Crash safety: the rotation/archive torture sweep
//     (torture.RotationRun) crashes the maintenance paths at every sync
//     boundary and requires oracle-exact recovery at each one.
func E13ArchiveCost(lengths []int, dropRecords, windowRecords int, segmentBytes int64, sweepRounds, sweepMaxBoundaries int) (*Table, error) {
	t := &Table{
		ID:      "E13",
		Title:   "segmented archive: latency vs log length, disk bound under windowed archiving, crash sweep",
		Claim:   "archiving drops whole sealed segments behind a manifest bump and never rewrites live bytes: latency is flat in the retained log length, a windowed archive bounds the device footprint, and a crash at any sync boundary of the rotation/archive paths recovers exactly",
		Headers: []string{"cell", "records", "segments", "archive_us", "dir_bytes", "note"},
	}

	// 1. Latency: drop the same prefix from ever-longer logs.
	type latCell struct {
		records int
		micros  float64
	}
	var lat []latCell
	for _, n := range lengths {
		if n <= dropRecords {
			return nil, fmt.Errorf("E13: length %d must exceed dropRecords %d", n, dropRecords)
		}
		// Median-of-few to keep MemDir timing noise out of the verdict.
		const reps = 5
		best := time.Duration(1<<63 - 1)
		var segsBefore int
		var retained int64
		for rep := 0; rep < reps; rep++ {
			l, dir, err := e13Fill(n, segmentBytes)
			if err != nil {
				return nil, err
			}
			segsBefore = len(l.Segments())
			start := time.Now()
			if err := l.Archive(wal.LSN(dropRecords)); err != nil {
				return nil, err
			}
			if d := time.Since(start); d < best {
				best = d
			}
			if retained, err = dirBytes(dir); err != nil {
				return nil, err
			}
		}
		micros := float64(best.Nanoseconds()) / 1e3
		lat = append(lat, latCell{records: n, micros: micros})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("latency/N=%d", n),
			fmt.Sprint(n),
			fmt.Sprint(segsBefore),
			fmt.Sprintf("%.1f", micros),
			fmt.Sprint(retained),
			fmt.Sprintf("drop first %d records", dropRecords),
		})
	}

	// 2. Disk bound: windowed archive-while-append versus unbounded growth.
	grow := lengths[len(lengths)-1]
	noArchLog, noArchDir, err := e13Fill(grow, segmentBytes)
	if err != nil {
		return nil, err
	}
	unbounded, err := dirBytes(noArchDir)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{
		"disk/no-archive",
		fmt.Sprint(grow),
		fmt.Sprint(len(noArchLog.Segments())),
		"-",
		fmt.Sprint(unbounded),
		"final footprint, nothing archived",
	})

	dir := wal.NewMemDir()
	l, err := wal.NewLogWith(dir, wal.LogOptions{SegmentBytes: segmentBytes})
	if err != nil {
		return nil, err
	}
	val := []byte("archive-bench-payload-0123456789")
	var peak int64
	for i := 0; i < grow; i++ {
		if _, err := l.Append(&wal.Record{
			Type:   wal.TypeUpdate,
			TxID:   wal.TxID(i/8 + 1),
			Object: wal.ObjectID(i%64 + 1),
			After:  val,
		}); err != nil {
			return nil, err
		}
		if (i+1)%windowRecords == 0 {
			if err := l.Flush(l.Head()); err != nil {
				return nil, err
			}
			// Peak is sampled at the worst moment: everything appended,
			// nothing reclaimed yet.
			n, err := dirBytes(dir)
			if err != nil {
				return nil, err
			}
			if n > peak {
				peak = n
			}
			if upTo := l.Head() - wal.LSN(windowRecords); upTo > 0 {
				if err := l.Archive(upTo); err != nil {
					return nil, err
				}
			}
		}
	}
	t.Rows = append(t.Rows, []string{
		"disk/windowed",
		fmt.Sprint(grow),
		fmt.Sprint(len(l.Segments())),
		"-",
		fmt.Sprint(peak),
		fmt.Sprintf("peak footprint, archive past window of %d records", windowRecords),
	})

	// 3. Crash safety: the rotation/archive torture sweep.
	sweep, err := torture.RotationRun(torture.RotationConfig{
		Seed:          13,
		Rounds:        sweepRounds,
		MaxBoundaries: sweepMaxBoundaries,
	})
	if err != nil {
		return nil, fmt.Errorf("E13 crash sweep: %w", err)
	}
	sweepWant := sweep.Boundaries
	if sweepMaxBoundaries > 0 && sweepWant > sweepMaxBoundaries {
		sweepWant = sweepMaxBoundaries
	}
	t.Rows = append(t.Rows, []string{
		"crash-sweep",
		fmt.Sprint(sweep.Records),
		"-",
		"-",
		"-",
		fmt.Sprintf("boundaries=%d crashes=%d torn=%d rotations=%d archives=%d base=%d",
			sweep.Boundaries, sweep.Crashes, sweep.TornCrashes,
			sweep.Rotations, sweep.Archives, sweep.ArchivedBase),
	})

	// Verdicts: latency sublinear in length, footprint bounded, sweep clean.
	first, last := lat[0], lat[len(lat)-1]
	lenRatio := float64(last.records) / float64(first.records)
	latRatio := last.micros / first.micros
	if first.micros <= 0 {
		latRatio = 1
	}
	flat := latRatio <= lenRatio/2
	bounded := peak*4 <= unbounded
	clean := sweep.Crashes == sweepWant && sweep.Archives > 0 && sweep.Rotations > 0
	switch {
	case flat && bounded && clean:
		t.Verdict = fmt.Sprintf("HOLDS: %.0fx longer logs cost %.1fx archive latency (flat), windowed archiving caps the device at %d of %d unbounded bytes, and all %d swept crash boundaries recovered exactly",
			lenRatio, latRatio, peak, unbounded, sweep.Crashes)
	case !clean:
		t.Verdict = fmt.Sprintf("FAILS: crash sweep recovered %d of %d boundaries (rotations=%d archives=%d)",
			sweep.Crashes, sweepWant, sweep.Rotations, sweep.Archives)
	case !flat:
		t.Verdict = fmt.Sprintf("FAILS: archive latency grew %.1fx over a %.0fx length increase — archive is not flat in retained length", latRatio, lenRatio)
	default:
		t.Verdict = fmt.Sprintf("FAILS: windowed archiving left a %d-byte peak against %d unbounded — the footprint is not bounded", peak, unbounded)
	}
	return t, nil
}
