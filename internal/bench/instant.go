package bench

import (
	"bytes"
	"fmt"
	"time"

	"ariesrh/internal/core"
	"ariesrh/internal/wal"
)

// e14Crashed builds one crashed engine holding a history of roughly
// `records` log records: records/updatesPerObj committed transactions,
// each updating its own object updatesPerObj times, plus `losers`
// in-flight transactions over dedicated objects (left live so recovery's
// backward pass has clusters to sweep).  The whole log is forced before
// the crash, and no checkpoint is taken: recovery replays from LSN 1, so
// its cost is exactly the log length — the variable the experiment
// sweeps.  Returns the engine, the probe object (the last committed one,
// which background drain reaches last) and its expected post-recovery
// value.
func e14Crashed(records, updatesPerObj, losers int, parallel bool) (*core.Engine, wal.ObjectID, []byte, error) {
	objects := records / updatesPerObj
	e, err := core.New(core.Options{
		PoolSize:         8192,
		LogSegmentBytes:  1 << 16,
		ParallelRecovery: parallel,
	})
	if err != nil {
		return nil, 0, nil, err
	}
	var val []byte
	for o := 1; o <= objects; o++ {
		tx, err := e.Begin()
		if err != nil {
			return nil, 0, nil, err
		}
		for u := 0; u < updatesPerObj; u++ {
			val = []byte(fmt.Sprintf("e14-%d-%d-0123456789abcdef0123456789abcdef", o, u))
			if err := e.Update(tx, wal.ObjectID(o), val); err != nil {
				return nil, 0, nil, err
			}
		}
		if err := e.Commit(tx); err != nil {
			return nil, 0, nil, err
		}
	}
	for l := 0; l < losers; l++ {
		tx, err := e.Begin()
		if err != nil {
			return nil, 0, nil, err
		}
		for u := 0; u < updatesPerObj; u++ {
			if err := e.Update(tx, wal.ObjectID(objects+1+l), []byte("e14-loser")); err != nil {
				return nil, 0, nil, err
			}
		}
		// No Commit: a loser for the backward pass.
	}
	// Make the losers' tail durable too — every commit was already
	// forced — then crash.
	if err := e.Log().Flush(e.Log().Head()); err != nil {
		return nil, 0, nil, err
	}
	if err := e.Crash(); err != nil {
		return nil, 0, nil, err
	}
	return e, wal.ObjectID(objects), val, nil
}

// E14InstantRestart measures what the parallel recovery pipeline buys:
// time-to-first-read (crash to the first ReadObject returning a correct
// value) and full-recovery time, as the log grows.  The sequential
// baseline must replay the whole log before it can serve anything, so its
// first read arrives only after a full linear replay; the pipeline serves
// the first read after the scan+analysis stages plus the probe object's
// own redo chain — it never waits for the other objects' redo or for
// loser clusters that do not cover the probe.  The shape the experiment
// tests: the baseline's time-to-first-read grows linearly with the log,
// while the pipeline's grows far slower (its per-record cost is indexing
// and analysis only, not page application) and stays a small fraction of
// the baseline at every length.
func E14InstantRestart(lengths []int, updatesPerObj, losers int) (*Table, error) {
	if len(lengths) < 2 {
		return nil, fmt.Errorf("E14: need at least two lengths to judge growth")
	}
	t := &Table{
		ID:      "E14",
		Title:   "instant restart: time-to-first-read and full recovery vs log length",
		Claim:   "a read during pipelined recovery redoes only its own object's chain, so time-to-first-read is decoupled from the redo volume: the sequential baseline's first read pays full replay — linear in the log — while the pipeline's first read pays only scan+analysis, a fraction of replay's per-record cost",
		Headers: []string{"cell", "records", "ttfr_ms", "full_ms", "note"},
	}

	type cell struct {
		records          int
		seqFull, parTTFR float64 // milliseconds
	}
	var cells []cell
	const reps = 3
	for _, n := range lengths {
		if n < updatesPerObj*2 {
			return nil, fmt.Errorf("E14: length %d too small for %d updates/object", n, updatesPerObj)
		}
		var seqFull, seqTTFR, parTTFR, parFull time.Duration = 1 << 62, 1 << 62, 1 << 62, 1 << 62
		var records, segments int
		for rep := 0; rep < reps; rep++ {
			// Sequential baseline: Recover blocks for the full replay;
			// the first read is only possible after it.
			e, probe, want, err := e14Crashed(n, updatesPerObj, losers, false)
			if err != nil {
				return nil, fmt.Errorf("E14 seq N=%d: %w", n, err)
			}
			records = int(e.Log().Head())
			start := time.Now()
			if err := e.Recover(); err != nil {
				return nil, fmt.Errorf("E14 seq N=%d: recover: %w", n, err)
			}
			full := time.Since(start)
			v, ok, err := e.ReadObject(probe)
			ttfr := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("E14 seq N=%d: first read: %w", n, err)
			}
			if !ok || !bytes.Equal(v, want) {
				return nil, fmt.Errorf("E14 seq N=%d: first read returned %q, want %q", n, v, want)
			}
			if full < seqFull {
				seqFull = full
			}
			if ttfr < seqTTFR {
				seqTTFR = ttfr
			}

			// Pipeline: Recover returns with redo and undo in flight;
			// the probe read triggers on-demand redo of its own chain.
			e, probe, want, err = e14Crashed(n, updatesPerObj, losers, true)
			if err != nil {
				return nil, fmt.Errorf("E14 par N=%d: %w", n, err)
			}
			start = time.Now()
			if err := e.Recover(); err != nil {
				return nil, fmt.Errorf("E14 par N=%d: recover: %w", n, err)
			}
			v, ok, err = e.ReadObject(probe)
			ttfr = time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("E14 par N=%d: mid-recovery read: %w", n, err)
			}
			if !ok || !bytes.Equal(v, want) {
				return nil, fmt.Errorf("E14 par N=%d: mid-recovery read returned %q, want %q", n, v, want)
			}
			if err := e.WaitRecovered(); err != nil {
				return nil, fmt.Errorf("E14 par N=%d: wait recovered: %w", n, err)
			}
			full = time.Since(start)
			if ttfr < parTTFR {
				parTTFR = ttfr
			}
			if full < parFull {
				parFull = full
			}
			segments = e.LastRecoveryTrace().Segments
		}
		ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
		cells = append(cells, cell{records: records, seqFull: ms(seqFull), parTTFR: ms(parTTFR)})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("N=%d/sequential", n),
			fmt.Sprint(records),
			fmt.Sprintf("%.3f", ms(seqTTFR)),
			fmt.Sprintf("%.3f", ms(seqFull)),
			"full replay gates the first read",
		})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("N=%d/pipeline", n),
			fmt.Sprint(records),
			fmt.Sprintf("%.3f", ms(parTTFR)),
			fmt.Sprintf("%.3f", ms(parFull)),
			fmt.Sprintf("%d segments; first read = scan+analysis + own chain", segments),
		})
	}

	first, last := cells[0], cells[len(cells)-1]
	lenRatio := float64(last.records) / float64(first.records)
	seqRatio := last.seqFull / first.seqFull
	// Marginal cost: how much of each extra log record's replay cost the
	// first read still pays.  Zero would be a perfectly flat TTFR; the
	// pipeline's slope is indexing and analysis only (redo is deferred),
	// so it must stay well under the baseline's, and with more than one
	// CPU the scan stage divides it further across segment workers.
	marginal := (last.parTTFR - first.parTTFR) / (last.seqFull - first.seqFull)
	holds := seqRatio >= lenRatio/2 && // baseline is genuinely linear in the log
		marginal <= 0.5 && // TTFR pays at most half the replay cost per extra record
		last.parTTFR <= last.seqFull/2 // and is well below the baseline at the longest log
	verdict := "HOLDS"
	if !holds {
		verdict = "FAILS"
	}
	t.Verdict = fmt.Sprintf(
		"%s: log grew %.1fx and the baseline's first read slowed %.1fx with it (linear); the pipeline's first read paid %.0f%% of the baseline's per-record cost and arrived %.1fx sooner at the longest log",
		verdict, lenRatio, seqRatio, marginal*100, last.seqFull/last.parTTFR)
	return t, nil
}
