package rewrite

import (
	"fmt"

	"ariesrh/internal/wal"
)

// Log is the log the rewriting baselines mutate: records in memory plus a
// durable watermark.  The production log (internal/wal) is append-only —
// stable bytes are never patched — so the in-place rewriting the paper
// rejects lives here, with the baselines that need it.  Only what the
// cost comparison measures is modelled: which records a crash loses, and
// which rewrites had to reach stable storage.  It is not safe for
// concurrent use; the Engine reaches it under its own latch.
type Log struct {
	recs    []*wal.Record // recs[i] carries LSN i+1
	durable wal.LSN       // records at or below it survive Crash
	stats   LogStats
}

// LogStats counts log activity.
type LogStats struct {
	// Appends is the number of records appended.
	Appends uint64
	// StableRewrites counts rewrites of records at or below the durable
	// watermark: each is a random write to the stable log, the I/O the
	// paper's design avoids.
	StableRewrites uint64
}

// Append assigns the next LSN to a copy of r and appends it.
func (l *Log) Append(r *wal.Record) wal.LSN {
	c := *r
	c.LSN = l.Head() + 1
	c.Before = append([]byte(nil), r.Before...)
	c.After = append([]byte(nil), r.After...)
	l.recs = append(l.recs, &c)
	l.stats.Appends++
	return c.LSN
}

// Head returns the LSN of the most recently appended record.
func (l *Log) Head() wal.LSN { return wal.LSN(len(l.recs)) }

// at returns the log's own record at lsn.
func (l *Log) at(lsn wal.LSN) (*wal.Record, error) {
	if lsn == wal.NilLSN || lsn > l.Head() {
		return nil, fmt.Errorf("%w: %d (head %d)", wal.ErrNoSuchLSN, lsn, l.Head())
	}
	return l.recs[lsn-1], nil
}

// Get returns a copy of the record at lsn.
func (l *Log) Get(lsn wal.LSN) (*wal.Record, error) {
	r, err := l.at(lsn)
	if err != nil {
		return nil, err
	}
	c := *r
	return &c, nil
}

// Scan calls fn for every record in LSN order until fn returns false or
// an error.
func (l *Log) Scan(fn func(*wal.Record) (bool, error)) error {
	for _, r := range l.recs {
		c := *r
		if ok, err := fn(&c); err != nil || !ok {
			return err
		}
	}
	return nil
}

// Flush makes every record with LSN ≤ upTo durable.
func (l *Log) Flush(upTo wal.LSN) {
	if upTo > l.Head() {
		upTo = l.Head()
	}
	if upTo > l.durable {
		l.durable = upTo
	}
}

// Rewrite mutates the record at lsn in place via fn — the physical
// "rewriting of history".  A record at or below the durable watermark is
// patched on stable storage (and counted); one in the volatile tail is
// patched in memory only and shares the tail's fate at a crash.
func (l *Log) Rewrite(lsn wal.LSN, fn func(*wal.Record)) error {
	r, err := l.at(lsn)
	if err != nil {
		return err
	}
	fn(r)
	if lsn <= l.durable {
		l.stats.StableRewrites++
	}
	return nil
}

// Crash discards every record past the durable watermark.
func (l *Log) Crash() { l.recs = l.recs[:l.durable] }

// Stats returns a snapshot of the counters.
func (l *Log) Stats() LogStats { return l.stats }
