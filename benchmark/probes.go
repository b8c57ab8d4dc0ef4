package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"ariesrh"
	"ariesrh/internal/buffer"
	"ariesrh/internal/delegation"
	"ariesrh/internal/lock"
	"ariesrh/internal/shard"
	"ariesrh/internal/storage"
	"ariesrh/internal/wal"
)

// The probes time one layer's exported functions in isolation, single-
// threaded, on the workload's own operation mix: unit costs to multiply by
// the per-transaction counts the traced phase measured.  Each reports the
// median of probeRuns runs of probeOps operations.
const (
	probeRuns = 5
	probeOps  = 100_000 // per run; the smoke run makes do with fewer
	probeTxns = 400     // transactions sampled for the workload's mix
)

// probeMedian runs f probeRuns times; f returns its own ns per operation.
func probeMedian(f func() float64) float64 {
	v := make([]float64, probeRuns)
	for i := range v {
		v[i] = f()
	}
	return median(v)
}

func nsPer(t0 time.Time, ops int) float64 { return float64(time.Since(t0)) / float64(ops) }

// sampleMix runs the first probeTxns transactions of client 0's stream,
// single-threaded, against a database whose log directories the benchmark
// owns, and returns the calls made and the log records they produced: the
// workload's mix as the lock manager and the log see it.
func sampleMix(w *workload, seed int64) (calls []call, recs []*wal.Record, err error) {
	shards := max(w.shards, 1)
	dirs := make([]wal.Dir, shards)
	for i := range dirs {
		dirs[i] = wal.NewMemDir()
	}
	var db *database
	if shards == 1 {
		d, err := ariesrh.Open(ariesrh.Options{FaultDir: dirs[0]})
		if err != nil {
			return nil, nil, err
		}
		db = wrapDB(d)
	} else {
		sh, err := shard.Open(shard.Options{Shards: shards, LogDirs: dirs})
		if err != nil {
			return nil, nil, err
		}
		db = wrapShardDB(sh)
	}
	r := &run{w: w, seed: seed, clock: monoClock(), db: db}
	r.clients = []*client{{db: db, gen: w.newGen(0, seed), sh: newShadow(w.maxKey()), seqs: make([]atomic.Uint64, 1), clock: r.clock}}
	if err := r.preload(); err != nil {
		return nil, nil, err
	}
	preloaded := make([]int, shards) // records per log before the sample starts
	for i, d := range dirs {
		_, recs, err := wal.ReadDurable(d)
		if err != nil {
			return nil, nil, err
		}
		preloaded[i] = len(recs)
	}
	c := r.clients[0]
	var a acc
	for i := 0; i < probeTxns; i++ {
		c.buf, _ = c.gen.next(c.buf)
		c.exec(c.buf, 0, &a)
		calls = append(calls, c.buf...)
	}
	if c.bill != nil {
		c.exec([]call{{kind: callBillCommit}}, 0, &a)
	}
	if a.failed > 0 {
		return nil, nil, fmt.Errorf("sampling %s: %d calls failed", w.name, a.failed)
	}
	if err := db.Close(); err != nil {
		return nil, nil, err
	}
	for i, d := range dirs {
		_, all, err := wal.ReadDurable(d)
		if err != nil {
			return nil, nil, err
		}
		recs = append(recs, all[preloaded[i]:]...)
	}
	return calls, recs, nil
}

// imageRecords returns the log records of a restart image.
func imageRecords(img *image) ([]*wal.Record, error) {
	dir := wal.NewMemDir()
	for name, data := range img.files {
		if len(name) > 4 && name[:4] == "wal/" {
			dir.Put(name[4:], data)
		}
	}
	_, recs, err := wal.ReadDurable(dir)
	return recs, err
}

// runProbes measures every P metric for one workload's mix.  losers is the
// number of loser transactions the planner probe sweeps, probeOps the
// operations per run.
func runProbes(calls []call, recs []*wal.Record, losers, probeOps int) (map[string]float64, error) {
	out := map[string]float64{}
	if len(recs) == 0 || len(calls) == 0 {
		return nil, fmt.Errorf("probes: empty operation mix")
	}

	// internal/wal: Log.Append and Log.Scan of the record mix on a MemDir.
	var bytes int
	for _, r := range recs {
		enc, err := wal.EncodeRecord(r)
		if err != nil {
			return nil, err
		}
		bytes += len(enc)
	}
	out["wal.probe_bytes_per_record"] = float64(bytes) / float64(len(recs))
	var perr error
	var scanNs []float64
	out["wal.probe_append_ns"] = probeMedian(func() float64 {
		l, err := wal.NewLog(wal.NewMemDir())
		if err != nil {
			perr = err
			return 0
		}
		t0 := time.Now()
		for i := 0; i < probeOps; i++ {
			if _, err := l.Append(recs[i%len(recs)]); err != nil {
				perr = err
				return 0
			}
		}
		appendNs := nsPer(t0, probeOps)
		t0 = time.Now()
		n := 0
		if err := l.Scan(1, wal.NilLSN, func(*wal.Record) (bool, error) { n++; return true, nil }); err != nil {
			perr = err
		}
		scanNs = append(scanNs, nsPer(t0, max(n, 1)))
		return appendNs
	})
	out["wal.probe_scan_ns_per_record"] = median(scanNs)
	if perr != nil {
		return nil, perr
	}

	// internal/lock: the mix's acquisitions, uncontended, released per
	// transaction; and a transfer of one exclusive lock.
	type acquire struct {
		obj  wal.ObjectID
		mode lock.Mode
		end  bool // last of its transaction
	}
	var acqs []acquire
	for _, c := range calls {
		switch c.kind {
		case callUpdate:
			acqs = append(acqs, acquire{obj: wal.ObjectID(c.key), mode: lock.Exclusive})
		case callRead:
			acqs = append(acqs, acquire{obj: wal.ObjectID(c.key), mode: lock.Shared})
		case callIncrement:
			acqs = append(acqs, acquire{obj: wal.ObjectID(c.key), mode: lock.Increment})
		case callCommit, callAbort:
			if len(acqs) > 0 {
				acqs[len(acqs)-1].end = true
			}
		}
	}
	out["lock.probe_acquire_release_ns"] = probeMedian(func() float64 {
		m := lock.NewManager()
		tx := wal.TxID(1)
		t0 := time.Now()
		for i := 0; i < probeOps; i++ {
			a := acqs[i%len(acqs)]
			if err := m.Acquire(tx, a.obj, a.mode); err != nil {
				perr = err
				return 0
			}
			if a.end {
				m.ReleaseAll(tx)
				tx++
			}
		}
		return nsPer(t0, probeOps)
	})
	out["lock.probe_transfer_ns"] = probeMedian(func() float64 {
		m := lock.NewManager()
		const batch = 1000
		var timed time.Duration
		for done := 0; done < probeOps; done += batch {
			for o := 0; o < batch; o++ {
				if err := m.Acquire(1, wal.ObjectID(o), lock.Exclusive); err != nil {
					perr = err
					return 0
				}
			}
			t0 := time.Now()
			for o := 0; o < batch; o++ {
				if err := m.Transfer(1, 2, wal.ObjectID(o)); err != nil {
					perr = err
					return 0
				}
			}
			timed += time.Since(t0)
			m.ReleaseAll(2)
		}
		return float64(timed) / float64(probeOps)
	})
	if perr != nil {
		return nil, perr
	}

	// internal/buffer over a MemDisk: a fetch that hits, and one that
	// misses and evicts (every other evicted page dirty).
	fetchLoop := func(capacity, pages int) float64 {
		disk := storage.NewMemDisk()
		for i := 0; i < pages; i++ {
			if _, err := disk.Allocate(); err != nil {
				perr = err
				return 0
			}
		}
		pool := buffer.NewPool(disk, capacity, nil)
		for i := 0; i < min(capacity, pages); i++ { // warm
			if _, err := pool.Fetch(storage.PageID(i)); err == nil {
				_ = pool.Unpin(storage.PageID(i), false, 0)
			}
		}
		ops := probeOps
		if pages > capacity {
			ops /= 10 // a miss costs two orders of magnitude more than a hit
		}
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			pid := storage.PageID(i % pages)
			if _, err := pool.Fetch(pid); err != nil {
				perr = err
				return 0
			}
			if err := pool.Unpin(pid, pages > capacity && i%2 == 0, wal.LSN(i+1)); err != nil {
				perr = err
				return 0
			}
		}
		return nsPer(t0, ops)
	}
	out["buffer.probe_hit_ns"] = probeMedian(func() float64 { return fetchLoop(128, 64) })
	out["buffer.probe_miss_ns"] = probeMedian(func() float64 { return fetchLoop(128, 2048) })
	page := &storage.Page{LSN: 1}
	for i := range page.Slots {
		page.Slots[i] = storage.Slot{Used: true, Object: wal.ObjectID(i + 1), Value: make([]byte, valueSize)}
	}
	out["storage.probe_page_marshal_ns"] = probeMedian(func() float64 {
		ops := probeOps / 10
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			buf, err := page.Marshal()
			if err == nil {
				_, err = storage.UnmarshalPage(buf)
			}
			if err != nil {
				perr = err
				return 0
			}
		}
		return nsPer(t0, ops)
	})
	if perr != nil {
		return nil, perr
	}

	// internal/delegation: scope bookkeeping of an update, the transfer of
	// a worker's two objects into a billing list that fills up and is
	// replaced every meterBillEvery events, and the backward planner over
	// as many loser scopes as the restart image leaves.
	out["delegation.probe_record_update_ns"] = probeMedian(func() float64 {
		ol := delegation.NewObList()
		t0 := time.Now()
		for i := 0; i < probeOps; i++ {
			ol.RecordUpdate(1, wal.ObjectID(i%512), wal.LSN(i+1))
		}
		return nsPer(t0, probeOps)
	})
	out["delegation.probe_delegate_ns"] = probeMedian(func() float64 {
		var timed time.Duration
		workers := make([]*delegation.ObList, meterBillEvery)
		for done := 0; done < probeOps; done += 2 * meterBillEvery {
			for i := range workers {
				workers[i] = delegation.NewObList()
				workers[i].RecordUpdate(1, wal.ObjectID(i), wal.LSN(done+2*i+1))
				workers[i].RecordUpdate(1, wal.ObjectID(meterCounters+i), wal.LSN(done+2*i+2))
			}
			bill := delegation.NewObList()
			t0 := time.Now()
			for i, w := range workers {
				w.DelegateTo(bill, 1, wal.ObjectID(i))
				w.DelegateTo(bill, 1, wal.ObjectID(meterCounters+i))
			}
			timed += time.Since(t0)
		}
		return float64(timed) / float64(probeOps)
	})
	scopes := make([]delegation.Scope, 0, losers*4)
	for l := 0; l < losers; l++ {
		for s := 0; s < 4; s++ { // two own scopes and two delegated ones per loser
			pos := wal.LSN((l*4+s)*97 + 1)
			scopes = append(scopes, delegation.Scope{Object: wal.ObjectID(l*4 + s), Invoker: wal.TxID(l + 1),
				First: pos, Last: pos + wal.LSN(s), Owner: wal.TxID(l + 1)})
		}
	}
	if len(scopes) > 0 {
		out["delegation.probe_planner_ns_per_scope"] = probeMedian(func() float64 {
			const sweeps = 200
			t0 := time.Now()
			for i := 0; i < sweeps; i++ {
				p := delegation.NewPlanner(scopes)
				for {
					k, ok := p.Next()
					if !ok {
						break
					}
					p.ShouldUndo(1, 0, k)
				}
			}
			return nsPer(t0, sweeps*len(scopes))
		})
	}
	return out, nil
}
