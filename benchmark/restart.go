package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"ariesrh"
	"ariesrh/internal/core"
	"ariesrh/internal/storage"
	"ariesrh/internal/wal"
)

// imageSpec sizes the crashed image the restart workload reopens.
type imageSpec struct {
	txns    int // transactions of 4 updates each
	keys    int
	losers  int // in-flight holders of delegated scopes at the crash
	perHold int // delegations a holder receives before it commits
}

// The issue sketched 60,000 transactions; a third of that builds in about a
// second, which is what fits three set-ups into one run.
var (
	fullImage  = imageSpec{txns: 8000, keys: 8000, losers: 32, perHold: 8}
	smokeImage = imageSpec{txns: 200, keys: 400, losers: 4, perHold: 4}
)

// image is a crashed database directory held in memory, plus what a correct
// recovery must find in it.
type image struct {
	files   map[string][]byte // path under the database directory → contents
	want    []uint64          // by key: sequence number of the value that must survive
	maxSeq  uint64
	probe   uint64   // the key the first read asks for
	special []uint64 // keys losers touched and keys committed holders were delegated
}

// buildImage runs the image's history against an in-memory engine and crashes
// it: transactions of four updates, a fifth of them delegating one object to
// a long-lived holder, a tenth aborting, a checkpoint half-way, holders
// committing as they fill up, and at the end `losers` holders still in
// flight, each responsible for delegated updates and two of its own.  The
// history is single-threaded, so the log is the same for the same seed, and
// it drives the engine directly: through the public API each of the commits
// would wait for a real fsync.
func buildImage(spec imageSpec, seed int64) (*image, error) {
	logDir, master, disk := wal.NewMemDir(), wal.NewMemStore(), storage.NewMemDisk()
	e, err := core.New(core.Options{LogDir: logDir, MasterStore: master, Disk: disk})
	if err != nil {
		return nil, err
	}
	img := &image{files: map[string][]byte{}, want: make([]uint64, spec.keys+1), probe: uint64(spec.keys / 2)}
	r := newRNG(uint64(seed)*31 + 17)
	var seq uint64
	val := make([]byte, valueSize)
	update := func(tx wal.TxID, key uint64) (uint64, error) {
		seq++
		makeValue(val, key, 0, seq)
		return seq, e.Update(tx, wal.ObjectID(key), val)
	}
	type write struct{ key, seq uint64 }
	commit := func(tx wal.TxID, writes []write) error {
		if err := e.Commit(tx); err != nil {
			return err
		}
		for _, w := range writes {
			img.want[w.key] = w.seq
		}
		return nil
	}

	// Preload: every key exists before the history starts.
	for k := 1; k <= spec.keys; {
		tx, err := e.Begin()
		if err != nil {
			return nil, err
		}
		var writes []write
		for n := 0; n < 256 && k <= spec.keys; n, k = n+1, k+1 {
			s, err := update(tx, uint64(k))
			if err != nil {
				return nil, err
			}
			writes = append(writes, write{uint64(k), s})
		}
		if err := commit(tx, writes); err != nil {
			return nil, err
		}
	}

	type holder struct {
		tx     wal.TxID
		writes []write
	}
	held := map[uint64]bool{} // keys a live holder has locked
	holders := make([]*holder, spec.losers)
	newHolder := func() (*holder, error) {
		tx, err := e.Begin()
		return &holder{tx: tx}, err
	}
	for i := range holders {
		if holders[i], err = newHolder(); err != nil {
			return nil, err
		}
	}
	freeKeys := func(keys []uint64, n int) []uint64 {
		for {
			keys = pickDistinct(r, keys, n, 1, spec.keys)
			free := true
			for _, k := range keys {
				free = free && !held[k]
			}
			if free {
				return keys
			}
		}
	}
	delegate := func(tx wal.TxID, h *holder, w write) error {
		if err := e.Delegate(tx, h.tx, wal.ObjectID(w.key)); err != nil {
			return err
		}
		h.writes = append(h.writes, w)
		held[w.key] = true
		return nil
	}

	var keys []uint64
	for i := 0; i < spec.txns; i++ {
		if i == spec.txns/2 {
			if err := e.Checkpoint(); err != nil {
				return nil, err
			}
		}
		tx, err := e.Begin()
		if err != nil {
			return nil, err
		}
		keys = freeKeys(keys, 4)
		writes := make([]write, 0, 4)
		for _, k := range keys {
			s, err := update(tx, k)
			if err != nil {
				return nil, err
			}
			writes = append(writes, write{k, s})
		}
		if r.intn(5) == 0 {
			hi := i % len(holders)
			h := holders[hi]
			if err := delegate(tx, h, writes[0]); err != nil {
				return nil, err
			}
			writes = writes[1:]
			if len(h.writes) >= spec.perHold {
				// The holder commits: what it was delegated survives.
				if err := commit(h.tx, h.writes); err != nil {
					return nil, err
				}
				for _, w := range h.writes {
					delete(held, w.key)
					img.special = append(img.special, w.key)
				}
				if holders[hi], err = newHolder(); err != nil {
					return nil, err
				}
			}
		}
		if r.intn(10) == 0 {
			if err := e.Abort(tx); err != nil {
				return nil, err
			}
		} else if err := commit(tx, writes); err != nil {
			return nil, err
		}
	}

	// The holders still open are the losers.  Each gets two updates of its
	// own and, if it has none yet, one delegated scope.
	for _, h := range holders {
		keys = freeKeys(keys, 3)
		for _, k := range keys[:2] {
			if _, err := update(h.tx, k); err != nil {
				return nil, err
			}
			held[k] = true
			img.special = append(img.special, k)
		}
		if len(h.writes) == 0 {
			tx, err := e.Begin()
			if err != nil {
				return nil, err
			}
			s, err := update(tx, keys[2])
			if err != nil {
				return nil, err
			}
			if err := delegate(tx, h, write{keys[2], s}); err != nil {
				return nil, err
			}
			if err := commit(tx, nil); err != nil {
				return nil, err
			}
		}
		for _, w := range h.writes {
			img.special = append(img.special, w.key)
		}
	}
	// One last commit forces the log through everything above.
	tx, err := e.Begin()
	if err != nil {
		return nil, err
	}
	keys = freeKeys(keys, 1)
	s, err := update(tx, keys[0])
	if err != nil {
		return nil, err
	}
	if err := commit(tx, []write{{keys[0], s}}); err != nil {
		return nil, err
	}
	if err := e.Crash(); err != nil {
		return nil, err
	}
	img.maxSeq = seq

	// What is on the stable media now is the image.
	names, err := logDir.List()
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		st, err := logDir.Open(name)
		if err != nil {
			return nil, err
		}
		img.files[filepath.Join("wal", name)] = st.(*wal.MemStore).Bytes()
	}
	img.files["master"] = master.Bytes()
	var pages bytes.Buffer
	for pid := storage.PageID(0); pid < disk.NumPages(); pid++ {
		p, err := disk.ReadPage(pid)
		if err != nil {
			return nil, err
		}
		buf, err := p.Marshal()
		if err != nil {
			return nil, err
		}
		pages.Write(buf)
	}
	img.files["pages.db"] = pages.Bytes()
	return img, nil
}

// materialize writes a copy of the image under dir and syncs it: the image
// stands for what was on the device at the crash, and left dirty in the OS
// cache its write-back would be charged to the reopened database's syncs.
func (img *image) materialize(dir string) error {
	if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		return err
	}
	for name, data := range img.files {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if _, err := f.Write(data); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	// Flush the filesystem, journal included.  Without it the device is
	// still busy with the copy when the reopen's first syncs arrive, and
	// they take several times as long as on a quiet device.
	syscall.Sync()
	return nil
}

// verify checks key against the image's shadow map.
func (img *image) verify(r *run, key uint64) {
	r.attempted++
	want := make([]byte, valueSize)
	makeValue(want, key, 0, img.want[key])
	got, _, err := r.db.ReadCommitted(ariesrh.ObjectID(key))
	if err != nil || !bytes.Equal(got, want) {
		r.fail("restart: key %d holds %x, want %x (err %v)", key, got, want, err)
	}
}

// restartBurst is how long the clients run on each reopened image, and
// restartBuilds how many times a run builds the image (set-up is the median).
const (
	restartBurst  = 400 * time.Millisecond
	restartBuilds = 3
)

// restartRep reopens one copy of the image the way an operator would — the
// public API, all defaults, recovery implied — checks it, and then lets
// traffic run on it.  The open is restart_ms; open to first verified read is
// first_read_ms; the traffic gives the transaction metrics of a database that
// has just come back.
func (r *run) restartRep(img *image, v values, traffic func()) (recovered, error) {
	dir, err := os.MkdirTemp(r.tmp, "restart-")
	if err != nil {
		return recovered{}, err
	}
	defer os.RemoveAll(dir)
	if err := img.materialize(dir); err != nil {
		return recovered{}, err
	}
	runtime.GC() // so that a collection the last burst earned does not land in the restart
	t0 := time.Now()
	db, _, err := openDB(true, 0, dir, r.k, nil)
	if err != nil {
		return recovered{}, fmt.Errorf("reopen image: %w", err)
	}
	rec := recovered{restart: time.Since(t0)}
	r.db = db
	img.verify(r, img.probe)
	first := time.Since(t0)
	v.add("restart_ms", float64(rec.restart)/1e6)
	v.add("first_read_ms", float64(first)/1e6)
	rec.trace = db.LastRecoveryTrace()

	// The 1 % sample, the losers' keys and the committed holders' keys.
	for k := 1; k < len(img.want); k += 100 {
		img.verify(r, uint64(k))
	}
	for _, k := range img.special {
		img.verify(r, k)
	}
	// With -opt parallel the reads above were served mid-recovery; writes
	// have to wait for the pipeline.
	if err := db.WaitRecovered(); err != nil {
		return rec, fmt.Errorf("wait recovered: %w", err)
	}
	for _, c := range r.clients {
		c.db = db
		c.seq = img.maxSeq
		c.seqs[c.id].Store(img.maxSeq)
	}
	traffic()
	r.db = nil
	return rec, db.Close()
}

// restartWorkload is the traffic after each reopen: mixed_mem's alternation
// of read-only and write transactions, over a quarter of the image's keys —
// few enough to fit the pool once they have been faulted in, or every update
// would wait for a dirty page's fsync and the burst would measure the page
// file, which commit_file and mixed_mem leave out on purpose.
func restartWorkload(spec imageSpec) *workload {
	return &workload{
		name: restartName, why: restartWhy, file: true,
		keys: keyRange(1, uint64(spec.keys)),
		newGen: func(c int, seed int64) generator {
			return &rwGen{r: newRNG(clientSeed(seed, c)), base: 1, span: spec.keys / 4, perTxn: 4, alternation: alternation{writesPerRead: 1}}
		},
	}
}

// minRestartReps is the least number of reopen repetitions a run makes.
const minRestartReps = 5

// runRestart is the restart workload: fixed work per repetition, repeated
// until the run's seconds are used up.  Set-up is the image build.  The
// traced pass makes the least number of repetitions and then one more, on
// which the traffic runs long enough to trace.
func runRestart(cfg config, tmp string, spec imageSpec, builds int, burst time.Duration) (*measured, error) {
	w := restartWorkload(spec)
	r := &run{w: w, seed: cfg.seed, k: cfg.k, clock: monoClock(), tmp: tmp}
	v := values{}
	var img *image
	for i := 0; i < builds; i++ {
		t0 := time.Now()
		var err error
		if img, err = buildImage(spec, cfg.seed); err != nil {
			return nil, fmt.Errorf("build image: %w", err)
		}
		v.add("setup_s", time.Since(t0).Seconds())
		v.add("live_heap_mb", liveHeapMiB())
	}
	seqs := make([]atomic.Uint64, numClients)
	for c := 0; c < numClients; c++ {
		r.clients = append(r.clients, &client{id: c, gen: w.newGen(c, cfg.seed), sh: newShadow(w.maxKey()), seqs: seqs, clock: r.clock})
	}
	var recs []recovered
	timedBurst := func() {
		for _, s := range r.traffic(1, burst, 0) {
			s := s
			sliceMetrics(v, &s)
		}
	}
	start := time.Now()
	for rep := 0; rep < minRestartReps || (!cfg.traced && time.Since(start).Seconds() < cfg.seconds); rep++ {
		rec, err := r.restartRep(img, v, timedBurst)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	if !cfg.traced {
		return r.measured(endToEnd, v, false), nil
	}

	tracers := r.newTracers()
	var in *layerInputs
	rec, err := r.restartRep(img, v, func() { in = r.tracedPhases(cfg.seconds/2, tracers) })
	if err != nil {
		return nil, err
	}
	in.rec = append(recs, rec)
	logRecs, err := imageRecords(img)
	if err != nil {
		return nil, err
	}
	var calls, buf []call
	for g, i := w.newGen(0, cfg.seed), 0; i < probeTxns; i++ {
		buf, _ = g.next(buf)
		calls = append(calls, buf...)
	}
	return r.finishTraced(in, cfg, tracers, calls, logRecs, spec.losers)
}
