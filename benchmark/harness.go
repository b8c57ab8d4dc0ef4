package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ariesrh"
	"ariesrh/internal/obs"
)

// timing is the shape of one run, all of it derived from -seconds.
type timing struct {
	warmup   time.Duration
	slices   int
	sliceDur time.Duration
	setups   int // set-up and restart-cycle repetitions
}

const numSlices = 10

// A memory workload sets up and restarts in tens of milliseconds, so it can
// afford more repetitions than a file workload, whose restart cycle is a
// second of fsync-bound traffic.
const (
	fileSetups = 5
	memSetups  = 9
)

func timingFor(seconds float64, file, smoke bool) timing {
	t := timing{
		warmup:   time.Duration(seconds * 0.15 * float64(time.Second)),
		slices:   numSlices,
		sliceDur: time.Duration(seconds / numSlices * float64(time.Second)),
		setups:   memSetups,
	}
	if file {
		t.setups = fileSetups
	}
	if smoke {
		t.setups = 1
	}
	return t
}

// sample is everything the coordinator reads at a slice boundary.  The
// counters are ones the program and the runtime already keep; deltas between
// two samples belong to the slice between them.
type sample struct {
	t         int64
	m         obs.Snapshot
	cpu       time.Duration // process user+system time
	mallocs   uint64
	allocated uint64
	heapAlloc uint64 // bytes of reachable and not yet swept objects
	gcCycles  uint32
	gcPause   uint64
	dev       deviceStats
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMiB is the heap still reachable after a collection: what the
// program retains, without the collector's sawtooth on top.  It is taken
// after each set-up and its restart cycle — fixed work, so it repeats — and
// goes with setup_s: work or memory moved into set-up shows in one of them.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// sliceData is one slice's merged client samples between two coordinator
// samples.
type sliceData struct {
	acc
	from, to sample
	openLoop bool
}

// run is one workload run in one process.
type run struct {
	w       *workload
	seed    int64
	k       knobs
	clock   func() int64
	tmp     string  // scratch directory for database files
	dev     *tracer // device tracer; nil in the timed pass
	clients []*client
	db      *database
	dirs    []*tracedDir
	dbDir   string

	attempted, failed int64
	errs              []string // oracle objections, for the human
}

// fail records one failed check.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *run) sample() sample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := sample{t: r.clock(), m: r.db.Metrics(), cpu: cpuTime(), mallocs: ms.Mallocs,
		allocated: ms.TotalAlloc, heapAlloc: ms.HeapAlloc, gcCycles: ms.NumGC, gcPause: ms.PauseTotalNs}
	for _, d := range r.dirs {
		ds := d.stats()
		s.dev.syncs += ds.syncs
		s.dev.writes += ds.writes
		s.dev.writeBytes += ds.writeBytes
		s.dev.opens += ds.opens
		s.dev.removes += ds.removes
	}
	return s
}

// setup opens a fresh database and preloads every key, so that the first
// timed call finds its pages allocated.  It returns how long that took.
func (r *run) setup() (time.Duration, error) {
	t0 := time.Now()
	dir, err := os.MkdirTemp(r.tmp, r.w.name+"-")
	if err != nil {
		return 0, err
	}
	db, dirs, err := openDB(r.w.file || (r.dev != nil && r.w.traceOnFile), r.w.shards, dir, r.k, r.dev)
	if err != nil {
		return 0, err
	}
	r.db, r.dirs, r.dbDir = db, dirs, dir
	seqs := make([]atomic.Uint64, numClients)
	r.clients = r.clients[:0]
	for c := 0; c < numClients; c++ {
		r.clients = append(r.clients, &client{id: c, db: db, gen: r.w.newGen(c, r.seed),
			sh: newShadow(r.w.maxKey()), seqs: seqs, clock: r.clock})
	}
	if err := r.preload(); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// preload writes every key once, as client 0, in transactions of 256 calls.
func (r *run) preload() error {
	c := r.clients[0]
	var a acc
	var calls []call
	flush := func() {
		if len(calls) > 0 {
			c.exec(append(calls, call{kind: callCommit}), r.clock(), &a)
			calls = calls[:0]
		}
	}
	add := func(cl call) {
		if len(calls) == 0 {
			calls = append(calls, call{kind: callBegin})
		}
		if calls = append(calls, cl); len(calls) >= 256 {
			flush()
		}
	}
	for _, k := range r.w.keys {
		add(call{kind: callUpdate, key: k})
	}
	for _, k := range r.w.counters {
		add(call{kind: callIncrement, key: k})
	}
	flush()
	r.attempted += a.calls
	if a.failed > 0 {
		return fmt.Errorf("preload: %d calls failed", a.failed)
	}
	return nil
}

func (r *run) closeDB() error {
	err := r.db.Close()
	if rerr := os.RemoveAll(r.dbDir); err == nil {
		err = rerr
	}
	r.db = nil
	return err
}

// traffic runs the clients for `slices` slices of `sliceDur` each — or, when
// txns > 0, for exactly that many transactions in one slice — and returns
// what each slice saw.
func (r *run) traffic(slices int, sliceDur time.Duration, txns int) []sliceData {
	if txns > 0 {
		slices, sliceDur = 1, time.Hour
	}
	accs := make([][]acc, len(r.clients))
	for i := range accs {
		accs[i] = make([]acc, slices)
	}
	samples := make([]sample, 0, slices+1)
	samples = append(samples, r.sample())
	start := r.clock()

	var wg sync.WaitGroup
	var next atomic.Int64
	var period float64 // open loop: ns between due times
	events := int64(txns)
	if r.w.openLoop {
		period = 1e9 / r.w.rate
		if events == 0 {
			events = int64(float64(slices) * float64(sliceDur) / period)
		}
	}
	for i, c := range r.clients {
		wg.Add(1)
		go func(c *client, a []acc) {
			defer wg.Done()
			if r.w.openLoop {
				c.openLoop(start, period, int64(sliceDur), a, &next, events)
			} else {
				c.closedLoop(start, int64(sliceDur), a, txns/len(r.clients))
			}
		}(c, accs[i])
	}
	if txns == 0 {
		for i := 1; i < slices; i++ {
			time.Sleep(time.Duration(start + int64(i)*int64(sliceDur) - r.clock()))
			samples = append(samples, r.sample())
		}
	}
	wg.Wait()
	samples = append(samples, r.sample())

	out := make([]sliceData, slices)
	for s := range out {
		out[s].from, out[s].to, out[s].openLoop = samples[s], samples[s+1], r.w.openLoop
		for c := range accs {
			a := &accs[c][s]
			out[s].txn.merge(&a.txn)
			out[s].read.merge(&a.read)
			out[s].late.merge(&a.late)
			out[s].commits += a.commits
			out[s].calls += a.calls
			out[s].failed += a.failed
			out[s].busyNs += a.busyNs
			if a.backlogMax > out[s].backlogMax {
				out[s].backlogMax = a.backlogMax
			}
		}
		r.attempted += out[s].calls
		r.failed += out[s].failed
	}
	if r.w.openLoop {
		// An event that was due but never started counts as failed.
		if queued := events - next.Load(); queued > 0 {
			r.attempted += queued
			r.failed += queued
		}
	}
	return out
}

// closedLoop sends the next transaction when the previous one returns.
func (c *client) closedLoop(start, sliceDur int64, accs []acc, txns int) {
	var readOnly bool
	for n := 0; txns == 0 || n < txns; n++ {
		now := c.clock()
		i := int((now - start) / sliceDur)
		if i >= len(accs) {
			return
		}
		a := &accs[i]
		c.buf, readOnly = c.gen.next(c.buf)
		ok := c.exec(c.buf, now, a)
		latency := c.clock() - now
		a.busyNs += latency
		c.observe(a, ok, readOnly, latency)
	}
}

func (c *client) observe(a *acc, committed, readOnly bool, latency int64) {
	switch {
	case readOnly:
		a.read.observe(latency)
	case committed:
		a.txn.observe(latency)
		a.commits++
	}
}

// openLoopGrace is how far past the last due time an open loop may run
// before the events still queued are given up as failed.
const openLoopGrace = int64(2 * time.Second)

// openLoop starts event i at start + i·period, whoever is free claiming the
// next index, and measures latency from that due time: a stall delays the
// events behind it and they all report it.
func (c *client) openLoop(start int64, period float64, sliceDur int64, accs []acc, next *atomic.Int64, events int64) {
	deadline := start + int64(float64(events)*period) + openLoopGrace
	var readOnly bool
	for {
		now := c.clock()
		if now > deadline {
			return
		}
		i := next.Add(1) - 1
		if i >= events {
			next.Add(-1)
			return
		}
		due := start + int64(float64(i)*period)
		s := int((due - start) / sliceDur)
		if s >= len(accs) {
			s = len(accs) - 1
		}
		a := &accs[s]
		if backlog := int64(float64(now-start)/period) - i; backlog > a.backlogMax {
			a.backlogMax = backlog
		}
		for now < due {
			// Spin, yielding: a sleep overshoots by a millisecond here,
			// many transactions' worth.
			runtime.Gosched()
			now = c.clock()
		}
		a.late.observe(now - due)
		c.buf, readOnly = c.gen.next(c.buf)
		ok := c.exec(c.buf, due, a)
		end := c.clock()
		a.busyNs += end - now
		c.observe(a, ok, readOnly, end-due)
	}
}

// restartCycle measures a restart on fixed work: checkpoint, a fixed number
// of transactions, crash, recover, first verified read.
func (r *run) restartCycle() (restart, firstRead time.Duration, err error) {
	if err := r.db.Checkpoint(); err != nil {
		return 0, 0, fmt.Errorf("checkpoint: %w", err)
	}
	r.traffic(0, 0, r.w.cycleTxns)
	probe := r.w.keys[len(r.w.keys)/2]
	want, _ := r.expected(probe)
	if err := r.db.Crash(); err != nil {
		return 0, 0, fmt.Errorf("crash: %w", err)
	}
	for _, c := range r.clients {
		c.dropVolatile()
	}
	runtime.GC() // so that a collection the traffic earned does not land in the restart
	t0 := time.Now()
	if err := r.db.Recover(); err != nil {
		return 0, 0, fmt.Errorf("recover: %w", err)
	}
	restart = time.Since(t0)
	got, _, err := r.db.ReadCommitted(ariesrh.ObjectID(probe))
	firstRead = time.Since(t0)
	r.attempted++
	if err != nil || !matches(got, want) {
		r.fail("after restart key %d holds %x, want one of %x (err %v)", probe, got, want, err)
	}
	r.check() // untimed: everything acknowledged before the crash is there, nothing else
	// With -opt parallel the reads above were served mid-recovery; the
	// writes that follow have to wait for the pipeline.
	if err := r.db.WaitRecovered(); err != nil {
		return 0, 0, fmt.Errorf("wait recovered: %w", err)
	}
	return restart, firstRead, nil
}

// expected returns the values key may hold according to the clients'
// shadows: the last acknowledged write of each client that wrote it, minus
// those another client's transaction provably came after.
func (r *run) expected(key uint64) (values [][]byte, slots []slot) {
	for _, c := range r.clients {
		if s := c.sh.slots[key]; s.seq > 0 {
			slots = append(slots, s)
			v := make([]byte, valueSize)
			makeValue(v, key, c.id, s.seq)
			values = append(values, v)
		}
	}
	keep := values[:0]
	for i, s := range slots {
		superseded := false
		for _, o := range slots {
			superseded = superseded || o.start > s.ack
		}
		if !superseded {
			keep = append(keep, values[i])
		}
	}
	return keep, slots
}

func matches(got []byte, want [][]byte) bool {
	for _, w := range want {
		if bytes.Equal(got, w) {
			return true
		}
	}
	return false
}

// oracle checks every key against the clients' shadows: each holds the value
// of the last acknowledged commit that wrote it, each counter the sum of the
// increments whose billing transaction committed.  File-backed databases are
// crashed and recovered first — Crash discards everything not synced, where
// killing the process would leave the OS cache intact.
func (r *run) oracle() error {
	for _, c := range r.clients {
		if c.bill != nil {
			var a acc
			c.exec([]call{{kind: callBillCommit}}, r.clock(), &a)
			r.attempted += a.calls
			r.failed += a.failed
		}
	}
	if r.w.file {
		if err := r.db.Crash(); err != nil {
			return fmt.Errorf("crash: %w", err)
		}
		if err := r.db.Recover(); err != nil {
			return fmt.Errorf("recover: %w", err)
		}
	}
	r.check()
	return nil
}

func (r *run) check() {
	for _, k := range r.w.keys {
		r.attempted++
		want, _ := r.expected(k)
		got, _, err := r.db.ReadCommitted(ariesrh.ObjectID(k))
		if err != nil || !matches(got, want) {
			r.fail("key %d holds %x, want one of %x (err %v)", k, got, want, err)
		}
	}
	for _, k := range r.w.counters {
		r.attempted++
		var want int64
		for _, c := range r.clients {
			want += c.sh.counters[k]
		}
		got, err := r.db.CounterValue(ariesrh.ObjectID(k))
		if err != nil || got != want {
			r.fail("counter %d is %d, want %d (err %v)", k, got, want, err)
		}
	}
}

// scratchDir makes the directory database files go to: inside the checkout,
// next to the build outputs.
func scratchDir() (string, error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
