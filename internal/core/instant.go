package core

// Instant restart: the parallel recovery pipeline behind
// Options.ParallelRecovery.
//
// Sequential recovery (recovery.go) redoes the whole log before the first
// read can be served, so restart latency grows linearly with log length.
// The pipeline decouples the two:
//
//	Stage 1 — parallel log scan.  The segmented WAL's manifest already
//	  splits the log into sealed, immutable segments; one worker per
//	  segment decodes its frames and groups the redoable records
//	  (updates, increments, CLRs) into per-object redo chains.  No page
//	  is touched.
//	Stage 2 — on-demand redo.  A read during recovery redoes just its
//	  object's chain and returns; a background drainer applies the
//	  remaining chains by descending heat (longest chain first).
//	Stage 3 — backward cluster undo, started concurrently with tail
//	  redo.  Before undoing a record the worker applies that object's
//	  redo chain (the redo-before-undo gate: a CLR — especially a
//	  logical counter CLR — must land on a fully redone object), and a
//	  read of an object covered by a loser scope waits until the sweep
//	  has passed below the lowest First of the scopes covering it.
//
// Analysis cannot be parallelised — a delegate record rewrites the scopes
// the records before it built — so it runs sequentially over the scanned
// shards during setup, which is cheap: the stage 1 workers already decoded
// the shard records and analysis touches only the volatile tables.
//
// Correctness hinges on one rule the sequential path gets for free from
// LSN-ordered redo: a page flushed at pageLSN pl contains exactly the
// updates with LSN ≤ pl of EVERY object stored on it, so each object's
// redo baseline must be its page's pre-recovery pageLSN.  The pipeline
// applies chains (and writes CLRs) out of global LSN order, and any such
// write ratchets the shared page's LSN — which would corrupt the baseline
// of objects on the same page whose chains apply later.  Therefore every
// page application runs under one applyMu, and the page's stable pageLSN
// is captured into pageBase at the first pipeline touch, before the first
// pipeline write to it.  applyMu also keeps recovering reads atomic with
// pipeline writes; the parallelism that pays for time-to-first-read lives
// in the scan and in the ORDER of redo (on-demand first), not in
// concurrent page writes, which the shared buffer pool would serialise
// anyway.
//
// Lock order: e.mu → applyMu.  Goroutines holding applyMu never take
// e.mu; the finisher takes e.mu and never applyMu.

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ariesrh/internal/delegation"
	"ariesrh/internal/obs"
	"ariesrh/internal/storage"
	"ariesrh/internal/wal"
)

// objectChain is one object's redo work: its redoable records in LSN
// order.  Applied exactly once (sync.Once) — by the first of the
// background drainer, an on-demand read, or the undo worker's
// redo-before-undo gate.
type objectChain struct {
	obj  wal.ObjectID
	recs []*wal.Record
	once sync.Once
	err  error
}

// undoGate blocks reads of an object covered by loser scopes until the
// backward sweep has passed below minFirst — the lowest First of the
// scopes covering the object, below which no loser record can touch it.
// Released (closed) by the undo worker.
type undoGate struct {
	minFirst wal.LSN
	ch       chan struct{}
}

// recoveryPipeline is one in-flight parallel recovery (or promotion).
// All maps and slices are immutable after setup; mutable state is the
// per-chain once, the applyMu-guarded page state, and the undo worker's
// locals.
type recoveryPipeline struct {
	e         *Engine
	promotion bool

	// Built during setup, immutable afterwards.
	chains      map[wal.ObjectID]*objectChain
	heat        []*objectChain // chains by descending length; drain order
	gates       map[wal.ObjectID]*undoGate
	gateSeq     []*undoGate // gates by descending minFirst; release order
	losers      []wal.TxID
	scopes      []delegation.Scope
	compensated map[wal.LSN]bool
	hold        <-chan struct{}
	savedFrs    *replayState // promotion only: restored on failure
	book        recoveryBook
	scanDur     time.Duration
	analysisDur time.Duration

	// applyMu serializes every page application of the pipeline: chain
	// redo, undo CLR writes, and recovering reads.  pageBase holds each
	// page's pre-recovery pageLSN, captured before the pipeline's first
	// write to the page.  The redo and undo workers count into book.tr
	// (Redone under applyMu; the sweep's fields from the undo worker
	// alone), which the finisher reads once both have stopped.
	applyMu  sync.Mutex
	pageBase map[storage.PageID]wal.LSN

	// failpoint is the captured one-shot recovery failpoint; decremented
	// only by the undo worker.
	failpoint int

	onDemand atomic.Uint64

	// err is the terminal pipeline error; written (if at all) before done
	// is closed, or before e.recovering is cleared under e.mu.
	err  error
	done chan struct{}
}

// WaitRecovered blocks until any in-flight parallel recovery (or
// promotion) pipeline completes and returns its error.  With no pipeline
// in flight it returns nil immediately — or ErrCrashed if the engine is
// crashed.  A caller that arrives after a recovery pipeline failed gets
// ErrCrashed wrapped together with the pipeline's error, until the next
// Recover or Crash.
func (e *Engine) WaitRecovered() error {
	e.mu.Lock()
	p := e.recovering
	crashed, cause := e.crashed, e.recoveryErr
	e.mu.Unlock()
	switch {
	case p != nil:
		<-p.done
		return p.err
	case crashed && cause != nil:
		return fmt.Errorf("%w: %w", ErrCrashed, cause)
	case crashed:
		return ErrCrashed
	}
	return nil
}

// recoverParallel is Recover with Options.ParallelRecovery set: it runs
// the scan and analysis stages synchronously under the engine latch,
// installs the pipeline, and returns with recovery still in flight.  The
// engine then reports StateRecovering; reads route through the pipeline,
// writes are rejected with ErrRecovering until it completes.
func (e *Engine) recoverParallel() error {
	e.mu.Lock()
	if e.follower {
		e.mu.Unlock()
		return fmt.Errorf("core: a follower does not Recover; reopen it in follower mode or Promote it")
	}
	if !e.crashed {
		e.mu.Unlock()
		return fmt.Errorf("core: Recover called without a crash")
	}
	// Clean slate, exactly as sequential Recover: a previous attempt may
	// have died midway.
	e.recoveryErr = nil
	e.resetTxnsLocked()
	e.globals = make(map[uint64]globalDecision)

	e.met.recRuns.Inc()
	book := recoveryBook{totalStart: time.Now()}

	scanStart, analysisAfter, err := e.locateCheckpointLocked()
	if err != nil {
		e.mu.Unlock()
		return err
	}

	// ---- Stage 1: manifest-driven parallel scan, one worker per sealed
	// segment, decoding its frames and grouping redoable records into
	// per-object chains. ----
	scanT := time.Now()
	frames := e.log.RecordShards(scanStart)
	shards := make([][]*wal.Record, len(frames))
	indexes := make([]map[wal.ObjectID][]*wal.Record, len(frames))
	errs := make([]error, len(frames))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(frames) {
		workers = len(frames)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(frames) {
					return
				}
				shards[i], indexes[i], errs[i] = scanShard(frames[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			e.mu.Unlock()
			return fmt.Errorf("core: recovery scan: %w", err)
		}
	}
	// Merge in shard order: shards are LSN-ordered between themselves and
	// within, so each chain comes out in LSN order.
	chains := make(map[wal.ObjectID]*objectChain)
	for _, m := range indexes {
		for obj, recs := range m {
			c := chains[obj]
			if c == nil {
				c = &objectChain{obj: obj}
				chains[obj] = c
			}
			c.recs = append(c.recs, recs...)
		}
	}
	scanDur := time.Since(scanT)

	// ---- Stage 2 setup: analysis, strictly in LSN order (delegate
	// records rewrite the scopes earlier records built), then winner /
	// loser classification.  Redo is deferred to the chains. ----
	analysisT := time.Now()
	rs := newReplayState()
	for _, shard := range shards {
		book.tr.ForwardRecords += uint64(len(shard))
		for _, rec := range shard {
			if err := e.analyzeRecordLocked(rec, rec.LSN > analysisAfter, rs); err != nil {
				e.mu.Unlock()
				return err
			}
		}
	}
	losers, scopes := e.classifyLocked()
	analysisDur := time.Since(analysisT)
	book.tr.Winners, book.tr.Losers = rs.winners, uint64(len(losers))

	heat := make([]*objectChain, 0, len(chains))
	for _, c := range chains {
		heat = append(heat, c)
	}
	sort.Slice(heat, func(i, j int) bool {
		if len(heat[i].recs) != len(heat[j].recs) {
			return len(heat[i].recs) > len(heat[j].recs)
		}
		return heat[i].obj < heat[j].obj
	})
	gates, gateSeq := buildUndoGates(scopes)

	book.tr.ForwardDur = scanDur + analysisDur
	book.tr.Segments = len(shards)
	p := &recoveryPipeline{
		e:           e,
		chains:      chains,
		heat:        heat,
		gates:       gates,
		gateSeq:     gateSeq,
		losers:      losers,
		scopes:      scopes,
		compensated: rs.compensated,
		hold:        e.recoveryHold,
		book:        book,
		scanDur:     scanDur,
		analysisDur: analysisDur,
		pageBase:    make(map[storage.PageID]wal.LSN),
		failpoint:   e.recoveryFailpoint,
		done:        make(chan struct{}),
	}
	e.recoveryFailpoint = 0
	e.recoveryHold = nil
	e.crashed = false
	e.recovering = p
	e.mu.Unlock()

	go p.run()
	return nil
}

// scanShard decodes one segment's frames (see wal.Log.RecordShards) and
// groups the redoable records by object, each group in LSN order.
func scanShard(frames []byte) ([]*wal.Record, map[wal.ObjectID][]*wal.Record, error) {
	var recs []*wal.Record
	m := make(map[wal.ObjectID][]*wal.Record)
	for len(frames) > 0 {
		rec, n, err := wal.DecodeRecord(frames)
		if err != nil {
			return nil, nil, err
		}
		frames = frames[n:]
		recs = append(recs, rec)
		switch rec.Type {
		case wal.TypeUpdate, wal.TypeIncrement, wal.TypeCLR:
			m[rec.Object] = append(m[rec.Object], rec)
		}
	}
	return recs, m, nil
}

// promoteParallel is Promote with Options.ParallelRecovery set: the
// follower's replay state is a completed forward pass, so the pipeline
// is undo-only — no scan, no chains — but follower reads keep flowing
// during the sweep, each gated on the undo of the loser clusters covering
// its object.  Returns with promotion still in flight; on pipeline
// failure the engine returns to follower mode and Promote may be retried.
func (e *Engine) promoteParallel() error {
	e.mu.Lock()
	if !e.follower {
		e.mu.Unlock()
		return fmt.Errorf("core: Promote on a non-follower engine")
	}
	if e.crashed {
		e.mu.Unlock()
		return ErrCrashed
	}
	// As in sequential Promote: the replayed prefix must be durable
	// before the backward pass piles CLRs on top of it.
	if err := e.log.Flush(e.log.Head()); err != nil {
		e.mu.Unlock()
		return err
	}
	e.met.recRuns.Inc()
	book := recoveryBook{totalStart: time.Now()}
	losers, scopes := e.classifyLocked()
	book.tr.Losers = uint64(len(losers))
	gates, gateSeq := buildUndoGates(scopes)
	p := &recoveryPipeline{
		e:           e,
		promotion:   true,
		chains:      map[wal.ObjectID]*objectChain{},
		gates:       gates,
		gateSeq:     gateSeq,
		losers:      losers,
		scopes:      scopes,
		compensated: e.frs.compensated,
		hold:        e.recoveryHold,
		book:        book,
		pageBase:    make(map[storage.PageID]wal.LSN),
		failpoint:   e.recoveryFailpoint,
		savedFrs:    e.frs,
		done:        make(chan struct{}),
	}
	e.recoveryFailpoint = 0
	e.recoveryHold = nil
	e.follower = false
	e.frs = nil
	e.recovering = p
	e.mu.Unlock()

	go p.run()
	return nil
}

// buildUndoGates derives the per-object undo gates from the loser scopes:
// one gate per covered object, keyed by the lowest First among the scopes
// covering it, plus the same gates sorted by descending minFirst for the
// sweep to release in order.
func buildUndoGates(scopes []delegation.Scope) (map[wal.ObjectID]*undoGate, []*undoGate) {
	gates := make(map[wal.ObjectID]*undoGate, len(scopes))
	for _, s := range scopes {
		g := gates[s.Object]
		if g == nil {
			gates[s.Object] = &undoGate{minFirst: s.First, ch: make(chan struct{})}
		} else if s.First < g.minFirst {
			g.minFirst = s.First
		}
	}
	seq := make([]*undoGate, 0, len(gates))
	for _, g := range gates {
		seq = append(seq, g)
	}
	sort.Slice(seq, func(i, j int) bool { return seq[i].minFirst > seq[j].minFirst })
	return gates, seq
}

// run drives the pipeline to completion: background redo drain and the
// undo sweep concurrently, then loser termination, the final log force,
// the trace, and the flip back to a writable state.
func (p *recoveryPipeline) run() {
	e := p.e
	var redoErr error
	var redoDur time.Duration
	var wg sync.WaitGroup
	if !p.promotion {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.Now()
			redoErr = p.runDrain()
			redoDur = time.Since(t)
		}()
	}
	undoT := time.Now()
	undoErr := p.runUndo()
	undoDur := time.Since(undoT)
	wg.Wait()
	err := undoErr
	if err == nil {
		err = redoErr
	}
	if err != nil {
		p.fail(err)
		return
	}

	// ---- Finish: terminate losers, force the log, emit the trace. ----
	finishT := time.Now()
	e.mu.Lock()
	if err := e.terminateLosers(p.losers); err != nil {
		e.mu.Unlock()
		p.fail(err)
		return
	}
	if err := e.log.Flush(e.log.Head()); err != nil {
		e.mu.Unlock()
		p.fail(err)
		return
	}
	finishDur := time.Since(finishT)

	tr := p.book.tr
	tr.BackwardDur = undoDur
	tr.TotalDur = time.Since(p.book.totalStart)
	tr.Parallel = true
	tr.OnDemandReads = p.onDemand.Load()
	if p.promotion {
		tr.Stages = []RecoveryStage{
			{Name: "undo", Dur: undoDur, Units: tr.BackwardVisited},
			{Name: "finish", Dur: finishDur, Units: uint64(len(p.losers))},
		}
	} else {
		tr.Stages = []RecoveryStage{
			{Name: "scan", Dur: p.scanDur, Units: tr.ForwardRecords},
			{Name: "analysis", Dur: p.analysisDur, Units: tr.ForwardRecords},
			{Name: "redo", Dur: redoDur, Units: tr.Redone},
			{Name: "undo", Dur: undoDur, Units: tr.BackwardVisited},
			{Name: "finish", Dur: finishDur, Units: uint64(len(p.losers))},
		}
	}
	e.emitRecoveryTraceLocked(tr)
	e.mu.Unlock()

	// One-shot test hook: everything is recovered — reads are fully
	// served — but the flip to a writable state waits for the release.
	if p.hold != nil {
		<-p.hold
	}
	e.mu.Lock()
	e.recovering = nil
	// Reads keep routing through the pipeline until this flip, so the
	// trace's count is final only now.
	e.lastTrace.OnDemandReads = p.onDemand.Load()
	e.mu.Unlock()
	close(p.done)
}

// fail moves the engine back to the state a failed recovery leaves
// behind — crashed for restart recovery, follower for promotion — and
// publishes the error to every waiter.
func (p *recoveryPipeline) fail(err error) {
	e := p.e
	p.err = err
	e.mu.Lock()
	if p.promotion {
		e.follower = true
		e.frs = p.savedFrs
	} else {
		e.crashed = true
		e.recoveryErr = err
	}
	e.recovering = nil
	e.mu.Unlock()
	close(p.done)
}

// runDrain applies every chain in descending heat order.  On-demand
// reads jump this queue: their applyChain wins the chain's once and the
// drainer's call becomes a no-op.
func (p *recoveryPipeline) runDrain() error {
	for _, c := range p.heat {
		if err := p.applyChain(c); err != nil {
			return err
		}
	}
	return nil
}

// applyChain redoes c exactly once; concurrent callers block until the
// first finishes and share its error.
func (p *recoveryPipeline) applyChain(c *objectChain) error {
	c.once.Do(func() { c.err = p.applyChainBody(c) })
	return c.err
}

// applyChainBody applies c's records in LSN order under applyMu.  The
// baseline is the object's page pre-recovery pageLSN (pageBase), NilLSN
// for objects absent from stable storage — per-page, not per-object,
// because a page flushed at pageLSN pl covers the ≤ pl updates of every
// object on it.
func (p *recoveryPipeline) applyChainBody(c *objectChain) error {
	e := p.e
	p.applyMu.Lock()
	defer p.applyMu.Unlock()
	base, err := p.baselineLocked(c.obj)
	if err != nil {
		return err
	}
	for _, rec := range c.recs {
		if rec.LSN <= base {
			continue
		}
		if err := p.ensurePageLocked(c.obj); err != nil {
			return err
		}
		switch rec.Type {
		case wal.TypeUpdate:
			err = e.store.Write(c.obj, rec.After, rec.LSN)
		case wal.TypeIncrement:
			err = e.applyDelta(c.obj, rec.Delta, rec.LSN)
		case wal.TypeCLR:
			if rec.Logical {
				err = e.applyDelta(c.obj, rec.Delta, rec.LSN)
			} else {
				err = e.store.Write(c.obj, rec.Before, rec.LSN)
			}
		}
		if err != nil {
			return err
		}
		p.book.tr.Redone++
	}
	return nil
}

// baselineLocked returns the redo baseline for obj: the captured stable
// pageLSN of the page holding it, or NilLSN for objects absent from the
// stable directory (their page — possibly allocated later by a pipeline
// write of another object — says nothing about them).  Caller holds
// applyMu.
func (p *recoveryPipeline) baselineLocked(obj wal.ObjectID) (wal.LSN, error) {
	pid, ok := p.e.store.PageOf(obj)
	if !ok {
		return wal.NilLSN, nil
	}
	if b, ok := p.pageBase[pid]; ok {
		return b, nil
	}
	pl, err := p.e.store.PageLSNAt(pid)
	if err != nil {
		return wal.NilLSN, err
	}
	p.pageBase[pid] = pl
	return pl, nil
}

// ensurePageLocked locates (allocating if needed) obj's page and captures
// its pageLSN into pageBase if this is the pipeline's first touch — it
// must run before every pipeline write, because the write ratchets the
// page's LSN and would poison the baseline of the page's other objects.
// Caller holds applyMu.
func (p *recoveryPipeline) ensurePageLocked(obj wal.ObjectID) error {
	pid, err := p.e.store.Locate(obj)
	if err != nil {
		return err
	}
	if _, ok := p.pageBase[pid]; !ok {
		pl, err := p.e.store.PageLSNAt(pid)
		if err != nil {
			return err
		}
		p.pageBase[pid] = pl
	}
	return nil
}

// runUndo is the pipeline's backward pass: the same cluster sweep as
// undoScopes, in strictly decreasing LSN order, with two pipeline twists —
// each record's object is redone first (redo-before-undo gate), and the
// per-object read gates are released as the sweep passes below their
// minFirst.
func (p *recoveryPipeline) runUndo() error {
	e := p.e
	planner := delegation.NewPlanner(p.scopes)
	hooked := e.reg.HasEventHook()
	released := 0
	release := func(k wal.LSN) {
		for released < len(p.gateSeq) && p.gateSeq[released].minFirst > k {
			close(p.gateSeq[released].ch)
			released++
		}
	}
	for {
		k, ok := planner.Next()
		if !ok {
			break
		}
		// Every position > k is settled; any gate whose records all lie
		// above k opens now.  Gates at exactly k stay shut until the
		// record at k is undone.
		release(k)
		p.book.tr.BackwardVisited++
		e.met.undoVisited.Inc()
		if hooked {
			e.reg.Emit(obs.Event{Name: "undo.visit", LSN: uint64(k)})
		}
		rec, err := e.log.Get(k)
		if err != nil {
			return fmt.Errorf("core: undo sweep at %d: %w", k, err)
		}
		if !rec.IsUndoable() {
			continue
		}
		owner, hit := planner.ShouldUndo(rec.TxID, rec.Object, k)
		if !hit || p.compensated[k] {
			continue
		}
		// Redo-before-undo: the CLR must land on a fully redone object —
		// a logical counter CLR applied to a stale value would compute
		// the wrong result, and any CLR write would poison the object's
		// redo baseline.  Promotion has no chains (the follower already
		// applied everything).
		if c := p.chains[rec.Object]; c != nil {
			if err := p.applyChain(c); err != nil {
				return err
			}
		}
		p.applyMu.Lock()
		if err := p.ensurePageLocked(rec.Object); err == nil {
			if rec.Type == wal.TypeIncrement {
				err = e.undoIncrement(owner, rec)
			} else {
				err = e.undoUpdate(owner, rec)
			}
			p.applyMu.Unlock()
			if err != nil {
				return err
			}
			p.book.tr.CLRs++
		} else {
			p.applyMu.Unlock()
			return err
		}
		if p.failpoint > 0 {
			p.failpoint--
			if p.failpoint == 0 {
				return ErrInjectedRecoveryFailure
			}
		}
	}
	p.book.tr.BackwardSkipped += planner.Skipped
	p.book.tr.Clusters += planner.Clusters
	e.met.undoSkipped.Add(planner.Skipped)
	e.met.undoClusters.Add(planner.Clusters)
	release(wal.NilLSN)
	return nil
}

// readObject serves a read during recovery: redo the object's chain on
// demand, wait for its undo gate, then read — the caller never observes
// a half-recovered object.  If the pipeline completes (or fails) while
// waiting, the read follows the engine's new state.
func (p *recoveryPipeline) readObject(obj wal.ObjectID) ([]byte, bool, error) {
	p.onDemand.Add(1)
	if c := p.chains[obj]; c != nil {
		if err := p.applyChain(c); err != nil {
			return nil, false, err
		}
	}
	if g := p.gates[obj]; g != nil {
		select {
		case <-g.ch:
		case <-p.done:
			// Success releases every gate before done closes, so this
			// branch means failure.
			if err := p.err; err != nil {
				return nil, false, err
			}
		}
	}
	e := p.e
	e.mu.Lock()
	if e.recovering != p {
		// The pipeline finished while we waited; the flip (or the
		// failure) is visible because both happen under e.mu.
		e.mu.Unlock()
		if err := p.err; err != nil {
			return nil, false, err
		}
		return e.ReadObject(obj)
	}
	// Hold e.mu (so the pipeline cannot flip and admit a writer) and
	// applyMu (so no pipeline write interleaves) across the read.
	p.applyMu.Lock()
	v, ok, err := e.store.Read(obj)
	p.applyMu.Unlock()
	e.mu.Unlock()
	return v, ok, err
}
