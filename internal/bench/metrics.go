package bench

import (
	"fmt"

	"ariesrh/internal/core"
	"ariesrh/internal/obs"
	"ariesrh/internal/wal"
)

// E9MetricsInvariants re-measures the paper's §4.2 claims in the units the
// internal/obs registry counts, as a table of invariant / measured /
// expected rows.  It is the experiment-harness twin of the Claim tests in
// internal/core: the same three invariants, but over the sizes rhbench
// uses, with the full metrics snapshot available to EXPERIMENTS.md.
//
// C1: on a delegation-free workload ARIES/RH appends exactly the records
// plain ARIES appends and recovery reads/redoes/compensates the same
// counts.  C2: delegating n objects appends exactly one record, of a few
// bytes per object, and forces zero device flushes, regardless of how many
// updates each object carries.  C3: the backward pass of recovery visits each log record at
// most once, at strictly decreasing LSNs.
func E9MetricsInvariants(txns, updates, delegObjects int) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   fmt.Sprintf("metric invariants for C1–C3 (%d txns x %d updates, %d delegated objects)", txns, updates, delegObjects),
		Claim:   "§4.2: C1 no delegation no overhead; C2 delegation cost linear in objects; C3 single monotone undo sweep",
		Headers: []string{"invariant", "measured", "expected", "holds"},
	}
	ok := true
	row := func(name, measured, expected string, holds bool) {
		t.Rows = append(t.Rows, []string{name, measured, expected, fmt.Sprint(holds)})
		ok = ok && holds
	}

	// C1 — identical delegation-free workload (with one in-flight loser)
	// through plain ARIES and ARIES/RH, comparing counter for counter.
	runC1 := func(begin func() (wal.TxID, error), update func(wal.TxID, wal.ObjectID, []byte) error,
		commit func(wal.TxID) error, flush func(wal.LSN) error, crash, recoverFn func() error) error {
		if _, err := runDelegationFreeWorkload(txns, updates, begin, update, commit); err != nil {
			return err
		}
		loser, err := begin()
		if err != nil {
			return err
		}
		for j := 0; j < updates; j++ {
			if err := update(loser, wal.ObjectID(1_000_000+j), []byte("loser")); err != nil {
				return err
			}
		}
		if err := flush(1 << 62); err != nil {
			return err
		}
		if err := crash(); err != nil {
			return err
		}
		return recoverFn()
	}
	// Plain ARIES keeps no registry of its own: bind its log to one
	// before traffic so both sides count appends the same way.
	base, baseLog := newAries(), obs.NewRegistry()
	base.Log().Instrument(baseLog)
	if err := runC1(base.Begin, base.Update, base.Commit, base.Log().Flush, base.Crash, base.Recover); err != nil {
		return nil, err
	}
	rh, err := core.New(core.Options{PoolSize: 256})
	if err != nil {
		return nil, err
	}
	if err := runC1(rh.Begin, rh.Update, rh.Commit, rh.Log().Flush, rh.Crash, rh.Recover); err != nil {
		return nil, err
	}
	m, bs, trace := rh.Metrics(), base.Stats(), rh.LastRecoveryTrace()
	appends, baseAppends := m.Counter("wal.appends"), baseLog.Counter("wal.appends").Load()
	row("C1 log records appended (RH vs ARIES)",
		fmt.Sprintf("%d vs %d", appends, baseAppends),
		"equal", appends == baseAppends)
	row("C1 recovery forward records",
		fmt.Sprintf("%d vs %d", trace.ForwardRecords, bs.RecForwardRecords),
		"equal", trace.ForwardRecords == bs.RecForwardRecords)
	row("C1 recovery CLRs",
		fmt.Sprintf("%d vs %d", trace.CLRs, bs.RecCLRs),
		"equal", trace.CLRs == bs.RecCLRs)

	// C2 — delegate delegObjects objects carrying different update counts;
	// the cost must be one append, a few bytes per object, and no device
	// flushes.
	e2, err := core.New(core.Options{PoolSize: 256})
	if err != nil {
		return nil, err
	}
	tor, err := e2.Begin()
	if err != nil {
		return nil, err
	}
	tee, err := e2.Begin()
	if err != nil {
		return nil, err
	}
	for k := 0; k < delegObjects; k++ {
		for u := 0; u <= k%3; u++ {
			if err := e2.Update(tor, wal.ObjectID(k+1), []byte("v")); err != nil {
				return nil, err
			}
		}
	}
	before, beforeBytes := e2.Metrics(), logBytes(e2.Log())
	if err := e2.DelegateAll(tor, tee); err != nil {
		return nil, err
	}
	d := e2.Metrics().Sub(before)
	bytes := logBytes(e2.Log()) - beforeBytes
	row("C2 records per DelegateAll",
		fmt.Sprintf("%d/%d", d.Counter("wal.appends"), delegObjects),
		"1 per DelegateAll", d.Counter("wal.appends") == 1)
	perObject := float64(bytes) / float64(delegObjects)
	row("C2 log bytes per delegated object",
		fmt.Sprintf("%.2f (%d B)", perObject, bytes),
		"≤ 10", perObject <= 10)
	row("C2 device flushes during delegation",
		fmt.Sprint(d.Counter("wal.flushes")), "0", d.Counter("wal.flushes") == 0)

	// C3 — crash a delegation workload and watch the undo.visit stream.
	e3, err := core.New(core.Options{PoolSize: 256})
	if err != nil {
		return nil, err
	}
	l1, err := e3.Begin()
	if err != nil {
		return nil, err
	}
	l2, err := e3.Begin()
	if err != nil {
		return nil, err
	}
	w, err := e3.Begin()
	if err != nil {
		return nil, err
	}
	for i := 0; i < updates; i++ {
		for _, p := range []struct {
			tx  wal.TxID
			obj wal.ObjectID
		}{{l1, wal.ObjectID(1 + i%4)}, {l2, wal.ObjectID(10 + i%4)}, {w, wal.ObjectID(20 + i%4)}} {
			if err := e3.Update(p.tx, p.obj, []byte("x")); err != nil {
				return nil, err
			}
		}
	}
	if err := e3.Delegate(l1, l2, 1); err != nil {
		return nil, err
	}
	if err := e3.Commit(w); err != nil {
		return nil, err
	}
	if err := e3.Crash(); err != nil {
		return nil, err
	}
	var visits []wal.LSN
	e3.SetEventHook(func(ev obs.Event) {
		if ev.Name == "undo.visit" {
			visits = append(visits, wal.LSN(ev.LSN))
		}
	})
	if err := e3.Recover(); err != nil {
		return nil, err
	}
	e3.SetEventHook(nil)
	monotone, seen := true, make(map[wal.LSN]bool, len(visits))
	maxVisits := 0
	for i, lsn := range visits {
		if seen[lsn] {
			maxVisits = 2
		}
		seen[lsn] = true
		if i > 0 && lsn >= visits[i-1] {
			monotone = false
		}
	}
	if maxVisits == 0 && len(visits) > 0 {
		maxVisits = 1
	}
	tr3 := e3.LastRecoveryTrace()
	row("C3 max visits per record", fmt.Sprint(maxVisits), "≤ 1", maxVisits <= 1)
	row("C3 visit LSNs strictly decreasing", fmt.Sprint(monotone), "true", monotone)
	row("C3 backward work / log records",
		fmt.Sprintf("%d/%d", tr3.BackwardVisited+tr3.BackwardSkipped, e3.Log().Head()),
		"≤ 1 pass", tr3.BackwardVisited+tr3.BackwardSkipped <= uint64(e3.Log().Head()))

	t.Verdict = fmt.Sprintf("all invariants hold = %v (asserted continuously by `go test ./internal/core -run 'Claim|Invariant'`)", ok)
	return t, nil
}
