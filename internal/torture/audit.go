package torture

import (
	"fmt"

	"ariesrh/internal/core"
	"ariesrh/internal/fault"
	"ariesrh/internal/sim"
	"ariesrh/internal/wal"
)

// ScopeAuditResult aggregates a ScopeAudit run.
type ScopeAuditResult struct {
	// Actions is the number of trace actions replayed; Checks the
	// number of live-transaction Op_List comparisons performed; Records
	// the number of durable log records decoded along the way.
	Actions int
	Checks  int
	Records int
}

// shadowResp is the audit's independent formulation of responsibility:
// for each live transaction, the set of undoable LSNs it is responsible
// for, grouped by object so delegation can move them wholesale.  It is
// derived purely from raw durable log records — no scopes, no Ob_Lists —
// so agreement with the engine's scope-computed Op_List checks the
// paper's central bookkeeping against a second implementation.
type shadowResp map[wal.TxID]map[wal.ObjectID]map[wal.LSN]bool

func (sr shadowResp) apply(rec *wal.Record) {
	switch rec.Type {
	case wal.TypeUpdate, wal.TypeIncrement:
		objs := sr[rec.TxID]
		if objs == nil {
			objs = make(map[wal.ObjectID]map[wal.LSN]bool)
			sr[rec.TxID] = objs
		}
		if objs[rec.Object] == nil {
			objs[rec.Object] = make(map[wal.LSN]bool)
		}
		objs[rec.Object][rec.LSN] = true
	case wal.TypeDelegate, wal.TypeDelegateSet:
		// delegate(tor, tee, obj) for each delegated obj: everything tor
		// is responsible for on obj — its own updates and any it
		// received earlier — moves.
		for _, obj := range rec.Delegated() {
			moved := sr[rec.Tor][obj]
			if len(moved) == 0 {
				continue
			}
			delete(sr[rec.Tor], obj)
			objs := sr[rec.Tee]
			if objs == nil {
				objs = make(map[wal.ObjectID]map[wal.LSN]bool)
				sr[rec.Tee] = objs
			}
			if objs[obj] == nil {
				objs[obj] = make(map[wal.LSN]bool)
			}
			for lsn := range moved {
				objs[obj][lsn] = true
			}
		}
	case wal.TypeCLR:
		// The compensated update is dead; its owner (the transaction
		// writing the CLR) is no longer responsible for it.
		delete(sr[rec.TxID][rec.Object], rec.Compensates)
	case wal.TypeCommit, wal.TypeAbort:
		// The transaction's last record: it is no longer live.
		delete(sr, rec.TxID)
	}
}

// list flattens a transaction's responsibility set, sorted ascending —
// the same shape Engine.OpList returns.
func (sr shadowResp) list(tx wal.TxID) []wal.LSN {
	var out []wal.LSN
	for _, lsns := range sr[tx] {
		for lsn := range lsns {
			out = append(out, lsn)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// ScopeAudit replays cfg's trace one action at a time, flushing the log
// after each, and checks that the engine's scope bookkeeping — queried
// through Op_List — matches the responsibility sets reconstructed from
// the raw durable log bytes for every live transaction.  This is the
// Ob_List reconstruction invariant: the scopes must never drift from
// what the log says.
func ScopeAudit(cfg Config) (ScopeAuditResult, error) {
	cfg = cfg.withDefaults()
	var res ScopeAuditResult
	trace := sim.Generate(cfg.simConfig())
	store := fault.NewDir(fault.Plan{Seed: cfg.Seed})
	eng, err := core.New(core.Options{
		LogDir:   store,
		PoolSize: cfg.PoolSize,
	})
	if err != nil {
		return res, err
	}
	r := sim.NewReplayer(sim.CoreTarget{Engine: eng}, trace)

	shadow := make(shadowResp)
	applied := wal.NilLSN
	for {
		ok, err := r.Step()
		if err != nil {
			return res, fmt.Errorf("torture: audit replay: %w", err)
		}
		if !ok {
			break
		}
		res.Actions++
		if err := eng.Log().Flush(eng.Log().Head()); err != nil {
			return res, err
		}
		// Fold the newly durable records into the shadow sets: re-decode
		// the stable directory image (manifest + segment frames, exactly
		// what a crash would preserve) and apply what the LSN cursor has
		// not seen yet.
		recs, derr := decodeStable(store)
		if derr != nil {
			return res, fmt.Errorf("torture: audit decode: %w", derr)
		}
		for _, rec := range recs {
			if rec.LSN <= applied {
				continue
			}
			shadow.apply(rec)
			applied = rec.LSN
			res.Records++
		}
		ids := r.IDs()
		for _, slot := range r.LiveSlots() {
			id := ids[slot]
			got, err := eng.OpList(id)
			if err != nil {
				return res, err
			}
			want := shadow.list(id)
			if !equalLSNs(got, want) {
				return res, fmt.Errorf(
					"torture: step %d: Op_List(t%d) = %v, log-derived responsibility %v",
					res.Actions-1, id, got, want)
			}
			res.Checks++
		}
	}
	return res, nil
}

func equalLSNs(a, b []wal.LSN) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TransientResult aggregates a TransientRun.
type TransientResult struct {
	// Actions is the number of trace actions replayed; Retries the WAL
	// flush retries performed; Injected the sync errors injected.
	Actions  int
	Retries  uint64
	Injected uint64
}

// TransientRun replays cfg's trace against a device
// that fails every failEveryNth sync attempt with a transient error, and
// verifies the WAL's bounded-backoff retry absorbs every episode: no
// action surfaces an error, the engine stays healthy, and the settled
// final state matches the oracle.  failEveryNth below 2 (which would
// starve the retry budget) is raised to 3.
func TransientRun(cfg Config, failEveryNth uint64) (TransientResult, error) {
	cfg = cfg.withDefaults()
	if failEveryNth < 2 {
		failEveryNth = 3
	}
	var res TransientResult
	trace := sim.Generate(cfg.simConfig())
	store := fault.NewDir(fault.Plan{
		Seed:             cfg.Seed,
		FailEveryNthSync: failEveryNth,
	})
	eng, err := core.New(core.Options{
		LogDir:   store,
		PoolSize: cfg.PoolSize,
	})
	if err != nil {
		return res, err
	}
	r := sim.NewReplayer(sim.CoreTarget{Engine: eng}, trace)
	oracle := sim.NewOracle()
	for {
		ok, err := r.Step()
		if err != nil {
			return res, fmt.Errorf("torture: transient replay surfaced an error: %w", err)
		}
		if !ok {
			break
		}
		if err := oracle.Apply(trace[res.Actions]); err != nil {
			return res, err
		}
		res.Actions++
	}
	// Settle: abort the stragglers, mirrored in the oracle in the same
	// deterministic order.
	live := r.LiveSlots()
	if err := r.AbortLive(); err != nil {
		return res, fmt.Errorf("torture: transient settle: %w", err)
	}
	for _, slot := range live {
		if err := oracle.Apply(sim.Action{Kind: sim.ActAbort, Tx: slot}); err != nil {
			return res, err
		}
	}
	if h := eng.Health(); h.State != core.StateHealthy {
		return res, fmt.Errorf("torture: engine %v after transient-only faults (%v)", h.State, h.Err)
	}
	for obj := 1; obj <= cfg.Objects; obj++ {
		id := wal.ObjectID(obj)
		want, _ := oracle.Value(id)
		got, _, err := eng.ReadObject(id)
		if err != nil {
			return res, err
		}
		if string(got) != string(want) {
			return res, fmt.Errorf("torture: object %d: engine %q, oracle %q", obj, got, want)
		}
	}
	for c := cfg.Objects + 1; c <= cfg.Objects+cfg.Counters; c++ {
		id := wal.ObjectID(c)
		got, err := eng.CounterValue(id)
		if err != nil {
			return res, err
		}
		if want := oracle.Counter(id); got != want {
			return res, fmt.Errorf("torture: counter %d: engine %d, oracle %d", c, got, want)
		}
	}
	res.Retries = eng.Metrics().Counter("wal.flush_retries")
	res.Injected = store.InjectedErrors()
	return res, nil
}
