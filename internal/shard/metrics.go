package shard

import (
	"fmt"

	"ariesrh/internal/core"
	"ariesrh/internal/obs"
)

// dbMetrics holds the router-level metric handles — the series that
// exist above any single engine.  Per-shard engine series are folded
// into Metrics() snapshots, not duplicated here.
type dbMetrics struct {
	// Commit routing: transactions settled through the single-shard
	// fast path vs. the cross-shard two-phase path; cross-shard global
	// aborts (user aborts of multi-shard transactions plus presumed
	// aborts triggered by a phase-1 failure).
	singleCommits, crossCommits, crossAborts *obs.Counter

	// crossDelegations counts delegate-out/delegate-in pairs (cross-
	// coordinator transfers; same-shard delegations ride the engines'
	// core.delegations counter).
	crossDelegations *obs.Counter

	// indoubtResolved counts prepared transactions settled at
	// Open/Recover from the coordinator's decision; phase2Failures
	// counts branches left prepared by a post-decision device failure;
	// commitsInDoubt counts commits whose decision force failed — the
	// outcome unknown (ErrInDoubt) until the next Recover reads the
	// coordinator's durable log.
	indoubtResolved, phase2Failures, commitsInDoubt *obs.Counter

	// shards is the configured shard count.
	shards *obs.Gauge

	// crossCommitNs is the end-to-end latency of the two-phase commit
	// path: the participants' forced votes, the coordinator's decision
	// force (its own prepare rides it) and the unforced phase 2.
	crossCommitNs *obs.Histogram
}

func bindDBMetrics(r *obs.Registry) dbMetrics {
	return dbMetrics{
		singleCommits:    r.Counter("router.single_shard_commits"),
		crossCommits:     r.Counter("router.cross_shard_commits"),
		crossAborts:      r.Counter("router.cross_shard_aborts"),
		crossDelegations: r.Counter("router.cross_delegations"),
		indoubtResolved:  r.Counter("router.indoubt_resolved"),
		phase2Failures:   r.Counter("router.phase2_failures"),
		commitsInDoubt:   r.Counter("router.commits_indoubt"),
		shards:           r.Gauge("router.shards"),
		crossCommitNs:    r.Histogram("router.cross_commit_ns"),
	}
}

// Metrics returns one snapshot covering the whole cluster.  Router
// series appear under their own names; every engine series appears
// twice — once under "shard.<i>." with its shard's value, and once
// under its base name aggregated across shards (counters and gauges
// sum, histograms merge bucket-wise).  So "core.commits" is the
// cluster-wide commit count and "shard.2.core.commits" is shard 2's
// share.
func (db *DB) Metrics() obs.Snapshot {
	out := db.reg.Snapshot()
	for i, e := range db.engs {
		s := e.Metrics()
		p := fmt.Sprintf("shard.%d.", i)
		for name, v := range s.Counters {
			out.Counters[p+name] = v
			out.Counters[name] += v
		}
		for name, v := range s.Gauges {
			out.Gauges[p+name] = v
			out.Gauges[name] += v
		}
		for name, h := range s.Histograms {
			out.Histograms[p+name] = h
			out.Histograms[name] = out.Histograms[name].Merge(h)
		}
	}
	return out
}

// Registry returns the router-level metric registry (engine registries
// live on the engines; Metrics() folds them together).
func (db *DB) Registry() *obs.Registry { return db.reg }

// LastRecoveryTrace returns the cluster view of the most recent
// recovery: record/visit/loser counts summed across shards, durations
// taken as the maximum over shards (shard recoveries run
// concurrently, so the slowest shard is the cluster's recovery time).
// Per-shard traces are available from RecoveryTraces.
func (db *DB) LastRecoveryTrace() core.RecoveryTrace {
	var out core.RecoveryTrace
	for _, e := range db.engs {
		tr := e.LastRecoveryTrace()
		if tr.ForwardDur > out.ForwardDur {
			out.ForwardDur = tr.ForwardDur
		}
		if tr.BackwardDur > out.BackwardDur {
			out.BackwardDur = tr.BackwardDur
		}
		if tr.TotalDur > out.TotalDur {
			out.TotalDur = tr.TotalDur
		}
		out.Parallel = out.Parallel || tr.Parallel
		out.Segments += tr.Segments
		out.OnDemandReads += tr.OnDemandReads
		out.ForwardRecords += tr.ForwardRecords
		out.Redone += tr.Redone
		out.BackwardVisited += tr.BackwardVisited
		out.BackwardSkipped += tr.BackwardSkipped
		out.Clusters += tr.Clusters
		out.CLRs += tr.CLRs
		out.Losers += tr.Losers
		out.Winners += tr.Winners
	}
	return out
}

// RecoveryTraces returns each shard's trace of its most recent
// recovery, indexed by shard.
func (db *DB) RecoveryTraces() []core.RecoveryTrace {
	out := make([]core.RecoveryTrace, len(db.engs))
	for i, e := range db.engs {
		out[i] = e.LastRecoveryTrace()
	}
	return out
}
