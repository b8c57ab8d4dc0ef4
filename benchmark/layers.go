package main

import (
	"fmt"
	"time"

	"ariesrh/internal/core"
	"ariesrh/internal/obs"
)

// perLayer lists the traced pass's metrics, layer by layer (a layer is a
// module of the repository).  Source key, as in the README: S spans the
// benchmark records around public calls, D the benchmark's wal.Dir wrapper,
// M counters the program already keeps (DB.Metrics deltas,
// LastRecoveryTrace), P isolated probes of a layer's exported functions.
// A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// ariesrh, the public API (S).
	{name: "api.begin_ns", unit: "ns"}, {name: "api.update_ns", unit: "ns"}, {name: "api.read_ns", unit: "ns"}, {name: "api.increment_ns", unit: "ns"},
	{name: "api.delegate_ns", unit: "ns"}, {name: "api.commit_ns", unit: "ns"}, {name: "api.abort_ns", unit: "ns"},
	{name: "api.calls_per_txn", unit: "count"}, {name: "api.commit_self_ns", unit: "ns"}, {name: "api.commit_share", unit: "ratio"},
	// The log device (D).
	{name: "device.syncs", unit: "count"}, {name: "device.sync_p50_us", unit: "us"}, {name: "device.sync_p99_us", unit: "us"},
	{name: "device.write_calls", unit: "count"}, {name: "device.write_bytes", unit: "B"}, {name: "device.bytes_per_sync", unit: "B"},
	{name: "device.opens", unit: "count"}, {name: "device.removes", unit: "count"},
	// internal/wal (M, P).
	{name: "wal.appends_per_txn", unit: "count"}, {name: "wal.flushes_per_txn", unit: "count"}, {name: "wal.flushed_bytes_per_txn", unit: "B"},
	{name: "wal.grouped_flushes", unit: "count"}, {name: "wal.waiters_per_flush", unit: "count"}, {name: "wal.flush_p50_us", unit: "us"},
	{name: "wal.flush_retries", unit: "count"}, {name: "wal.rotations", unit: "count"},
	{name: "wal.probe_append_ns", unit: "ns"}, {name: "wal.probe_bytes_per_record", unit: "B"}, {name: "wal.probe_scan_ns_per_record", unit: "ns"},
	// internal/lock (M, P).
	{name: "lock.acquires_per_txn", unit: "count"}, {name: "lock.waits_per_txn", unit: "count"}, {name: "lock.wait_p50_us", unit: "us"},
	{name: "lock.hold_p50_us", unit: "us"}, {name: "lock.transfers_per_txn", unit: "count"}, {name: "lock.deadlocks", unit: "count"},
	{name: "lock.violations", unit: "count"}, {name: "lock.probe_acquire_release_ns", unit: "ns"}, {name: "lock.probe_transfer_ns", unit: "ns"},
	// internal/buffer and internal/storage (M, P).
	{name: "buffer.hit_ratio", unit: "ratio"}, {name: "buffer.misses_per_txn", unit: "count"}, {name: "buffer.evictions_per_txn", unit: "count"},
	{name: "buffer.wal_forces", unit: "count"}, {name: "buffer.flushes", unit: "count"},
	{name: "buffer.probe_hit_ns", unit: "ns"}, {name: "buffer.probe_miss_ns", unit: "ns"}, {name: "storage.probe_page_marshal_ns", unit: "ns"},
	// internal/delegation and internal/txn (M, P).
	{name: "core.delegations_per_txn", unit: "count"}, {name: "core.delegate_p50_us", unit: "us"},
	{name: "delegation.probe_record_update_ns", unit: "ns"}, {name: "delegation.probe_delegate_ns", unit: "ns"},
	{name: "delegation.probe_planner_ns_per_scope", unit: "ns"},
	// internal/core (M).
	{name: "core.commit_p50_us", unit: "us"}, {name: "core.update_p50_us", unit: "us"}, {name: "core.abort_p50_us", unit: "us"},
	{name: "core.clrs_per_abort", unit: "count"}, {name: "core.checkpoints", unit: "count"},
	{name: "elr.commits", unit: "count"}, {name: "elr.violations", unit: "count"}, {name: "elr.ack_defer_p50_us", unit: "us"},
	// internal/shard (M, D).
	{name: "router.cross_commit_p50_us", unit: "us"}, {name: "twopc.prepare_p50_us", unit: "us"},
	{name: "router.cross_shard_commits", unit: "count"}, {name: "router.single_shard_commits", unit: "count"},
	{name: "router.commits_indoubt", unit: "count"}, {name: "shard.commit_skew", unit: "ratio"}, {name: "shard.syncs_per_txn_max", unit: "count"},
	// Recovery (M through LastRecoveryTrace).
	{name: "recovery.forward_ms", unit: "ms"}, {name: "recovery.backward_ms", unit: "ms"}, {name: "recovery.forward_records", unit: "count"},
	{name: "recovery.redone", unit: "count"}, {name: "recovery.backward_visited", unit: "count"}, {name: "recovery.backward_skipped", unit: "count"},
	{name: "recovery.clusters", unit: "count"}, {name: "recovery.clrs", unit: "count"}, {name: "recovery.losers", unit: "count"},
	{name: "recovery.ns_per_record", unit: "ns"}, {name: "open.nonrecovery_ms", unit: "ms"},
	// The Go runtime.
	{name: "go.gc_cycles", unit: "count"}, {name: "go.gc_pause_ms", unit: "ms"}, {name: "go.alloc_bytes_per_txn", unit: "B"},
	{name: "go.heap_growth_bytes_per_txn", unit: "B"}, {name: "go.peak_rss_mb", unit: "MiB"},
	// The open-loop generator (metering).
	{name: "gen.late_p99_us", unit: "us"}, {name: "gen.backlog_max", unit: "count"}, {name: "gen.offered_per_s", unit: "1/s"},
	// Reconciliation of the layers with the whole, and the tail that is too
	// unsteady on this box to gate.
	{name: "trace.overhead_ratio", unit: "ratio"}, {name: "trace.api_coverage", unit: "ratio"}, {name: "budget.explained_ratio", unit: "ratio"},
	{name: "txn_p99_us", unit: "us"}, {name: "failed_ratio", unit: "ratio"},
}

// obsQuantile reads a quantile off one of the program's own log2-bucket
// histograms, interpolating inside the bucket (obs's Quantile returns the
// bucket's right edge, a factor of two too coarse to watch a layer move).
func obsQuantile(h obs.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	var seen float64
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= target {
			hi := float64(uint64(1) << i)
			lo := hi / 2
			if i == 0 {
				lo = 0
			}
			return lo + (hi-lo)*(target-seen)/float64(c)
		}
		seen += float64(c)
	}
	return float64(h.Max)
}

// recovered is one restart as the recovery layer saw it.
type recovered struct {
	trace   core.RecoveryTrace
	restart time.Duration // the whole Recover or Open call
}

// spanStats is what the spans of the traced phase add up to.
type spanStats struct {
	byKind      [numSpanKinds]hist
	apiNs       int64 // Σ duration of API-call spans
	txnNs       int64 // Σ duration of transaction spans
	txns, calls int64
	commitNs    int64 // Σ duration of api.commit spans
	commitSelf  hist  // api.commit minus the part device.sync spans cover
	syncOverlap int64 // Σ (api.commit − its self time)
	dropped     int64
}

// summarizeSpans walks the clients' spans that lie inside [from, to).
func summarizeSpans(clients []*tracer, device *tracer, from, to int64) *spanStats {
	st := &spanStats{}
	var syncs []interval
	if device != nil {
		device.mu.Lock()
		for _, s := range device.spans {
			if s.Start >= from && s.End <= to {
				st.byKind[s.Kind].observe(s.End - s.Start)
				if s.Kind == spanDeviceSync {
					syncs = append(syncs, interval{s.Start, s.End})
				}
			}
		}
		st.dropped += device.dropped
		device.mu.Unlock()
	}
	cover := mergeIntervals(syncs)
	for _, t := range clients {
		st.dropped += t.dropped
		for _, s := range t.spans {
			if s.Start < from || s.End > to || s.End == 0 {
				continue
			}
			d := s.End - s.Start
			st.byKind[s.Kind].observe(d)
			if s.Kind == spanTxn {
				st.txns++
				st.txnNs += d
				continue
			}
			st.calls++
			st.apiNs += d
			if s.Kind == spanKind(callCommit) {
				self := selfTime(interval{s.Start, s.End}, cover)
				st.commitNs += d
				st.commitSelf.observe(self)
				st.syncOverlap += d - self
			}
		}
	}
	return st
}

// layerInputs is everything the per-layer table is computed from.
type layerInputs struct {
	traced            sliceData // the traced phase: counters, device deltas, client samples
	untraced          sliceData // the untraced phase just before it, for the overhead
	spans             *spanStats
	probes            map[string]float64
	rec               []recovered
	shards            int
	dirs              []*tracedDir
	dirsFrom          []deviceStats // per wrapper, at the start of the traced phase
	rate              float64       // open loop: offered events per second
	attempted, failed int64
}

func medianOf(rec []recovered, f func(recovered) float64) float64 {
	v := make([]float64, len(rec))
	for i, r := range rec {
		v[i] = f(r)
	}
	return median(v)
}

// layerMetrics computes every per-layer metric.
func layerMetrics(in *layerInputs) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	s := &in.traced
	d := s.to.m.Sub(s.from.m)
	cnt := func(name string) float64 { return float64(d.Counter(name)) }
	p50us := func(name string) float64 { return obsQuantile(d.Histogram(name), 0.5) / 1e3 }
	txns := float64(s.commits)
	sp := in.spans

	for k, name := range map[callKind]string{callBegin: "api.begin_ns", callUpdate: "api.update_ns",
		callRead: "api.read_ns", callIncrement: "api.increment_ns", callDelegateAll: "api.delegate_ns",
		callCommit: "api.commit_ns", callAbort: "api.abort_ns"} {
		out[name] = sp.byKind[k].quantile(0.5)
	}
	out["api.calls_per_txn"] = ratio(float64(sp.calls), float64(sp.txns))
	out["api.commit_self_ns"] = sp.commitSelf.quantile(0.5)
	out["api.commit_share"] = ratio(float64(sp.commitNs), float64(sp.txnNs))

	dev := s.to.dev
	devFrom := s.from.dev
	out["device.syncs"] = float64(dev.syncs - devFrom.syncs)
	out["device.sync_p50_us"] = sp.byKind[spanDeviceSync].quantile(0.5) / 1e3
	out["device.sync_p99_us"] = sp.byKind[spanDeviceSync].quantile(0.99) / 1e3
	out["device.write_calls"] = float64(dev.writes - devFrom.writes)
	out["device.write_bytes"] = float64(dev.writeBytes - devFrom.writeBytes)
	out["device.bytes_per_sync"] = ratio(out["device.write_bytes"], out["device.syncs"])
	out["device.opens"] = float64(dev.opens)
	out["device.removes"] = float64(dev.removes)

	out["wal.appends_per_txn"] = ratio(cnt("wal.appends"), txns)
	out["wal.flushes_per_txn"] = ratio(cnt("wal.flushes"), txns)
	out["wal.flushed_bytes_per_txn"] = ratio(cnt("wal.flushed_bytes"), txns)
	out["wal.grouped_flushes"] = cnt("wal.grouped_flushes")
	out["wal.waiters_per_flush"] = ratio(cnt("wal.flush_waiters"), cnt("wal.grouped_flushes"))
	out["wal.flush_p50_us"] = p50us("wal.flush_ns")
	out["wal.flush_retries"] = cnt("wal.flush_retries")
	out["wal.rotations"] = cnt("wal.rotations")

	out["lock.acquires_per_txn"] = ratio(cnt("lock.acquires"), txns)
	out["lock.waits_per_txn"] = ratio(cnt("lock.waits"), txns)
	out["lock.wait_p50_us"] = p50us("lock.wait_ns")
	out["lock.hold_p50_us"] = p50us("lock.hold_ns")
	out["lock.transfers_per_txn"] = ratio(cnt("lock.transfers"), txns)
	out["lock.deadlocks"] = cnt("lock.deadlocks")
	out["lock.violations"] = cnt("lock.violations")

	hits, misses := cnt("buffer.hits"), cnt("buffer.misses")
	out["buffer.hit_ratio"] = ratio(hits, hits+misses)
	out["buffer.misses_per_txn"] = ratio(misses, txns)
	out["buffer.evictions_per_txn"] = ratio(cnt("buffer.evictions"), txns)
	out["buffer.wal_forces"] = cnt("buffer.wal_forces")
	out["buffer.flushes"] = cnt("buffer.flushes")

	out["core.delegations_per_txn"] = ratio(cnt("core.delegations"), txns)
	out["core.delegate_p50_us"] = p50us("core.delegate_ns")
	out["core.commit_p50_us"] = p50us("core.commit_ns")
	out["core.update_p50_us"] = p50us("core.update_ns")
	out["core.abort_p50_us"] = p50us("core.abort_ns")
	out["core.clrs_per_abort"] = ratio(cnt("core.clrs"), cnt("core.aborts"))
	out["core.checkpoints"] = cnt("core.checkpoints")
	out["elr.commits"] = cnt("elr.commits")
	out["elr.violations"] = cnt("elr.violations")
	out["elr.ack_defer_p50_us"] = p50us("elr.ack_defer_ns")

	out["router.cross_commit_p50_us"] = p50us("router.cross_commit_ns")
	out["twopc.prepare_p50_us"] = p50us("twopc.prepare_ns")
	out["router.cross_shard_commits"] = cnt("router.cross_shard_commits")
	out["router.single_shard_commits"] = cnt("router.single_shard_commits")
	out["router.commits_indoubt"] = cnt("router.commits_indoubt")
	if in.shards > 1 {
		var sum, max float64
		for i := 0; i < in.shards; i++ {
			c := cnt(fmt.Sprintf("shard.%d.core.commits", i))
			sum += c
			if c > max {
				max = c
			}
		}
		out["shard.commit_skew"] = ratio(max, sum/float64(in.shards))
		var busiest int64
		for i, td := range in.dirs {
			if n := td.stats().syncs - in.dirsFrom[i].syncs; n > busiest {
				busiest = n
			}
		}
		out["shard.syncs_per_txn_max"] = ratio(float64(busiest), txns)
	}

	if len(in.rec) > 0 {
		ms := func(f func(core.RecoveryTrace) time.Duration) float64 {
			return medianOf(in.rec, func(r recovered) float64 { return float64(f(r.trace)) / 1e6 })
		}
		n := func(f func(core.RecoveryTrace) uint64) float64 {
			return medianOf(in.rec, func(r recovered) float64 { return float64(f(r.trace)) })
		}
		out["recovery.forward_ms"] = ms(func(t core.RecoveryTrace) time.Duration { return t.ForwardDur })
		out["recovery.backward_ms"] = ms(func(t core.RecoveryTrace) time.Duration { return t.BackwardDur })
		out["recovery.forward_records"] = n(func(t core.RecoveryTrace) uint64 { return t.ForwardRecords })
		out["recovery.redone"] = n(func(t core.RecoveryTrace) uint64 { return t.Redone })
		out["recovery.backward_visited"] = n(func(t core.RecoveryTrace) uint64 { return t.BackwardVisited })
		out["recovery.backward_skipped"] = n(func(t core.RecoveryTrace) uint64 { return t.BackwardSkipped })
		out["recovery.clusters"] = n(func(t core.RecoveryTrace) uint64 { return t.Clusters })
		out["recovery.clrs"] = n(func(t core.RecoveryTrace) uint64 { return t.CLRs })
		out["recovery.losers"] = n(func(t core.RecoveryTrace) uint64 { return t.Losers })
		out["recovery.ns_per_record"] = medianOf(in.rec, func(r recovered) float64 {
			return ratio(float64(r.trace.ForwardDur), float64(r.trace.ForwardRecords))
		})
		// By construction restart_ms = forward + backward + this: whatever
		// the call spent outside the two passes — manifest, segment and
		// page-file open, the object directory, classification.
		out["open.nonrecovery_ms"] = medianOf(in.rec, func(r recovered) float64 {
			return float64(r.restart-r.trace.ForwardDur-r.trace.BackwardDur) / 1e6
		})
	}

	out["go.gc_cycles"] = float64(s.to.gcCycles - s.from.gcCycles)
	out["go.gc_pause_ms"] = float64(s.to.gcPause-s.from.gcPause) / 1e6
	out["go.alloc_bytes_per_txn"] = ratio(float64(s.to.allocated-s.from.allocated), txns)
	out["go.heap_growth_bytes_per_txn"] = ratio(float64(int64(s.to.heapAlloc)-int64(s.from.heapAlloc)), float64(sp.txns))
	out["go.peak_rss_mb"] = peakRSSMiB()

	out["gen.late_p99_us"] = s.late.quantile(0.99) / 1e3
	out["gen.backlog_max"] = float64(s.backlogMax)
	out["gen.offered_per_s"] = in.rate

	out["trace.overhead_ratio"] = ratio(s.txn.quantile(0.5), in.untraced.txn.quantile(0.5))
	out["trace.api_coverage"] = ratio(float64(sp.apiNs), float64(s.busyNs))
	p := in.probes
	for name, v := range p {
		out[name] = v
	}
	// The budget: the layers' unit costs, each times how often a
	// transaction incurs it, plus the device time commits wait through,
	// over the mean transaction.  The remainder is engine latch, scheduling
	// and orchestration time — reported, not gated.
	all := float64(sp.txns) // every transaction of the phase, read-only ones too
	per := func(name string) float64 { return ratio(cnt(name), all) }
	explained := per("wal.appends")*p["wal.probe_append_ns"] +
		per("lock.acquires")*p["lock.probe_acquire_release_ns"] +
		per("lock.transfers")*p["lock.probe_transfer_ns"] +
		per("buffer.hits")*p["buffer.probe_hit_ns"] +
		per("buffer.misses")*p["buffer.probe_miss_ns"] +
		per("core.updates")*p["delegation.probe_record_update_ns"] +
		per("core.delegations")*p["delegation.probe_delegate_ns"] +
		ratio(float64(sp.syncOverlap), all)
	out["budget.explained_ratio"] = ratio(explained, ratio(float64(sp.txnNs), all))
	out["txn_p99_us"] = s.txn.quantile(0.99) / 1e3
	out["failed_ratio"] = ratio(float64(in.failed), float64(in.attempted))
	return out
}
