package main

// metricDef declares one metric: its name and unit here, its direction and
// bound in BENCHMARK.json (a test keeps the two lists equal).
type metricDef struct {
	name, unit string
	higher     bool // better higher
}

// endToEnd lists the metrics a user of the library would see.  Every
// workload reports every one of them.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "txn_p50_us", unit: "us"},
	{name: "txns_per_s", unit: "1/s", higher: true},
	{name: "read_p50_us", unit: "us"},
	{name: "syncs_per_txn", unit: "count"},
	{name: "log_bytes_per_txn", unit: "B"},
	{name: "cpu_us_per_txn", unit: "us"},
	{name: "allocs_per_txn", unit: "count"},
	{name: "live_heap_mb", unit: "MiB"},
	{name: "restart_ms", unit: "ms"},
	{name: "first_read_ms", unit: "ms"},
}

// values collects per-slice (or per-repetition) values by metric name.
type values map[string][]float64

func (v values) add(name string, x float64) { v[name] = append(v[name], x) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sliceMetrics appends one slice's end-to-end values.  Every per-transaction
// ratio divides by the slice's committed write transactions.
func sliceMetrics(v values, s *sliceData) {
	d := s.to.m.Sub(s.from.m)
	txns := float64(s.commits)
	secs := float64(s.to.t-s.from.t) / 1e9
	v.add("txn_p50_us", s.txn.quantile(0.50)/1e3)
	v.add("txns_per_s", ratio(txns, secs))
	v.add("read_p50_us", s.read.quantile(0.50)/1e3)
	v.add("syncs_per_txn", ratio(float64(d.Counter("wal.flushes")), txns))
	v.add("log_bytes_per_txn", ratio(float64(d.Counter("wal.flushed_bytes")), txns))
	v.add("cpu_us_per_txn", ratio(float64(s.cpuNs())/1e3, txns))
	v.add("allocs_per_txn", ratio(float64(s.to.mallocs-s.from.mallocs), txns))
}

// cpuNs is the CPU a slice's transactions cost.  Closed loop: the process's
// user and system time over the slice, which leaves out the wait for fsync.
// Open loop: the time the workers spent executing transactions — they spin
// between events, so process time says nothing, and on a memory device an
// executing worker is either on a CPU or waiting for the flusher, which is.
func (s *sliceData) cpuNs() int64 {
	if s.openLoop {
		return s.busyNs
	}
	return int64(s.to.cpu - s.from.cpu)
}
