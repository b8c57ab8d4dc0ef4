// Command benchmark is the repository's benchmark: six seeded workloads
// driven through the public API, twelve end-to-end metrics from a timed pass
// and a per-layer budget from a traced pass.  README.md has the tables;
// BENCHMARK.json, at the root of the repository, has the bounds.
//
//	bash benchmark/run.sh --workload commit_file --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -out result.json          # all six, both passes
//	bash benchmark/run.sh -compare baseline/set1 baseline/set2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

var verbose bool

// measured is what one run of one workload reports: the end-to-end metrics
// of a timed pass or the per-layer metrics of a traced one.
type measured struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
	Errors    []string           `json:"errors,omitempty"`
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	k        knobs
	traceOut string // traced pass: write the raw spans here, as JSON lines
	smoke    bool   // tiny sizes: structure and oracles only
}

func main() {
	var cfg config
	var (
		trace   = flag.Int("trace", 0, "1: traced pass, per-layer metrics; 0: timed pass, end-to-end metrics")
		opt     = flag.String("opt", "", "flip one existing engine knob, off-gate: elr, parallel or pool4096")
		out     = flag.String("out", "", "all workloads: write the result document here (default stdout)")
		detail  = flag.String("detail", "", "one workload: also write the run's full report here")
		compare = flag.Bool("compare", false, "compare two result files or directories of them: -compare a b")
		sweep   = flag.Bool("sweep", false, "metering only, off-gate: latency at 0.25..3 x the fixed rate")
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all six, each in its own process)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the operation streams")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "traced pass: write the raw spans here, as JSON lines")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny sizes: check structure and oracles, not numbers")
	flag.BoolVar(&verbose, "v", false, "print every failed call")
	flag.Parse()
	cfg.traced = *trace == 1

	var err error
	if cfg.k, err = parseKnobs(*opt); err != nil {
		fatal(err)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files or directories"))
		}
		ok, err := compareResults(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *sweep:
		if err := runSweep(cfg); err != nil {
			fatal(err)
		}
	case cfg.smoke:
		if err := runSmoke(cfg.seed); err != nil {
			fatal(err)
		}
		fmt.Println("smoke: ok")
	case cfg.workload == "":
		if err := runAll(cfg, *out); err != nil {
			fatal(err)
		}
	default:
		m, err := runWorkload(cfg)
		if err != nil {
			fatal(err)
		}
		if *detail != "" {
			if err := writeJSON(*detail, m); err != nil {
				fatal(err)
			}
		}
		printMeasured(m)
		if !m.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runWorkload runs one workload, one pass, in this process.
func runWorkload(cfg config) (*measured, error) {
	tmp, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	if cfg.workload == restartName {
		spec, builds, burst := fullImage, restartBuilds, restartBurst
		if cfg.smoke {
			spec, builds, burst = smokeImage, 1, 100*time.Millisecond
		}
		return runRestart(cfg, tmp, spec, builds, burst)
	}
	w := findWorkload(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, allWorkloadNames())
	}
	if cfg.smoke {
		w = w.shrunk()
	}
	tm := timingFor(cfg.seconds, w.file, cfg.smoke)
	if cfg.traced {
		return runTracedTraffic(w, cfg, tm, tmp)
	}
	return runTraffic(w, cfg, tm, tmp)
}

// runTraffic is the timed pass of a traffic workload: set-up and a restart
// cycle several times over, warm-up, the measured slices, the oracle.
func runTraffic(w *workload, cfg config, tm timing, tmp string) (*measured, error) {
	r := &run{w: w, seed: cfg.seed, k: cfg.k, clock: monoClock(), tmp: tmp}
	v := values{}
	for i := 0; i < tm.setups; i++ {
		if r.db != nil {
			if err := r.closeDB(); err != nil {
				return nil, err
			}
		}
		d, err := r.setup()
		if err != nil {
			return nil, err
		}
		v.add("setup_s", d.Seconds())
		restart, first, err := r.restartCycle()
		if err != nil {
			return nil, err
		}
		v.add("restart_ms", float64(restart)/1e6)
		v.add("first_read_ms", float64(first)/1e6)
		v.add("live_heap_mb", liveHeapMiB())
	}
	r.traffic(1, tm.warmup, 0)
	for _, s := range r.traffic(tm.slices, tm.sliceDur, 0) {
		s := s
		sliceMetrics(v, &s)
	}
	if err := r.oracle(); err != nil {
		return nil, err
	}
	if err := r.closeDB(); err != nil {
		return nil, err
	}
	return r.measured(endToEnd, v, false), nil
}

// measured turns a finished run's values into its report.
func (r *run) measured(defs []metricDef, v values, traced bool) *measured {
	m := &measured{Workload: r.w.name, Traced: traced, Correct: r.failed == 0, Attempted: r.attempted,
		Failed: r.failed, Metrics: map[string]summary{}, Errors: r.errs}
	for _, d := range defs {
		m.Metrics[d.name] = summarize(v[d.name], d.higher)
	}
	return m
}

// unitOf returns a metric's unit.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// printMeasured prints every metric by name with its unit, then — as the
// last line — the result object the driver reads.
func printMeasured(m *measured) {
	for _, e := range m.Errors {
		fmt.Println("FAILED:", e)
	}
	pass := "timed"
	defs := endToEnd
	if m.Traced {
		pass, defs = "traced", perLayer
	}
	fmt.Printf("workload %s, %s pass: %d attempted, %d failed\n", m.Workload, pass, m.Attempted, m.Failed)
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]mv{}
	for _, d := range defs {
		s := m.Metrics[d.name]
		fmt.Printf("  %-40s %16.4f %-6s", d.name, s.Value, d.unit)
		if s.Samples > 1 {
			fmt.Printf(" (median %.4f, min %.4f, max %.4f, n=%d)", s.Median, s.Min, s.Max, s.Samples)
		}
		fmt.Println()
		out[d.name] = mv{s.Value, d.unit}
	}
	line, err := json.Marshal(map[string]any{"correct": m.Correct, "attempted": m.Attempted, "failed": m.Failed, "metrics": out})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// runSmoke runs every workload, both passes, in this process at tiny sizes.
// It checks that every declared metric is reported and that the oracles
// pass; the numbers mean nothing.
func runSmoke(seed int64) error {
	for _, name := range allWorkloadNames() {
		for _, traced := range []bool{false, true} {
			m, err := runWorkload(config{workload: name, seed: seed, seconds: 1, traced: traced, smoke: true})
			if err != nil {
				return fmt.Errorf("%s (traced %v): %w", name, traced, err)
			}
			if !m.Correct {
				return fmt.Errorf("%s (traced %v): %d of %d checks failed: %v", name, traced, m.Failed, m.Attempted, m.Errors)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(m.Metrics) != len(defs) {
				return fmt.Errorf("%s (traced %v): %d metrics reported, %d declared", name, traced, len(m.Metrics), len(defs))
			}
			for _, d := range defs {
				if _, ok := m.Metrics[d.name]; !ok {
					return fmt.Errorf("%s (traced %v): metric %s missing", name, traced, d.name)
				}
			}
		}
	}
	return nil
}
