package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// manifest is BENCHMARK.json: the contract between the benchmark and whoever
// judges a change by it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// readSet reads one result file, or every *.json result file of a directory:
// a set of runs of one commit.
func readSet(path string) ([]*result, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var set []*result
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		set = append(set, &r)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	return set, nil
}

// setStat is one (workload, metric) pair over a set of runs: the median of
// the runs' values and their interquartile spread as a share of it.
type setStat struct {
	median, spread float64
	runs           int
	failed         int64
}

func statOf(set []*result, workload, metric string) (setStat, bool) {
	var v []float64
	var st setStat
	for _, r := range set {
		w := r.Workloads[workload]
		if w == nil {
			continue
		}
		st.failed += w.Failed
		if m, ok := w.EndToEnd[metric]; ok {
			v = append(v, m.Value)
		}
	}
	if len(v) == 0 {
		return st, false
	}
	st.runs = len(v)
	st.median = median(v)
	if len(v) >= 2 && st.median != 0 {
		q1, q3 := quartiles(v)
		st.spread = (q3 - q1) / st.median
	}
	return st, true
}

// verdict judges b against a for one metric.
func verdict(a, b setStat, m boundedMetric) string {
	if a.spread > m.Bound || b.spread > m.Bound {
		return "unresolved" // the runs of one side disagree by more than the bound
	}
	change := ratio(b.median-a.median, a.median)
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case change > m.Bound:
		return "worse"
	case change < -m.Bound:
		return "better"
	}
	return "unchanged"
}

// compareResults applies BENCHMARK.json's bounds to two sets of runs and
// prints one row per workload and end-to-end metric.  It reports false when
// any row is worse or b failed more checks than a.
func compareResults(out io.Writer, pathA, pathB string) (bool, error) {
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(out, "%-12s %-18s %14s %8s %14s %8s %8s %6s  %s\n", "workload", "metric", "a", "spread", "b", "spread", "change", "bound", "verdict")
	for _, w := range man.Workloads {
		var failedA, failedB int64
		for _, m := range man.EndToEnd {
			sa, okA := statOf(a, w.Name, m.Name)
			sb, okB := statOf(b, w.Name, m.Name)
			if !okA || !okB {
				return false, fmt.Errorf("%s/%s is missing from one side", w.Name, m.Name)
			}
			failedA, failedB = sa.failed, sb.failed
			v := verdict(sa, sb, m)
			ok = ok && v != "worse"
			fmt.Fprintf(out, "%-12s %-18s %14.4f %8.4f %14.4f %8.4f %+8.4f %6.2f  %s\n", w.Name, m.Name,
				sa.median, sa.spread, sb.median, sb.spread, ratio(sb.median-sa.median, sa.median), m.Bound, v)
		}
		if failedB > failedA {
			ok = false
			fmt.Fprintf(out, "%-12s failed checks rose from %d to %d: worse\n", w.Name, failedA, failedB)
		}
	}
	return ok, nil
}
