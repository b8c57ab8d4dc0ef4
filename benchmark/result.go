package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// fingerprint says where and how a result document was measured.
type fingerprint struct {
	CPUs       int               `json:"cpus"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Kernel     string            `json:"kernel"`
	Filesystem string            `json:"filesystem"` // of the directory database files go to
	Device     map[string]string `json:"device"`     // per workload: file or mem
	Clients    int               `json:"clients"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Opt        string            `json:"opt,omitempty"`
	GitCommit  string            `json:"git_commit"`
}

// metricValue is one metric in the result document.
type metricValue struct {
	Unit string `json:"unit"`
	summary
}

// workloadResult is one workload's part of the result document.
type workloadResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

// result is the document `-out` writes: one run of all six workloads.
type result struct {
	Fingerprint fingerprint                `json:"fingerprint"`
	Workloads   map[string]*workloadResult `json:"workloads"`
}

func cstring(b []int8) string {
	var sb strings.Builder
	for _, c := range b {
		if c == 0 {
			break
		}
		sb.WriteByte(byte(c))
	}
	return sb.String()
}

// fsNames maps statfs magic numbers to names, for the filesystems a
// checkout is likely to sit on.
var fsNames = map[int64]string{
	0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
	0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
}

func takeFingerprint(cfg config) fingerprint {
	fp := fingerprint{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: "unknown", Filesystem: "unknown", Device: map[string]string{restartName: "file"},
		Clients: numClients, Seed: cfg.seed, Seconds: cfg.seconds, Opt: cfg.k.name, GitCommit: "unknown"}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		fp.Kernel = cstring(u.Sysname[:]) + " " + cstring(u.Release[:])
	}
	var st syscall.Statfs_t
	if syscall.Statfs(".", &st) == nil {
		fp.Filesystem = fmt.Sprintf("0x%x", int64(st.Type))
		if name, ok := fsNames[int64(st.Type)]; ok {
			fp.Filesystem = name
		}
	}
	for _, w := range workloads {
		fp.Device[w.name] = "mem"
		if w.file {
			fp.Device[w.name] = "file"
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		fp.GitCommit = strings.TrimSpace(string(out))
	}
	return fp
}

// runAll runs every workload, timed pass then traced pass, each in a child
// process of its own — so that CPU time, allocations and memory are per
// workload — and writes the result document.
func runAll(cfg config, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	var flagOpt []string
	if cfg.k.name != "" {
		flagOpt = []string{"-opt", cfg.k.name}
	}
	res := result{Fingerprint: takeFingerprint(cfg), Workloads: map[string]*workloadResult{}}
	failed := false
	for _, name := range allWorkloadNames() {
		wr := &workloadResult{Correct: true}
		res.Workloads[name] = wr
		for trace := 0; trace <= 1; trace++ {
			detail := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", name, trace))
			args := append([]string{"-workload", name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
				"-trace", fmt.Sprint(trace), "-detail", detail}, flagOpt...)
			if trace == 1 && cfg.traceOut != "" {
				args = append(args, "-trace-out", cfg.traceOut+"."+name)
			}
			cmd := exec.Command(self, args...)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run()
			// The child's last line is for the driver; the rest is the
			// table a person reads.
			lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
			fmt.Fprintln(os.Stderr, strings.Join(lines[:len(lines)-1], "\n"))
			data, err := os.ReadFile(detail)
			if err != nil {
				return fmt.Errorf("%s, trace %d: %v (no report: %w)", name, trace, runErr, err)
			}
			var m measured
			if err := json.Unmarshal(data, &m); err != nil {
				return err
			}
			wr.Correct = wr.Correct && m.Correct
			wr.Attempted += m.Attempted
			wr.Failed += m.Failed
			mv := map[string]metricValue{}
			for n, s := range m.Metrics {
				mv[n] = metricValue{Unit: unitOf(n), summary: s}
			}
			if trace == 0 {
				wr.EndToEnd = mv
			} else {
				wr.PerLayer = mv
			}
			failed = failed || !m.Correct
		}
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "" {
		_, err = os.Stdout.Write(data)
	} else {
		err = os.WriteFile(outPath, data, 0o644)
	}
	if err == nil && failed {
		err = fmt.Errorf("a workload's checks failed")
	}
	return err
}
