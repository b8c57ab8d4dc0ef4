// Command rhbench regenerates the experiment tables of EXPERIMENTS.md: one
// experiment per efficiency claim of the paper (§3.2, §4.2, §3.7, §2.2),
// comparing ARIES/RH against conventional ARIES, the eager/lazy rewriting
// baselines, and the EOS-style NO-UNDO/REDO engine.
//
// Usage:
//
//	rhbench                                # run everything
//	rhbench -exp e3                        # run one experiment
//	rhbench -quick                         # smaller sizes (CI-friendly)
//	rhbench -exp e11 -json BENCH_E11.json  # machine-readable output
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"ariesrh/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: e1..e15, a1, or all")
	quick := flag.Bool("quick", false, "use smaller workload sizes")
	shards := flag.Int("shards", 0, "e15: sweep shard counts {1, N} instead of the default {1, 2, 4, 8}")
	jsonPath := flag.String("json", "", "also write the tables as a JSON array to this file")
	flag.Parse()

	scale := 1
	if *quick {
		scale = 4
	}

	runs := []struct {
		id  string
		run func() (*bench.Table, error)
	}{
		{"e1", func() (*bench.Table, error) {
			return bench.E1NoDelegationOverhead(400/scale, 16, 3)
		}},
		{"e2", func() (*bench.Table, error) {
			sizes := []int{1, 4, 16, 64, 256, 1024}
			if *quick {
				sizes = []int{1, 16, 256}
			}
			return bench.E2DelegationLinearity(sizes, 3)
		}},
		{"e3", func() (*bench.Table, error) {
			return bench.E3RecoveryVsDelegationRate(6000/scale, []float64{0, 0.05, 0.10, 0.20, 0.40})
		}},
		{"e4", func() (*bench.Table, error) {
			lengths := []int{1000, 4000, 16000, 64000}
			if *quick {
				lengths = []int{1000, 8000}
			}
			return bench.E4EagerSweepVsLogLength(lengths)
		}},
		{"e5", func() (*bench.Table, error) {
			return bench.E5EOS(400/scale, 16, 4)
		}},
		{"e6", func() (*bench.Table, error) {
			return bench.E6ETMMacro(2000 / scale)
		}},
		{"a1", func() (*bench.Table, error) {
			return bench.A1ClusterSweepAblation(6000/scale, []float64{0, 0.10, 0.40})
		}},
		{"e9", func() (*bench.Table, error) {
			txns, updates := 200, 8
			if *quick {
				txns = 50
			}
			return bench.E9MetricsInvariants(txns, updates, 64)
		}},
		{"e10", func() (*bench.Table, error) {
			seeds := []int64{1, 2, 3}
			steps, maxBoundaries := 1200, 0
			if *quick {
				seeds = []int64{1}
				steps, maxBoundaries = 600, 80
			}
			return bench.E10Torture(seeds, steps, maxBoundaries)
		}},
		{"e11", func() (*bench.Table, error) {
			committers := []int{1, 8, 32}
			txnsPer, updatesPer, delay := 48, 4, 200*time.Microsecond
			if *quick {
				committers = []int{1, 16}
				txnsPer, delay = 24, 100*time.Microsecond
			}
			return bench.E11ReplicationLag(committers, txnsPer, updatesPer, delay)
		}},
		{"e12", func() (*bench.Table, error) {
			// Contended committers over a shared hot set: the cell pair at
			// each count isolates what early lock release buys.
			committers := []int{1, 4, 8, 16, 32, 64}
			txnsPer, updatesPer, hot, delay := 32, 2, 12, 200*time.Microsecond
			if *quick {
				committers = []int{1, 8, 64}
				txnsPer, delay = 16, 100*time.Microsecond
			}
			return bench.E12EarlyLockRelease(committers, txnsPer, updatesPer, hot, delay)
		}},
		{"e13", func() (*bench.Table, error) {
			// Fixed prefix dropped from growing logs isolates archive cost
			// from retained length; the windowed cell bounds the footprint;
			// the crash sweep covers the rotation/archive maintenance paths.
			lengths := []int{8192, 32768, 131072}
			rounds, maxBoundaries := 80, 0
			if *quick {
				lengths = []int{4096, 16384, 65536}
				rounds, maxBoundaries = 40, 60
			}
			return bench.E13ArchiveCost(lengths, 2048, 1024, 4096, rounds, maxBoundaries)
		}},
		{"e14", func() (*bench.Table, error) {
			// Log length grows via the object count at a fixed chain
			// length per object, so the probe's on-demand redo is the
			// same work at every cell and only the replay volume moves.
			lengths := []int{8192, 32768, 131072}
			if *quick {
				lengths = []int{4096, 16384, 65536}
			}
			return bench.E14InstantRestart(lengths, 8, 16)
		}},
		{"e15", func() (*bench.Table, error) {
			// 64 committers against 1/2/4/8 shards: the committer count
			// is fixed, so what moves is how many group flushers share
			// them.
			counts := []int{1, 2, 4, 8}
			committers, txnsPer, updatesPer, delay := 64, 32, 4, 200*time.Microsecond
			if *quick {
				counts = []int{1, 4}
				txnsPer, delay = 12, 100*time.Microsecond
			}
			if *shards > 0 {
				counts = []int{1}
				if *shards != 1 {
					counts = append(counts, *shards)
				}
			}
			return bench.E15ShardScaling(counts, committers, txnsPer, updatesPer, delay)
		}},
	}

	var tables []*bench.Table
	ran := false
	for _, r := range runs {
		if *exp != "all" && !strings.EqualFold(*exp, r.id) {
			continue
		}
		ran = true
		table, err := r.run()
		if err != nil {
			log.Fatalf("%s: %v", r.id, err)
		}
		fmt.Println(table.Format())
		tables = append(tables, table)
	}
	if !ran {
		log.Fatalf("unknown experiment %q (want e1..e15, a1, or all)", *exp)
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(tables, "", "  ")
		if err != nil {
			log.Fatalf("marshal tables: %v", err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			log.Fatalf("write %s: %v", *jsonPath, err)
		}
		fmt.Printf("wrote %s (%d tables)\n", *jsonPath, len(tables))
	}
}
