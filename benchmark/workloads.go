package main

import (
	"fmt"
	"path/filepath"

	"ariesrh"
	"ariesrh/internal/shard"
	"ariesrh/internal/wal"
)

// numClients is the load: two client goroutines, one per CPU of the
// reference box.  It is fixed, and recorded in the fingerprint.
const numClients = 2

// meteringRate is metering's fixed arrival rate in events per second: about
// 40 % of what the seed sustains closed-loop on the reference box.
const meteringRate = 12000

// workload is one named traffic mix.  The five traffic workloads differ only
// in how the database is opened and in what their generators emit; restart
// has its own driver (restart.go).
type workload struct {
	name string
	why  string
	file bool // Options{Dir}: real files, real fsync
	// traceOnFile puts the traced pass's log on real files although the
	// timed pass runs in memory (cross_shard; the README says why).
	traceOnFile bool
	shards      int     // Options.Shards
	openLoop    bool    // events arrive at `rate`, not when the client is free
	rate        float64 // open loop: events per second

	// cycleTxns is the fixed number of transactions a restart cycle runs
	// between its checkpoint and its crash.
	cycleTxns int

	keys     []uint64 // every value key, preloaded and checked by the oracle
	counters []uint64 // every counter key, likewise
	newGen   func(c int, seed int64) generator
}

func keyRange(lo, n uint64) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = lo + uint64(i)
	}
	return keys
}

const (
	commitFileKeys = 1024  // per client: about 31 pages each, the pool holds 128
	mixedMemKeys   = 65536 // shared: about 1,990 pages against a pool of 128
	hotKeys        = 4
	crossPairs     = 256 // per client
	crossShards    = 4
)

func crossBase(c int) uint64 { return uint64(c)*4096 + 1 }

// workloads lists the traffic workloads in the order BENCHMARK.json names
// them; restart is appended by allWorkloadNames.
var workloads = []*workload{
	{
		name: "commit_file",
		why:  "production-default durable commit on private keys: wal flush and the device do the work, locks and buffer misses none",
		file: true, cycleTxns: 4000,
		keys: keyRange(1, numClients*commitFileKeys),
		newGen: func(c int, seed int64) generator {
			return &rwGen{r: newRNG(clientSeed(seed, c)), base: uint64(c)*commitFileKeys + 1,
				span: commitFileKeys, perTxn: 4, alternation: alternation{writesPerRead: 4}}
		},
	},
	{
		name:      "mixed_mem",
		why:       "no device and a cache 15x too small: buffer misses, evictions, S/X locks and log encoding dominate; reads run beside writes",
		cycleTxns: 4000,
		keys:      keyRange(1, mixedMemKeys),
		newGen: func(c int, seed int64) generator {
			return &rwGen{r: newRNG(clientSeed(seed, c)), base: 1, span: mixedMemKeys, perTxn: 4, alternation: alternation{writesPerRead: 1}}
		},
	},
	{
		name:     "metering",
		why:      "the paper's workload, open loop: increments and receipts delegated to a billing transaction; scope transfer and delegated undo do the work",
		openLoop: true, rate: meteringRate, cycleTxns: 4000,
		keys: func() []uint64 {
			var k []uint64
			for c := 0; c < numClients; c++ {
				k = append(k, keyRange(uint64(c)*meterKeysPerUser+1+meterCounters, meterReceipts)...)
			}
			return k
		}(),
		counters: func() []uint64 {
			var k []uint64
			for c := 0; c < numClients; c++ {
				k = append(k, keyRange(uint64(c)*meterKeysPerUser+1, meterCounters)...)
			}
			return k
		}(),
		newGen: func(c int, seed int64) generator {
			return &meterGen{r: newRNG(clientSeed(seed, c)), base: uint64(c)*meterKeysPerUser + 1}
		},
	},
	{
		name: "hot_keys",
		why:  "four shared keys on a real device: the lock wait across the other client's fsync dominates",
		file: true, cycleTxns: 3000,
		keys: keyRange(1, hotKeys),
		newGen: func(c int, seed int64) generator {
			return &rwGen{r: newRNG(clientSeed(seed, c)), base: 1, span: hotKeys, perTxn: 2, alternation: alternation{writesPerRead: 4}}
		},
	},
	{
		name:        "cross_shard",
		why:         "every transaction writes on two of four shards: two-phase commit's prepare, decision and phase-2 rounds and their forces, counted; timed on a memory device",
		traceOnFile: true, shards: crossShards, cycleTxns: 8000,
		keys: func() []uint64 {
			var k []uint64
			for c := 0; c < numClients; c++ {
				for _, p := range crossShardPairs(crossBase(c), crossPairs, crossShards) {
					k = append(k, p[0], p[1])
				}
			}
			return k
		}(),
		newGen: func(c int, seed int64) generator {
			return &pairGen{r: newRNG(clientSeed(seed, c)), pairs: crossShardPairs(crossBase(c), crossPairs, crossShards), alternation: alternation{writesPerRead: 4}}
		},
	},
}

const restartName = "restart"

const restartWhy = "what an operator waits for: reopening a crashed file image with a checkpoint, delegated scopes and in-flight losers, then the first transactions on it"

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func allWorkloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return append(names, restartName)
}

func (w *workload) maxKey() uint64 {
	var m uint64
	for _, k := range w.keys {
		if k > m {
			m = k
		}
	}
	for _, k := range w.counters {
		if k > m {
			m = k
		}
	}
	return m
}

// knobs are the existing engine options the -opt flag flips for the
// sensitivity demonstration; the gated runs leave them all at their
// defaults.
type knobs struct {
	name          string // as given to -opt
	elr, parallel bool
	poolSize      int
}

func parseKnobs(s string) (knobs, error) {
	switch s {
	case "":
		return knobs{}, nil
	case "elr":
		return knobs{name: s, elr: true}, nil
	case "parallel":
		return knobs{name: s, parallel: true}, nil
	case "pool4096":
		return knobs{name: s, poolSize: 4096}, nil
	}
	return knobs{}, fmt.Errorf("unknown -opt %q (want elr, parallel or pool4096)", s)
}

// openDB opens the database of a workload under dir.  In the timed pass that
// is the public API with its defaults.  In the traced pass the log directory
// is the benchmark's wrapper around the same kind of device, injected through
// FaultDir — which leaves the page store and the master record in memory —
// and dirs returns the wrappers.
func openDB(file bool, shards int, dir string, k knobs, dev *tracer) (db *database, dirs []*tracedDir, err error) {
	opts := ariesrh.Options{PoolSize: k.poolSize, EarlyLockRelease: k.elr, ParallelRecovery: k.parallel}
	if dev == nil {
		if file {
			opts.Dir = dir
		}
		opts.Shards = shards
		d, err := ariesrh.Open(opts)
		if err != nil {
			return nil, nil, err
		}
		return wrapDB(d), nil, nil
	}
	wrap := func(sub string) (*tracedDir, error) {
		if !file {
			return newTracedDir(wal.NewMemDir(), dev), nil
		}
		inner, err := wal.OpenFileDir(filepath.Join(dir, sub, "wal"))
		if err != nil {
			return nil, err
		}
		return newTracedDir(inner, dev), nil
	}
	if shards < 2 {
		td, err := wrap("")
		if err != nil {
			return nil, nil, err
		}
		opts.FaultDir = td
		d, err := ariesrh.Open(opts)
		if err != nil {
			return nil, nil, err
		}
		return wrapDB(d), []*tracedDir{td}, nil
	}
	logDirs := make([]wal.Dir, shards)
	for i := range logDirs {
		td, err := wrap(fmt.Sprintf("shard-%d", i))
		if err != nil {
			return nil, nil, err
		}
		dirs = append(dirs, td)
		logDirs[i] = td
	}
	sh, err := shard.Open(shard.Options{Shards: shards, LogDirs: logDirs, PoolSize: k.poolSize,
		EarlyLockRelease: k.elr, ParallelRecovery: k.parallel})
	if err != nil {
		return nil, nil, err
	}
	return wrapShardDB(sh), dirs, nil
}

// shrunk returns the workload at smoke size: the same streams, a restart
// cycle of a hundred transactions.
func (w *workload) shrunk() *workload {
	s := *w
	s.cycleTxns = 100
	return &s
}
