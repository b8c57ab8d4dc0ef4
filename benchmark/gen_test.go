package main

import (
	"testing"

	"ariesrh/internal/shard"
	"ariesrh/internal/wal"
)

// streamCalls is how many generated calls the fingerprints cover.
const streamCalls = 10_000

func restartGen(c int, seed int64) generator { return restartWorkload(fullImage).newGen(c, seed) }

func generators() map[string]func(c int, seed int64) generator {
	gens := map[string]func(c int, seed int64) generator{restartName: restartGen}
	for _, w := range workloads {
		gens[w.name] = w.newGen
	}
	return gens
}

func TestSameSeedSameStream(t *testing.T) {
	for name, newGen := range generators() {
		for c := 0; c < numClients; c++ {
			a, b := streamHash(newGen(c, 7), streamCalls), streamHash(newGen(c, 7), streamCalls)
			if a != b {
				t.Errorf("%s client %d: seed 7 gave streams %x and %x", name, c, a, b)
			}
			if other := streamHash(newGen(c, 8), streamCalls); other == a {
				t.Errorf("%s client %d: seeds 7 and 8 gave the same stream", name, c)
			}
		}
		if streamHash(newGen(0, 7), streamCalls) == streamHash(newGen(1, 7), streamCalls) {
			t.Errorf("%s: both clients generate the same stream", name)
		}
	}
}

// The fingerprints of seed 1, client 0.  A change here redefines a workload:
// the committed baselines no longer describe it and must be measured again.
func TestStreamFingerprints(t *testing.T) {
	want := map[string]uint64{
		"commit_file": 0x52b3ee1dbc691de2, "mixed_mem": 0xd91c7e5384eec282, "metering": 0xc7ebb670f217ce23,
		"hot_keys": 0xda641f0fddba6e19, "cross_shard": 0xbb4ca76eea26801f, "restart": 0xb77deaa62b89b28a,
	}
	for name, newGen := range generators() {
		if got := streamHash(newGen(0, 1), streamCalls); got != want[name] {
			t.Errorf("%s: stream fingerprint %#x, want %#x", name, got, want[name])
		}
	}
}

func TestTransactionsCannotDeadlock(t *testing.T) {
	for name, newGen := range generators() {
		g := newGen(0, 3)
		var buf []call
		for i := 0; i < 2000; i++ {
			buf, _ = g.next(buf)
			var last uint64
			for _, c := range buf {
				if c.kind != callUpdate && c.kind != callRead {
					continue
				}
				if c.key <= last {
					t.Fatalf("%s: transaction %d touches key %d after %d: not ascending", name, i, c.key, last)
				}
				last = c.key
			}
		}
	}
}

func TestCrossShardPairsCrossShards(t *testing.T) {
	for c := 0; c < numClients; c++ {
		pairs := crossShardPairs(crossBase(c), crossPairs, crossShards)
		if len(pairs) != crossPairs {
			t.Fatalf("client %d: %d pairs", c, len(pairs))
		}
		for _, p := range pairs {
			a := shard.HashRouter{}.Route(wal.ObjectID(p[0]), crossShards)
			b := shard.HashRouter{}.Route(wal.ObjectID(p[1]), crossShards)
			if a == b || p[0] >= p[1] {
				t.Errorf("pair %v: shards %d and %d", p, a, b)
			}
			if p[1] >= crossBase(c+1) {
				t.Errorf("client %d's pair %v reaches into the next client's keys", c, p)
			}
		}
	}
}

func TestMeteringReceiptsDoNotRepeatInsideABillingWindow(t *testing.T) {
	g := generators()["metering"](0, 5)
	seen := map[uint64]bool{}
	var buf []call
	for i := 0; i < 5000; i++ {
		buf, _ = g.next(buf)
		for _, c := range buf {
			switch c.kind {
			case callUpdate:
				if seen[c.key] {
					t.Fatalf("receipt %d written twice under one billing transaction: the second writer would wait for ever", c.key)
				}
				seen[c.key] = true
			case callBillCommit, callBillAbort:
				seen = map[uint64]bool{}
			}
		}
	}
}
