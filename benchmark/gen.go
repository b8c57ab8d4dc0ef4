package main

import (
	"encoding/binary"
	"hash/fnv"
	"sort"

	"ariesrh/internal/shard"
	"ariesrh/internal/wal"
)

// rng is xorshift64* seeded through splitmix64.  The benchmark carries its
// own generator so that a seed names the same operation stream under every
// Go release.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	z := seed + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return &rng{s: z}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

func (r *rng) intn(n int) int { return int((r.next() >> 11) % uint64(n)) }

// clientSeed derives client c's generator seed from the run's seed.
func clientSeed(seed int64, c int) uint64 { return uint64(seed)*1_000_003 + uint64(c)*7919 + 1 }

// callKind is one public-API call the executor can make.
type callKind uint8

const (
	callBegin callKind = iota
	callUpdate
	callRead
	callIncrement
	callDelegateAll
	callCommit
	callAbort
	// callBillCommit and callBillAbort terminate the client's long-lived
	// billing transaction (metering) and begin the next one.
	callBillCommit
	callBillAbort
	numCallKinds
)

// call is one generated API call: the engine sees nothing else of a
// workload.
type call struct {
	kind callKind
	key  uint64
}

// generator produces one client's transactions.  next appends the calls of
// the next transaction to buf[:0] and reports whether it is read-only.
type generator interface {
	next(buf []call) (calls []call, readOnly bool)
}

// pickDistinct appends n distinct keys drawn from [base, base+span) to
// keys[:0], ascending: touching keys in one global order rules out deadlock.
func pickDistinct(r *rng, keys []uint64, n int, base uint64, span int) []uint64 {
	keys = keys[:0]
	for len(keys) < n {
		k := base + uint64(r.intn(span))
		dup := false
		for _, have := range keys {
			dup = dup || have == k
		}
		if !dup {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// alternation decides which of a generator's transactions are read-only:
// one after every writesPerRead writes.
type alternation struct{ writesPerRead, n int }

// turn returns the kind of call the next transaction makes on its keys.
func (a *alternation) turn() (kind callKind, readOnly bool) {
	a.n++
	if a.n%(a.writesPerRead+1) == 0 {
		return callRead, true
	}
	return callUpdate, false
}

// rwGen alternates write transactions (updates of `perTxn` keys, commit)
// with read-only ones (reads of `perTxn` keys, commit).
type rwGen struct {
	alternation
	r      *rng
	base   uint64
	span   int
	perTxn int
	keys   []uint64
}

func (g *rwGen) next(buf []call) ([]call, bool) {
	kind, readOnly := g.turn()
	g.keys = pickDistinct(g.r, g.keys, g.perTxn, g.base, g.span)
	buf = append(buf[:0], call{kind: callBegin})
	for _, k := range g.keys {
		buf = append(buf, call{kind: kind, key: k})
	}
	return append(buf, call{kind: callCommit}), readOnly
}

// pairGen is cross_shard's generator: each transaction touches one
// precomputed pair of keys that live on two different shards.
type pairGen struct {
	alternation
	r     *rng
	pairs [][2]uint64
}

func (g *pairGen) next(buf []call) ([]call, bool) {
	kind, readOnly := g.turn()
	p := g.pairs[g.r.intn(len(g.pairs))]
	return append(buf[:0], call{kind: callBegin}, call{kind: kind, key: p[0]},
		call{kind: kind, key: p[1]}, call{kind: callCommit}), readOnly
}

// crossShardPairs returns n ascending key pairs from [base, ...) whose two
// keys the default router places on different shards.
func crossShardPairs(base uint64, n, shards int) [][2]uint64 {
	pairs := make([][2]uint64, 0, n)
	for k := base; len(pairs) < n; k += 2 {
		a, b := k, k+1
		if (shard.HashRouter{}).Route(wal.ObjectID(a), shards) != (shard.HashRouter{}).Route(wal.ObjectID(b), shards) {
			pairs = append(pairs, [2]uint64{a, b})
		}
	}
	return pairs
}

// Metering's shape: a worker transaction per usage event, all of whose
// updates are delegated to the client's billing transaction.
const (
	meterCounters    = 64
	meterReceipts    = 256
	meterKeysPerUser = meterCounters + meterReceipts
	meterBillEvery   = 64 // events per billing transaction
	meterBillAbort   = 16 // every 16th billing transaction aborts
	meterStatement   = 4  // counters read by the statement after a billing commit
)

// meterGen generates one client's usage events.  Receipt slots are used in
// rotation, not at random: the billing transaction holds the exclusive lock
// on every receipt delegated to it, so a slot may not repeat inside one
// billing window.  Counters take increment locks, which are compatible.
type meterGen struct {
	r        *rng
	base     uint64 // first counter; receipts follow the counters
	events   int
	bills    int
	readNext bool
	keys     []uint64
}

func (g *meterGen) next(buf []call) ([]call, bool) {
	if g.readNext {
		// The statement: read a few of the tenant's counters right after
		// a billing transaction ended, when no lock is held on them.
		g.readNext = false
		g.keys = pickDistinct(g.r, g.keys, meterStatement, g.base, meterCounters)
		buf = append(buf[:0], call{kind: callBegin})
		for _, k := range g.keys {
			buf = append(buf, call{kind: callRead, key: k})
		}
		return append(buf, call{kind: callCommit}), true
	}
	counter := g.base + uint64(g.r.intn(meterCounters))
	receipt := g.base + meterCounters + uint64(g.events%meterReceipts)
	end := callCommit
	if g.r.intn(10) == 0 {
		end = callAbort
	}
	g.events++
	buf = append(buf[:0], call{kind: callBegin}, call{kind: callIncrement, key: counter},
		call{kind: callUpdate, key: receipt}, call{kind: callDelegateAll}, call{kind: end})
	if g.events%meterBillEvery == 0 {
		g.bills++
		if g.bills%meterBillAbort == 0 {
			buf = append(buf, call{kind: callBillAbort})
		} else {
			buf = append(buf, call{kind: callBillCommit})
		}
		g.readNext = true
	}
	return buf, false
}

// streamHash hashes the first n calls a generator produces: the fingerprint
// the determinism test compares across runs of one seed.
func streamHash(g generator, n int) uint64 {
	h := fnv.New64a()
	var buf []call
	var b [9]byte
	for n > 0 {
		buf, _ = g.next(buf)
		for _, c := range buf {
			if n == 0 {
				break
			}
			b[0] = byte(c.kind)
			binary.LittleEndian.PutUint64(b[1:], c.key)
			h.Write(b[:])
			n--
		}
	}
	return h.Sum64()
}
