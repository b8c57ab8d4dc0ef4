package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"ariesrh"
	"ariesrh/internal/core"
	"ariesrh/internal/obs"
	"ariesrh/internal/shard"
)

// valueSize is the size of every value written: 64 of the 112 bytes a slot
// holds.
const valueSize = 64

// txAPI and dbAPI are the parts of the public API the executor drives.
// *ariesrh.Tx and *ariesrh.DB satisfy them, and so do *shard.Txn and
// *shard.DB, which the traced pass of cross_shard opens directly because
// ariesrh.Options has no per-shard log directory to wrap.
type txAPI interface {
	Read(ariesrh.ObjectID) ([]byte, error)
	Update(ariesrh.ObjectID, []byte) error
	Increment(ariesrh.ObjectID, int64) (int64, error)
	Commit() error
	Abort() error
}

type dbAPI interface {
	Checkpoint() error
	Crash() error
	Recover() error
	WaitRecovered() error
	ReadCommitted(ariesrh.ObjectID) ([]byte, bool, error)
	CounterValue(ariesrh.ObjectID) (int64, error)
	Metrics() obs.Snapshot
	LastRecoveryTrace() core.RecoveryTrace
	Close() error
}

// database is an open database plus the way to begin a transaction on it
// (Begin's return type is the one thing the two implementations disagree
// on).
type database struct {
	dbAPI
	begin func() (txAPI, error)
}

func wrapDB(db *ariesrh.DB) *database {
	return &database{dbAPI: db, begin: func() (txAPI, error) { return db.Begin() }}
}

func wrapShardDB(db *shard.DB) *database {
	return &database{dbAPI: db, begin: func() (txAPI, error) { return db.Begin() }}
}

// makeValue fills val with the value client c's seq-th write stores under
// key: self-describing, so a reader can tell a value that some write
// produced from anything else, and cheap, so generation does not show in
// the numbers.
func makeValue(val []byte, key uint64, c int, seq uint64) {
	binary.LittleEndian.PutUint64(val[0:], key)
	binary.LittleEndian.PutUint64(val[8:], uint64(c))
	binary.LittleEndian.PutUint64(val[16:], seq)
	x := key*0x9E3779B97F4A7C15 ^ seq*0xBF58476D1CE4E5B9 ^ uint64(c)
	for off := 24; off < valueSize; off += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(val[off:], x)
	}
}

// parseValue checks that val is a value makeValue produced for key and
// returns who wrote it.
func parseValue(val []byte, key uint64) (c int, seq uint64, ok bool) {
	if len(val) != valueSize || binary.LittleEndian.Uint64(val) != key {
		return 0, 0, false
	}
	c = int(binary.LittleEndian.Uint64(val[8:]))
	seq = binary.LittleEndian.Uint64(val[16:])
	var want [valueSize]byte
	makeValue(want[:], key, c, seq)
	return c, seq, bytes.Equal(val, want[:])
}

// slot is what one client knows about one key: the sequence number of its
// last acknowledged write, and when that transaction started and was
// acknowledged (the oracle orders two clients' writes by these).
type slot struct {
	seq        uint64
	start, ack int64
}

// shadow is one client's record of what it was acknowledged: the oracle
// compares the database against the shadows of all clients.
type shadow struct {
	slots    []slot  // by key
	counters []int64 // by key: sum of billed increments
}

func newShadow(maxKey uint64) *shadow {
	return &shadow{slots: make([]slot, maxKey+1), counters: make([]int64, maxKey+1)}
}

// apply records writes whose transaction was acknowledged at time ack.
func (s *shadow) apply(writes []pendingWrite, ack int64) {
	for _, w := range writes {
		if w.delta != 0 {
			s.counters[w.key] += w.delta
		} else {
			s.slots[w.key] = slot{seq: w.seq, start: w.start, ack: ack}
		}
	}
}

// pendingWrite is an update or increment delegated to a billing transaction
// that has not terminated yet.
type pendingWrite struct {
	key   uint64
	seq   uint64
	delta int64
	start int64
}

// acc collects one client's samples for one slice.
type acc struct {
	txn, read  hist  // latency of committed write / read-only transactions
	late       hist  // open loop: how late each event was started
	commits    int64 // committed write transactions
	calls      int64 // API calls made
	failed     int64 // API calls that returned an error, bad reads
	busyNs     int64 // time spent generating and executing transactions
	backlogMax int64 // open loop: most events due but not yet claimed
}

// client is one load-generating goroutine's state.
type client struct {
	id     int
	db     *database
	gen    generator
	sh     *shadow
	seqs   []atomic.Uint64 // every client's write counter, for read checks
	tr     *tracer         // nil in the timed pass
	clock  func() int64
	seq    uint64
	val    [valueSize]byte
	buf    []call
	writes []pendingWrite // the current transaction's writes
	bill   txAPI          // metering: the open billing transaction
	billed []pendingWrite // metering: writes delegated to bill
}

// ensureBill begins the client's billing transaction if it has none.
func (c *client) ensureBill() error {
	if c.bill != nil {
		return nil
	}
	b, err := c.db.begin()
	if err != nil {
		return fmt.Errorf("begin billing: %w", err)
	}
	c.bill = b
	return nil
}

// dropVolatile forgets what a crash destroys: the open billing transaction
// and the writes delegated to it.
func (c *client) dropVolatile() {
	c.bill = nil
	c.billed = c.billed[:0]
}

// exec runs one generated transaction.  t0 is the instant its latency is
// measured from (the due time in an open loop, otherwise now); it returns
// whether the transaction committed.  Every error counts in a.failed; the
// transaction is aborted and the run goes on.
func (c *client) exec(calls []call, t0 int64, a *acc) (committed bool) {
	var tx txAPI
	var err error
	c.writes = c.writes[:0]
	parent := c.tr.beginTxn()
	for _, cl := range calls {
		a.calls++
		switch cl.kind {
		case callBegin:
			tx, err = c.db.begin()
		case callUpdate:
			c.seq++
			c.seqs[c.id].Store(c.seq)
			makeValue(c.val[:], cl.key, c.id, c.seq)
			err = tx.Update(ariesrh.ObjectID(cl.key), c.val[:])
			c.writes = append(c.writes, pendingWrite{key: cl.key, seq: c.seq, start: t0})
		case callRead:
			var v []byte
			v, err = tx.Read(ariesrh.ObjectID(cl.key))
			if err == nil && !c.plausible(v, cl.key) {
				err = fmt.Errorf("read of key %d returned a value no write produced", cl.key)
			}
		case callIncrement:
			delta := int64(cl.key%7 + 1)
			_, err = tx.Increment(ariesrh.ObjectID(cl.key), delta)
			c.writes = append(c.writes, pendingWrite{key: cl.key, delta: delta, start: t0})
		case callDelegateAll:
			if err = c.ensureBill(); err == nil {
				err = tx.(*ariesrh.Tx).DelegateAll(c.bill.(*ariesrh.Tx))
			}
			if err == nil {
				// The billing transaction now decides these writes' fate,
				// whatever the worker does next.
				c.billed = append(c.billed, c.writes...)
				c.writes = c.writes[:0]
			}
		case callCommit:
			err = tx.Commit()
			if err == nil {
				committed = true
				c.sh.apply(c.writes, c.clock())
			}
		case callAbort:
			err = tx.Abort()
		case callBillCommit:
			if err = c.bill.Commit(); err == nil {
				c.sh.apply(c.billed, c.clock())
			}
			c.dropVolatile()
		case callBillAbort:
			err = c.bill.Abort()
			c.dropVolatile()
		}
		c.tr.call(cl.kind, parent)
		if err != nil {
			a.failed++
			if verbose {
				fmt.Printf("client %d: call %d on key %d: %v\n", c.id, cl.kind, cl.key, err)
			}
			if cl.kind < callCommit { // the transaction cannot go on
				if tx != nil {
					_ = tx.Abort() // release its locks; the error is already counted
				}
				break
			}
		}
	}
	c.tr.endTxn(parent)
	return committed
}

// plausible reports whether v, read under key, is a value some write
// produced: well-formed, and not from a write its client has yet to issue.
func (c *client) plausible(v []byte, key uint64) bool {
	if len(v) == 8 {
		return true // a counter
	}
	w, seq, ok := parseValue(v, key)
	return ok && w >= 0 && w < len(c.seqs) && seq <= c.seqs[w].Load()
}

// monoClock returns a clock reading nanoseconds since its creation.
func monoClock() func() int64 {
	base := time.Now()
	return func() int64 { return int64(time.Since(base)) }
}
