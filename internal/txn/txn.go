// Package txn implements the transaction table (the paper's Tr_List, §3.4):
// for each transaction its status and the head of its backward chain (the
// LSN of the most recent record written on its behalf), plus the
// winner/loser marking recovery uses.
package txn

import (
	"fmt"
	"sort"
	"sync"

	"ariesrh/internal/wal"
)

// Status is a transaction's lifecycle state.
type Status int

// Transaction states.
const (
	// Active transactions may update, delegate, commit or abort.
	Active Status = iota
	// Committed transactions have a durable commit record.
	Committed
	// Aborted transactions have been rolled back.
	Aborted
	// Prepared transactions are in-doubt participants of a cross-shard
	// transaction (internal/shard's per-shard-logged 2PC): a durable
	// prepare record pins them, and only the coordinator shard's
	// decision — or presumed abort when the coordinator has none —
	// resolves them to Committed or Aborted.  Recovery classifies them
	// as neither winner nor loser: their effects stay redone and
	// un-undone until resolution.
	Prepared
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Active:
		return "active"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	case Prepared:
		return "prepared"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Info is one transaction-table entry.
type Info struct {
	// ID is the transaction's identifier.
	ID wal.TxID
	// Status is the lifecycle state.
	Status Status
	// LastLSN is the head of the transaction's backward chain: the LSN
	// of the most recent log record written on its behalf.
	LastLSN wal.LSN
	// UndoNextLSN is the next record to undo during rollback (advanced
	// past already-compensated records by CLRs).
	UndoNextLSN wal.LSN
	// Horizon is the newest commit record, not durable when seen, of an
	// early lock release whose data this transaction read or overwrote,
	// or took over by delegation (NilLSN if none).  A transaction that
	// never logs is acknowledged only once the log is durable through
	// it; a logged one's own commit record follows it anyway.
	Horizon wal.LSN
}

// Table is the transaction table.  It is safe for concurrent use.
type Table struct {
	mu   sync.Mutex
	m    map[wal.TxID]*Info
	next wal.TxID
}

// NewTable returns an empty transaction table.
func NewTable() *Table {
	return &Table{m: make(map[wal.TxID]*Info), next: 1}
}

// Begin allocates a fresh transaction ID and inserts an Active entry.
func (t *Table) Begin() *Info {
	t.mu.Lock()
	defer t.mu.Unlock()
	info := &Info{ID: t.next, Status: Active}
	t.next++
	t.m[info.ID] = info
	return info
}

// Register inserts an entry with a specific ID (used by recovery when
// rebuilding the table from begin records).  Registering an existing ID
// returns the existing entry.
func (t *Table) Register(id wal.TxID) *Info {
	t.mu.Lock()
	defer t.mu.Unlock()
	if info, ok := t.m[id]; ok {
		return info
	}
	info := &Info{ID: id, Status: Active}
	t.m[id] = info
	if id >= t.next {
		t.next = id + 1
	}
	return info
}

// Get returns the entry for id, or nil.
func (t *Table) Get(id wal.TxID) *Info {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[id]
}

// Remove deletes the entry for id (once its commit or abort completes).
func (t *Table) Remove(id wal.TxID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.m, id)
}

// Snapshot returns copies of all entries ordered by ID (checkpointing).
func (t *Table) Snapshot() []Info {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Info, 0, len(t.m))
	for _, info := range t.m {
		out = append(out, *info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Active returns the IDs of all active transactions, ordered.
func (t *Table) Active() []wal.TxID {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []wal.TxID
	for id, info := range t.m {
		if info.Status == Active {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Reset clears the table, optionally seeding the next transaction ID so
// post-recovery transactions do not reuse IDs present in the log.
func (t *Table) Reset(nextID wal.TxID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m = make(map[wal.TxID]*Info)
	if nextID < 1 {
		nextID = 1
	}
	t.next = nextID
}

// Len returns the number of entries.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}
