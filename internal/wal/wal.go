// Package wal implements the write-ahead log used by every recovery engine
// in this repository: the ARIES/RH engine (internal/core), the plain ARIES
// baseline (internal/aries), the naïve history-rewriting baselines
// (internal/rewrite) and, in per-transaction form, the EOS-style engine
// (internal/eos).
//
// The log is an append-only sequence of typed records identified by
// monotonically increasing log sequence numbers (LSNs).  Records of one
// transaction are linked into a backward chain (BC) through their PrevLSN
// fields; delegate records additionally carry the backward-chain heads of
// both the delegator and the delegatee (fields torBC/teeBC in Figure 6 of
// the paper).
//
// Crash semantics are simulated, never process-fatal: records appended but
// not yet flushed live only in volatile memory and are discarded by
// (*Log).Crash, mirroring the loss of the in-memory log tail on a real
// failure.  Every access path bumps a counter in the log's obs registry
// (wal.appends, wal.flushes, wal.reads, ...; see Log.Instrument), so the
// owning engine's Metrics snapshot reports log I/O in the units the paper
// argues in.
package wal

import "fmt"

// LSN is a log sequence number.  LSNs are dense 1-based sequence numbers:
// the n-th record appended to a log has LSN n.  The zero value NilLSN never
// names a record and is used as the end marker of backward chains.
type LSN uint64

// NilLSN is the null log sequence number, used to terminate backward chains
// and to mean "no record".
const NilLSN LSN = 0

// TxID identifies a transaction.  The zero value is reserved and never
// assigned to a live transaction.
type TxID uint32

// NilTx is the reserved, never-assigned transaction ID.
const NilTx TxID = 0

// ObjectID identifies a database object (the unit of delegation in this
// implementation, per §2.1.2 of the paper: delegating an object delegates
// the delegator's operations on that object).
type ObjectID uint64

// RecordType discriminates log record kinds.
type RecordType uint8

// Log record types.  TypeDelegate is the record type introduced by the
// paper (§3.4, Figure 6); all others are conventional ARIES record types.
const (
	TypeInvalid RecordType = iota
	// TypeBegin marks the start of a transaction.
	TypeBegin
	// TypeUpdate records an in-place object update with before and after
	// images (physical UNDO/REDO logging).
	TypeUpdate
	// TypeCLR is a compensation log record written when an update is
	// undone, carrying UndoNextLSN so undo work is never repeated.
	TypeCLR
	// TypeDelegate records delegate(tor, tee, object): the transfer of
	// responsibility for tor's updates to object over to tee.
	TypeDelegate
	// TypeCommit marks transaction commit; the log must be flushed
	// through this record before the commit is acknowledged.  It is the
	// transaction's last record.
	TypeCommit
	// TypeAbort marks a completed rollback: it follows the last CLR and
	// is the transaction's last record.
	TypeAbort
	// TypeEnd marked the completion of commit or rollback processing.
	// ARIES/RH and the ARIES baseline no longer write it — a commit or
	// abort record ends its transaction's chain — but it is still decoded
	// and analysed, so logs, backups and standbys written before that
	// change recover.  Only the naïve rewriting baselines still append it.
	TypeEnd
	// TypeCheckpointBegin and TypeCheckpointEnd bracket a fuzzy
	// checkpoint; the end record carries the serialized transaction
	// table, dirty page table and delegation state.
	TypeCheckpointBegin
	TypeCheckpointEnd
	// TypeIncrement records a commutative counter increment with a
	// logical (delta) description: undo applies the negated delta, so
	// increments by different transactions may interleave on one object
	// (the paper's "not all update operations conflict", §2.1.1, and
	// the counter example of §3.4).
	TypeIncrement
	// TypePrepare marks a local transaction as an in-doubt participant
	// of the cross-shard transaction GID (internal/shard's per-shard-
	// logged 2PC).  The record rides the participant shard's own log and
	// must be flushed before the participant votes yes; after a crash an
	// analyzed Prepare without a following commit/abort leaves the
	// transaction in-doubt until the coordinator shard is asked for the
	// decision (presumed abort when the coordinator has none).
	TypePrepare
	// TypeDelegateOut records the home-shard half of a cross-shard
	// delegation: like TypeDelegate it transfers responsibility between
	// two local transactions on this shard's log, and additionally names
	// the global transaction (GID) and coordinator shard of the
	// delegatee so the cross-shard history can be audited from any one
	// shard's log.  Cluster undo remains local to this shard.
	TypeDelegateOut
	// TypeDelegateIn is the acquirer-side bookkeeping half of a
	// cross-shard delegation, logged on the delegatee's coordinator
	// shard.  It carries no state change — redo and undo both skip it —
	// and exists so the coordinator shard's log records that the global
	// transaction took responsibility for an object homed elsewhere.
	TypeDelegateIn
	// TypeDelegateSet records delegate(tor, tee) over a set of objects —
	// the join and nested-commit form of §2.2 — as one record: one
	// tor/tee pair and one pair of backward-chain heads serve the whole
	// set (Objects), which moves exactly as that many TypeDelegate
	// records at the same LSN would move it.
	TypeDelegateSet
)

// String returns the conventional short name of the record type.
func (t RecordType) String() string {
	switch t {
	case TypeBegin:
		return "begin"
	case TypeUpdate:
		return "update"
	case TypeCLR:
		return "clr"
	case TypeDelegate:
		return "delegate"
	case TypeCommit:
		return "commit"
	case TypeAbort:
		return "abort"
	case TypeEnd:
		return "end"
	case TypeCheckpointBegin:
		return "ckpt-begin"
	case TypeCheckpointEnd:
		return "ckpt-end"
	case TypeIncrement:
		return "increment"
	case TypePrepare:
		return "prepare"
	case TypeDelegateOut:
		return "delegate-out"
	case TypeDelegateIn:
		return "delegate-in"
	case TypeDelegateSet:
		return "delegate-set"
	default:
		return fmt.Sprintf("invalid(%d)", uint8(t))
	}
}

// Record is a single log record.  One struct covers all record types; the
// per-type encoders serialize only the fields meaningful for the type.
type Record struct {
	// LSN is assigned by (*Log).Append and identifies the record.
	LSN LSN
	// Type discriminates the record kind.
	Type RecordType
	// TxID is the transaction on whose behalf the record was written.
	// For delegate records this is the delegator.  The naïve rewriting
	// baselines mutate this field in place — that is precisely the
	// "rewriting history" the paper's RH algorithm avoids.
	TxID TxID
	// PrevLSN links the record into TxID's backward chain.
	PrevLSN LSN

	// Object, Before and After are set on update records; CLRs reuse
	// Object and Before (the image being restored).
	Object ObjectID
	Before []byte
	After  []byte

	// UndoNextLSN (CLR only) is the next record of the transaction to
	// undo; Compensates is the LSN of the update this CLR undoes.
	UndoNextLSN LSN
	Compensates LSN

	// Delegate-record fields (Figure 6 of the paper).  Tor duplicates
	// TxID; TorPrev and TeePrev are the backward-chain heads of the
	// delegator and delegatee at the time of the delegation.  A
	// delegate-set record does not store Tor and TorPrev: its header's
	// TxID and PrevLSN are them, and decoding fills both in.
	Tor     TxID
	Tee     TxID
	TorPrev LSN
	TeePrev LSN

	// Objects is the delegated set of a delegate-set record, strictly
	// ascending.  Read it, and a delegate record's Object, through
	// Delegated.
	Objects []ObjectID

	// Payload carries opaque data for checkpoint-end records.
	Payload []byte

	// Delta is the signed amount of an increment record; on a CLR it is
	// the (negated) logical compensation of an undone increment, in
	// which case Logical is set and Before is unused.
	Delta   int64
	Logical bool

	// Cross-shard fields (prepare, delegate-out and delegate-in
	// records).  GID is the cluster-wide id of the distributed
	// transaction; Shard names the peer shard involved: the coordinator
	// shard on prepare records, the delegatee's coordinator shard on
	// delegate-out records, and the object's home shard on delegate-in
	// records.
	GID   uint64
	Shard uint32
}

// IsUndoable reports whether the record represents a change that the undo
// pass may need to roll back.
func (r *Record) IsUndoable() bool { return r.Type == TypeUpdate || r.Type == TypeIncrement }

// Delegated returns the objects whose responsibility the record moves
// from Tor to Tee: the Object of a delegate or delegate-out record, the
// Objects of a delegate-set record, and nil for every other type.  Every
// reader of delegations goes through it, so one loop body serves both
// forms.  The slice is not to be modified.
func (r *Record) Delegated() []ObjectID {
	switch r.Type {
	case TypeDelegate, TypeDelegateOut:
		return []ObjectID{r.Object}
	case TypeDelegateSet:
		return r.Objects
	}
	return nil
}

// String renders the record compactly, in the style of the paper's figures,
// e.g. "102 update[t2, 7]", "106 delegate(t1 -> t2, 7)" or
// "107 delegate-set(t1 -> t2, [7 9])".
func (r *Record) String() string {
	switch r.Type {
	case TypeUpdate:
		return fmt.Sprintf("%d update[t%d, %d]", r.LSN, r.TxID, r.Object)
	case TypeIncrement:
		return fmt.Sprintf("%d increment[t%d, %d, %+d]", r.LSN, r.TxID, r.Object, r.Delta)
	case TypeCLR:
		return fmt.Sprintf("%d clr[t%d, %d undoNext=%d]", r.LSN, r.TxID, r.Object, r.UndoNextLSN)
	case TypeDelegate:
		return fmt.Sprintf("%d delegate(t%d -> t%d, %d)", r.LSN, r.Tor, r.Tee, r.Object)
	case TypeDelegateSet:
		return fmt.Sprintf("%d delegate-set(t%d -> t%d, %v)", r.LSN, r.Tor, r.Tee, r.Objects)
	case TypePrepare:
		return fmt.Sprintf("%d prepare[t%d, gid=%d coord=%d]", r.LSN, r.TxID, r.GID, r.Shard)
	case TypeDelegateOut:
		return fmt.Sprintf("%d delegate-out(t%d -> t%d, %d gid=%d peer=%d)", r.LSN, r.Tor, r.Tee, r.Object, r.GID, r.Shard)
	case TypeDelegateIn:
		return fmt.Sprintf("%d delegate-in[t%d, %d gid=%d home=%d]", r.LSN, r.TxID, r.Object, r.GID, r.Shard)
	default:
		return fmt.Sprintf("%d %s(t%d)", r.LSN, r.Type, r.TxID)
	}
}
