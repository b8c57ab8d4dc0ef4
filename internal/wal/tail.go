package wal

import (
	"errors"
	"fmt"
)

// ErrSubscriptionClosed is returned by Subscription.Next once the
// subscription has been closed — explicitly via Close, or implicitly by
// (*Log).Crash (a process failure severs replication connections).
var ErrSubscriptionClosed = errors.New("wal: subscription closed")

// Subscription is a tailing cursor over the durable prefix of a Log: it
// delivers flushed records in strict LSN order, blocking until the
// durable horizon advances, and pins log retention so Archive never
// discards a record the subscriber has not acknowledged.
//
// The replication primary holds one Subscription per attached replica:
// Next feeds the shipping loop, Ack follows the replica's durability
// acknowledgements, and the pin guarantees a briefly disconnected (but
// still attached) replica can always resume from its cursor.
//
// A Subscription is safe for concurrent use (Next from a shipping
// goroutine, Ack/Close from an acknowledgement reader).
type Subscription struct {
	l      *Log
	cursor LSN // next LSN Next will deliver (guarded by l.mu)
	pin    LSN // oldest LSN Archive must retain (guarded by l.mu)
	closed bool
	err    error
}

// Subscribe opens a tailing cursor whose first delivered record is from.
// The records from onward are pinned against Archive until acknowledged
// (see Ack) or the subscription is closed.  Subscribing at or below the
// archived base fails with ErrArchived: those records are gone, the
// subscriber needs a snapshot bootstrap instead.  from may point past the
// current head; delivery then starts once the log grows and flushes that
// far.  Subscribing at NilLSN tails from the oldest retained record.
func (l *Log) Subscribe(from LSN) (*Subscription, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from == NilLSN {
		from = l.base + 1
	}
	if from <= l.base {
		return nil, errArchived(from, l.base)
	}
	s := &Subscription{l: l, cursor: from, pin: from}
	l.subs[s] = struct{}{}
	return s, nil
}

// Next blocks until at least one durable record at or past the cursor
// exists, then returns up to max of them (max <= 0 means no bound) in
// LSN order and advances the cursor.  The returned records are freshly
// decoded and belong to the caller.  It returns an error wrapping
// ErrSubscriptionClosed once the subscription is closed; records
// delivered before the close remain valid.
func (s *Subscription) Next(max int) ([]*Record, error) {
	l := s.l
	l.mu.Lock()
	defer l.mu.Unlock()
	for !s.closed && s.cursor > l.flushedLSN {
		l.tailCond.Wait()
	}
	if s.closed {
		return nil, s.err
	}
	if s.cursor <= l.base {
		// Cannot happen while the pin holds (Archive clamps to pin-1 and
		// pin <= cursor); defensive.
		return nil, errArchived(s.cursor, l.base)
	}
	end := l.flushedLSN
	if max > 0 && end-s.cursor+1 > LSN(max) {
		end = s.cursor + LSN(max) - 1
	}
	out := make([]*Record, 0, end-s.cursor+1)
	for lsn := s.cursor; lsn <= end; lsn++ {
		// The pin kept every LSN >= cursor live, so the frame is there.
		r, err := decodeFrame(lsn, l.frameAtLocked(lsn))
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	s.cursor = end + 1
	return out, nil
}

// Ack records that the subscriber has made every record with LSN <= upTo
// durable on its side: the retention pin advances past them and Archive
// may discard them.  Acks are monotonic; a stale (lower) upTo is a no-op.
func (s *Subscription) Ack(upTo LSN) {
	s.l.mu.Lock()
	defer s.l.mu.Unlock()
	if upTo+1 > s.pin {
		s.pin = upTo + 1
	}
}

// Pin returns the oldest LSN the subscription currently pins against
// Archive (NilLSN once closed).
func (s *Subscription) Pin() LSN {
	s.l.mu.Lock()
	defer s.l.mu.Unlock()
	if s.closed {
		return NilLSN
	}
	return s.pin
}

// Close releases the subscription and its retention pin; a blocked Next
// returns ErrSubscriptionClosed.  Close is idempotent.
func (s *Subscription) Close() {
	s.l.mu.Lock()
	defer s.l.mu.Unlock()
	s.closeLocked(fmt.Errorf("%w by subscriber", ErrSubscriptionClosed))
}

func (s *Subscription) closeLocked(err error) {
	if s.closed {
		return
	}
	s.closed = true
	s.err = err
	delete(s.l.subs, s)
	s.l.tailCond.Broadcast()
}

// closeAllSubsLocked closes every live subscription with err; the caller
// holds l.mu.
func (l *Log) closeAllSubsLocked(err error) {
	for s := range l.subs {
		s.closeLocked(err)
	}
}

// minPinLocked returns the lowest retention pin across live
// subscriptions (NilLSN if there are none); the caller holds l.mu.
func (l *Log) minPinLocked() LSN {
	min := NilLSN
	for s := range l.subs {
		if min == NilLSN || s.pin < min {
			min = s.pin
		}
	}
	return min
}
