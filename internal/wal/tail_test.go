package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestSubscribeDeliversFlushedRecordsInOrder(t *testing.T) {
	l := newMemLog(t)
	for i := 1; i <= 5; i++ {
		mustAppend(t, l, &Record{Type: TypeUpdate, TxID: 1, Object: ObjectID(i)})
	}
	if err := l.Flush(3); err != nil {
		t.Fatal(err)
	}
	sub, err := l.Subscribe(1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	recs, err := sub.Next(0)
	if err != nil {
		t.Fatal(err)
	}
	// Only the durable prefix is delivered; LSNs 4-5 are volatile tail.
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if r.LSN != LSN(i+1) || r.Object != ObjectID(i+1) {
			t.Fatalf("record %d = %v", i, r)
		}
	}
	// Flushing more wakes a blocked Next.
	done := make(chan []*Record, 1)
	go func() {
		recs, err := sub.Next(0)
		if err != nil {
			t.Error(err)
		}
		done <- recs
	}()
	time.Sleep(10 * time.Millisecond) // let the goroutine block
	if err := l.Flush(5); err != nil {
		t.Fatal(err)
	}
	recs = <-done
	if len(recs) != 2 || recs[0].LSN != 4 || recs[1].LSN != 5 {
		t.Fatalf("tail delivery = %v", recs)
	}
}

func TestSubscribeNextHonorsMax(t *testing.T) {
	l := newMemLog(t)
	for i := 1; i <= 6; i++ {
		mustAppend(t, l, &Record{Type: TypeUpdate, TxID: 1, Object: ObjectID(i)})
	}
	if err := l.Flush(6); err != nil {
		t.Fatal(err)
	}
	sub, err := l.Subscribe(NilLSN)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for want := LSN(1); want <= 6; want += 2 {
		recs, err := sub.Next(2)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 || recs[0].LSN != want {
			t.Fatalf("batch at %d = %v", want, recs)
		}
	}
}

func TestSubscribePinBlocksArchive(t *testing.T) {
	l := newMemLog(t)
	for i := 1; i <= 10; i++ {
		mustAppend(t, l, &Record{Type: TypeUpdate, TxID: 1, Object: ObjectID(i)})
	}
	if err := l.Flush(10); err != nil {
		t.Fatal(err)
	}
	sub, err := l.Subscribe(1)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing acknowledged: Archive may discard nothing.
	if err := l.Archive(8); err != nil {
		t.Fatal(err)
	}
	if l.Base() != 0 {
		t.Fatalf("archive ignored the pin: base = %d", l.Base())
	}
	// Acks release the prefix, and only the prefix.
	sub.Ack(4)
	if err := l.Archive(8); err != nil {
		t.Fatal(err)
	}
	if l.Base() != 4 {
		t.Fatalf("base = %d, want 4 (acked LSN)", l.Base())
	}
	if _, err := l.Get(5); err != nil {
		t.Fatalf("unacked record archived: %v", err)
	}
	// Closing drops the pin entirely.
	sub.Close()
	if err := l.Archive(8); err != nil {
		t.Fatal(err)
	}
	if l.Base() != 8 {
		t.Fatalf("base after close = %d", l.Base())
	}
}

func TestSubscribeBelowBaseNeedsSnapshot(t *testing.T) {
	l := newMemLog(t)
	for i := 1; i <= 4; i++ {
		mustAppend(t, l, &Record{Type: TypeUpdate, TxID: 1, Object: ObjectID(i)})
	}
	if err := l.Flush(4); err != nil {
		t.Fatal(err)
	}
	if err := l.Archive(3); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Subscribe(2); !errors.Is(err, ErrArchived) {
		t.Fatalf("Subscribe(2) err = %v, want ErrArchived", err)
	}
	// NilLSN tails from the oldest retained record.
	sub, err := l.Subscribe(NilLSN)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	recs, err := sub.Next(1)
	if err != nil || len(recs) != 1 || recs[0].LSN != 4 {
		t.Fatalf("Next = %v, %v", recs, err)
	}
}

func TestSubscriptionClosedByCloseAndCrash(t *testing.T) {
	l := newMemLog(t)
	sub, err := l.Subscribe(1)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := sub.Next(0)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	sub.Close()
	if err := <-errc; !errors.Is(err, ErrSubscriptionClosed) {
		t.Fatalf("Next after Close = %v", err)
	}
	sub.Close() // idempotent

	// Crash closes every live subscription.
	sub2, err := l.Subscribe(1)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_, err := sub2.Next(0)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := l.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; !errors.Is(err, ErrSubscriptionClosed) {
		t.Fatalf("Next after Crash = %v", err)
	}
	if pin := sub2.Pin(); pin != NilLSN {
		t.Fatalf("closed subscription still pins %d", pin)
	}
}

func TestSubscribeDeliveredUnderGroupFlush(t *testing.T) {
	// Records made durable by the group-commit leader (FlushAsync) must
	// reach subscribers exactly like synchronous flushes.
	l := newMemLog(t)
	sub, err := l.Subscribe(1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	const n = 20
	for i := 1; i <= n; i++ {
		mustAppend(t, l, &Record{Type: TypeUpdate, TxID: 1, Object: ObjectID(i)})
	}
	if err := <-l.FlushAsync(LSN(n)); err != nil {
		t.Fatal(err)
	}
	var got []LSN
	for len(got) < n {
		recs, err := sub.Next(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			got = append(got, r.LSN)
		}
	}
	for i, lsn := range got {
		if lsn != LSN(i+1) {
			t.Fatalf("delivery order broken at %d: %v", i, got)
		}
	}
}

// TestErrArchivedMessageShape pins the one wrap format every archived-LSN
// path shares: Get, and Scan, which reads through the same path.
func TestErrArchivedMessageShape(t *testing.T) {
	l := newMemLog(t)
	for i := 1; i <= 5; i++ {
		mustAppend(t, l, &Record{Type: TypeUpdate, TxID: 1, Object: ObjectID(i)})
	}
	if err := l.Flush(5); err != nil {
		t.Fatal(err)
	}
	if err := l.Archive(2); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%s: lsn 1 <= base 2", ErrArchived.Error())
	_, getErr := l.Get(1)
	scanErr := l.Scan(NilLSN, NilLSN, func(r *Record) (bool, error) {
		// Archive under the scanner's feet: the next iteration reads an
		// archived LSN through the Get path.
		return true, l.Archive(4)
	})
	for name, err := range map[string]error{"Get": getErr, "Scan": scanErr} {
		if err == nil || !errors.Is(err, ErrArchived) {
			t.Fatalf("%s err = %v, want ErrArchived", name, err)
		}
		if name != "Scan" && err.Error() != want {
			t.Fatalf("%s message = %q, want %q", name, err.Error(), want)
		}
	}
	// The Scan-path message differs only in the LSN/base values, not shape.
	if got := scanErr.Error(); got != fmt.Sprintf("%s: lsn 4 <= base 4", ErrArchived.Error()) {
		t.Fatalf("Scan message = %q", got)
	}
}

// TestArchiveRaceWithGroupFlushAndScan exercises Archive concurrently
// with the group-flush leader and concurrent Scans — the retention pin
// lands on this path.  Run under -race; correctness here is "no data
// race, no lost records above the base".
func TestArchiveRaceWithGroupFlushAndScan(t *testing.T) {
	l := newMemLog(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Appender + group committer: append a record, wait on the coalesced
	// flush, exactly as concurrent commits do.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lsn, err := l.Append(&Record{Type: TypeUpdate, TxID: TxID(w + 1), Object: ObjectID(i%8 + 1)})
				if err != nil {
					t.Error(err)
					return
				}
				if err := <-l.FlushAsync(lsn); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	// Archiver: repeatedly discard most of the durable prefix.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			flushed := l.FlushedLSN()
			if flushed > 4 {
				if err := l.Archive(flushed - 4); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	// Scanners: full scans racing both; ErrArchived mid-scan is the
	// expected face of the base moving underfoot and is tolerated.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				prev := NilLSN
				err := l.Scan(NilLSN, NilLSN, func(r *Record) (bool, error) {
					if prev != NilLSN && r.LSN != prev+1 {
						return false, fmt.Errorf("scan skipped: %d after %d", r.LSN, prev)
					}
					prev = r.LSN
					return true, nil
				})
				if err != nil && !errors.Is(err, ErrArchived) {
					t.Error(err)
					return
				}
			}
		}()
	}

	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Post-condition: everything above the base is intact and dense.
	base, head := l.Base(), l.Head()
	for lsn := base + 1; lsn <= head; lsn++ {
		if _, err := l.Get(lsn); err != nil {
			t.Fatalf("Get(%d) after race = %v (base %d head %d)", lsn, err, base, head)
		}
	}
}
