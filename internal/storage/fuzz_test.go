package storage

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalPage checks that decoding into a page that already holds
// data never panics, that a rejected image leaves the page unchanged, and
// that an accepted image re-encodes stably.  fixCRC recomputes the
// checksum of a PageSize input so the fuzzer reaches the structural
// checks behind it.
func FuzzUnmarshalPage(f *testing.F) {
	src := &Page{LSN: 9}
	src.Slots[0] = Slot{Used: true, Object: 1, Value: []byte("seed")}
	src.Slots[SlotsPerPage-1] = Slot{Used: true, Object: 2, Value: bytes.Repeat([]byte{7}, MaxValueSize)}
	seed := image(f, src)
	f.Add(seed, false)
	f.Add(seed[:PageSize/2], false)
	f.Add([]byte{}, false)
	f.Add(make([]byte, PageSize), true)

	f.Fuzz(func(t *testing.T, data []byte, fixCRC bool) {
		if fixCRC && len(data) == PageSize {
			data = withCRC(append([]byte(nil), data...))
		}
		p, err := UnmarshalPage(seed)
		if err != nil {
			t.Fatal(err)
		}
		before := *p // its Values still point into p's rows
		if err := p.Unmarshal(data); err != nil {
			if !samePage(p, &before) {
				t.Fatalf("rejected image (%v) changed the page", err)
			}
			return
		}
		for i := range p.Slots {
			if v := p.Slots[i].Value; len(v) > MaxValueSize || cap(v) != MaxValueSize {
				t.Fatalf("slot %d value len %d cap %d", i, len(v), cap(v))
			}
		}
		re := image(t, p)
		again, err := UnmarshalPage(re)
		if err != nil {
			t.Fatalf("accepted page does not re-decode: %v", err)
		}
		if !bytes.Equal(image(t, again), re) {
			t.Fatal("re-encoding unstable")
		}
	})
}
