package wal

import (
	"fmt"
	"testing"
)

// failOpenDir wraps a Dir so Open of one specific name fails — an
// unreadable file, the failure mode pickManifest must fall back past.
type failOpenDir struct {
	Dir
	name string
}

func (d *failOpenDir) Open(name string) (Store, error) {
	if name == d.name {
		return nil, fmt.Errorf("injected open failure: %s", name)
	}
	return d.Dir.Open(name)
}

// TestPickManifestSkipsUnreadableGeneration pins recovery's fallback
// contract: a higher-generation manifest whose device cannot be opened
// or read is skipped like a torn one, so a single unreadable file does
// not block recovery when a valid older generation exists.
func TestPickManifestSkipsUnreadableGeneration(t *testing.T) {
	mem := NewMemDir()
	l, err := NewLog(mem)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3)
	if err := l.Flush(3); err != nil {
		t.Fatal(err)
	}
	goodGen := l.manifestGen

	// Plant a higher-generation manifest name whose device refuses to
	// open.
	badName := manifestName(goodGen + 7)
	mem.Put(badName, []byte("unreadable"))
	dir := &failOpenDir{Dir: mem, name: badName}

	names, err := dir.List()
	if err != nil {
		t.Fatal(err)
	}
	m, err := pickManifest(dir, names)
	if err != nil {
		t.Fatalf("pickManifest: %v", err)
	}
	if m == nil || m.gen != goodGen {
		t.Fatalf("pickManifest picked %+v, want gen %d", m, goodGen)
	}

	// A full reopen over the same directory recovers every record.
	l2, err := NewLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Head() != 3 {
		t.Fatalf("reopen head = %d, want 3", l2.Head())
	}
}

// TestPickManifestErrorsWhenNoGenerationUsable pins the other half of
// the fallback contract: when EVERY manifest generation is unreadable,
// pickManifest surfaces the error rather than returning nil — a nil
// would send Open down the fresh-init path and discard the directory.
func TestPickManifestErrorsWhenNoGenerationUsable(t *testing.T) {
	mem := NewMemDir()
	badName := manifestName(1)
	mem.Put(badName, []byte("unreadable"))
	dir := &failOpenDir{Dir: mem, name: badName}
	names, err := dir.List()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pickManifest(dir, names); err == nil {
		t.Fatal("pickManifest returned nil error with no usable generation")
	}
}

// TestFreshInitLeavesUnknownNamesAlone pins initFreshDir to the same
// namespace policy as sweepStrays: only seg-/manifest- files belong to
// the log; pointing a fresh log at a directory containing unrelated
// files must not delete them.
func TestFreshInitLeavesUnknownNamesAlone(t *testing.T) {
	mem := NewMemDir()
	mem.Put("notes.txt", []byte("user data, not the log's"))
	mem.Put(segmentName(3), nil) // headerless stray: swept
	l, err := NewLog(mem)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 2)
	if err := l.Flush(2); err != nil {
		t.Fatal(err)
	}
	names, err := mem.List()
	if err != nil {
		t.Fatal(err)
	}
	var sawNotes, sawStray bool
	for _, name := range names {
		if name == "notes.txt" {
			sawNotes = true
		}
		if name == segmentName(3) {
			sawStray = true
		}
	}
	if !sawNotes {
		t.Fatalf("fresh init deleted unknown file notes.txt (dir: %v)", names)
	}
	if sawStray {
		t.Fatalf("fresh init left headerless stray %s (dir: %v)", segmentName(3), names)
	}
}

func appendN(t *testing.T, l *Log, n int) LSN {
	t.Helper()
	var last LSN
	for i := 0; i < n; i++ {
		lsn, err := l.Append(&Record{Type: TypeUpdate, TxID: 1, Object: 1, After: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		last = lsn
	}
	return last
}
