package main

import (
	"os"
	"testing"
)

// testRun sets a workload up at smoke size and runs a few hundred
// transactions on it.
func testRun(t *testing.T, name string) *run {
	t.Helper()
	r := &run{w: findWorkload(name).shrunk(), seed: 1, clock: monoClock(), tmp: t.TempDir()}
	if _, err := r.setup(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if r.db != nil {
			r.closeDB()
		}
	})
	r.traffic(0, 0, 400)
	return r
}

func TestOracleAcceptsWhatWasAcknowledged(t *testing.T) {
	for _, name := range []string{"metering", "hot_keys"} {
		r := testRun(t, name)
		if _, _, err := r.restartCycle(); err != nil {
			t.Fatal(err)
		}
		if err := r.oracle(); err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 || r.attempted == 0 {
			t.Errorf("%s: %d of %d checks failed: %v", name, r.failed, r.attempted, r.errs)
		}
	}
}

// A shadow map that disagrees with the database must make the oracle object:
// one forgotten acknowledged write, one counter off by one.
func TestOracleObjectsToACorruptShadow(t *testing.T) {
	r := testRun(t, "metering")
	if err := r.oracle(); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("clean run failed %d checks: %v", r.failed, r.errs)
	}
	receipt, counter := r.w.keys[0], r.w.counters[0]
	for _, c := range r.clients {
		if c.sh.slots[receipt].seq > 0 {
			c.sh.slots[receipt].seq++
		}
	}
	r.clients[0].sh.counters[counter]++
	r.check()
	if r.failed != 2 {
		t.Errorf("oracle counted %d failures for two corruptions: %v", r.failed, r.errs)
	}
}

func TestValuesDescribeThemselves(t *testing.T) {
	v := make([]byte, valueSize)
	makeValue(v, 42, 1, 7)
	if c, seq, ok := parseValue(v, 42); !ok || c != 1 || seq != 7 {
		t.Errorf("parseValue = %d, %d, %v", c, seq, ok)
	}
	if _, _, ok := parseValue(v, 43); ok {
		t.Error("value accepted under another key")
	}
	v[40] ^= 1
	if _, _, ok := parseValue(v, 42); ok {
		t.Error("corrupted value accepted")
	}
}

// The restart image is a function of the seed alone, and recovery of it must
// find exactly what the builder's shadow map says.
func TestRestartImage(t *testing.T) {
	a, err := buildImage(smokeImage, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildImage(smokeImage, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.files) != len(b.files) {
		t.Fatalf("same seed, %d and %d files", len(a.files), len(b.files))
	}
	for name, data := range a.files {
		if string(b.files[name]) != string(data) {
			t.Errorf("same seed, different %s", name)
		}
	}
	r := &run{w: restartWorkload(smokeImage), seed: 3, clock: monoClock(), tmp: t.TempDir()}
	rec, err := r.restartRep(a, values{}, func() {})
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Errorf("%d of %d checks failed: %v", r.failed, r.attempted, r.errs)
	}
	if rec.trace.Losers != uint64(smokeImage.losers) {
		t.Errorf("recovery found %d losers, the image has %d", rec.trace.Losers, smokeImage.losers)
	}
	// Forget one surviving write: the same check must now fail.
	a.want[a.special[0]]++
	if _, err := r.restartRep(a, values{}, func() {}); err != nil {
		t.Fatal(err)
	}
	if r.failed == 0 {
		t.Error("a wrong shadow map went unnoticed")
	}
}

func TestSmoke(t *testing.T) {
	// Database files go under the working directory, as in a real run.
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)
	if err := runSmoke(1); err != nil {
		t.Fatal(err)
	}
}
