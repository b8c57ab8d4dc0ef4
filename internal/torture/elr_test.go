package torture

import "testing"

// TestELRCrashSweep is the headline early-lock-release torture run: a
// concurrent, contended workload is crashed at every device-sync
// boundary, and every boundary must recover to oracle agreement with no
// dependent transaction surviving a predecessor's lost commit.  The run
// must actually exercise the mechanism: violations (grants over a live
// commit-LSN stamp, raising the acquirer's horizon) must form, crashes
// must fire inside the pre-durable window,
// both winners and losers must appear, and read-only transactions must be
// acknowledged after reading pre-durable data — each one checked against
// the durable commits of the writers it read from.
func TestELRCrashSweep(t *testing.T) {
	cfg := ELRConfig{Seed: 11}
	if testing.Short() {
		cfg.MaxBoundaries = 20
	}
	res, err := ELRRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("elr sweep: %+v", res)
	if res.Boundaries == 0 {
		t.Fatal("probe run performed no syncs")
	}
	want := res.Boundaries
	if cfg.MaxBoundaries > 0 && want > cfg.MaxBoundaries {
		want = cfg.MaxBoundaries
	}
	if res.Crashes != want {
		t.Errorf("recovered at %d of %d boundaries", res.Crashes, want)
	}
	if res.Fired == 0 {
		t.Error("no boundary froze the device inside the workload")
	}
	if res.Violations == 0 {
		t.Error("no lock violation formed; the sweep never opened the ELR window")
	}
	if res.Winners == 0 || res.Losers == 0 {
		t.Errorf("degenerate classification: %d winners, %d losers", res.Winners, res.Losers)
	}
	if res.TornCrashes == 0 {
		t.Error("no boundary produced a torn tail")
	}
	if res.ReadOnlyAcks == 0 || res.ReadOnlyDeferred == 0 {
		t.Errorf("read-only invariant unexercised: %d acks, %d of them deferred on a pre-durable writer",
			res.ReadOnlyAcks, res.ReadOnlyDeferred)
	}
}

// TestELRShardSweep is the cross-shard sweep under early lock release: a
// concurrent workload over a 3-shard cluster — hot-object writers
// committing early, readers on one or two shards, two-phase writers and
// cross-shard delegations — is crashed at every sync of every shard.
// Every boundary must recover to the decision-settled oracle with nothing
// in doubt, no dependent surviving a lost predecessor, and every
// acknowledged reader's writers durable; and the run must open the
// window: violations, deferred reader acks and durable two-phase
// decisions must all appear.
func TestELRShardSweep(t *testing.T) {
	cfg := ELRConfig{Seed: 13, Rounds: 20}
	if testing.Short() {
		cfg.MaxBoundaries = 30
	}
	res, err := ShardELRRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("shard elr sweep: %+v", res)
	want := res.Boundaries
	if cfg.MaxBoundaries > 0 && want > cfg.MaxBoundaries {
		want = cfg.MaxBoundaries
	}
	if res.Crashes != want {
		t.Errorf("recovered at %d of %d boundaries", res.Crashes, want)
	}
	if res.Fired == 0 || res.TornCrashes == 0 {
		t.Errorf("no boundary froze a device inside the workload (%d) or tore a tail (%d)", res.Fired, res.TornCrashes)
	}
	if res.Violations == 0 || res.GlobalCommits == 0 {
		t.Errorf("the sweep never opened the ELR window (%d violations) or decided a two-phase commit (%d)",
			res.Violations, res.GlobalCommits)
	}
	if res.ReadOnlyAcks == 0 || res.ReadOnlyDeferred == 0 {
		t.Errorf("read-only invariant unexercised: %d acks, %d of them deferred on a pre-durable writer",
			res.ReadOnlyAcks, res.ReadOnlyDeferred)
	}
}

// TestELRSweepSecondSeed re-runs a smaller sweep under a different seed,
// guarding against the headline test passing by seed luck.
func TestELRSweepSecondSeed(t *testing.T) {
	res, err := ELRRun(ELRConfig{Seed: 12, Rounds: 15, MaxBoundaries: 25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 || res.Violations == 0 {
		t.Fatalf("sweep did no useful work: %+v", res)
	}
}

// TestELRHealedForceSweep runs the ELR workload with a failed-then-healed
// force at every 8th sync boundary, judged as TestELRCrashSweep is, with
// the oracle's refusal of a CLR after a commit record on top.
func TestELRHealedForceSweep(t *testing.T) {
	cfg := ELRConfig{Seed: 11}
	if testing.Short() {
		cfg.MaxBoundaries = 6
	}
	res, err := ELRRunHealed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("elr healed sweep: %+v", res)
	if res.Crashes == 0 || res.Fired == 0 {
		t.Fatalf("no failed force fired inside the workload: %+v", res)
	}
}
