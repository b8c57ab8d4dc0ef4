package bench

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// The experiment harness is exercised at tiny sizes so its plumbing (and
// the claims' *direction*) stays verified by `go test`.

func TestE1Shape(t *testing.T) {
	tab, err := E1NoDelegationOverhead(20, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Identical forward-pass sizes is the hard part of the claim.
	if tab.Rows[0][3] != tab.Rows[1][3] {
		t.Fatalf("forward records differ: %v vs %v", tab.Rows[0], tab.Rows[1])
	}
}

func TestE2Linear(t *testing.T) {
	tab, err := E2DelegationLinearity([]int{1, 64}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// One record per DelegateAll, whatever the object count, growing by
	// at most 10 bytes per further object.
	var bytes []int
	for i, row := range tab.Rows {
		if row[3] != "1" {
			t.Fatalf("row %d appends = %s, want 1", i, row[3])
		}
		n, err := strconv.Atoi(row[4])
		if err != nil {
			t.Fatal(err)
		}
		bytes = append(bytes, n)
	}
	if slope := float64(bytes[1]-bytes[0]) / 63; slope > 10 {
		t.Fatalf("log bytes %v: %.2f B per further object, want ≤ 10", bytes, slope)
	}
}

func TestE3ZeroRewritesForRH(t *testing.T) {
	tab, err := E3RecoveryVsDelegationRate(400, []float64{0.2})
	if err != nil {
		t.Fatal(err)
	}
	var sawRH, sawLazyRewrites bool
	for _, row := range tab.Rows {
		if row[1] == "ARIES/RH" {
			sawRH = true
			if row[5] != "0" || row[6] != "0" {
				t.Fatalf("ARIES/RH rewrote: %v", row)
			}
		}
		if row[1] == "lazy" && row[5] != "0" {
			sawLazyRewrites = true
		}
	}
	if !sawRH || !sawLazyRewrites {
		t.Fatalf("rows missing: rh=%v lazyRewrites=%v", sawRH, sawLazyRewrites)
	}
}

func TestE4SweepGrowth(t *testing.T) {
	tab, err := E4EagerSweepVsLogLength([]int{200, 2000})
	if err != nil {
		t.Fatal(err)
	}
	var eagerReads []int
	for _, row := range tab.Rows {
		if row[1] == "eager" {
			n, err := strconv.Atoi(row[2])
			if err != nil {
				t.Fatal(err)
			}
			eagerReads = append(eagerReads, n)
		}
		if row[1] == "ARIES/RH" && row[2] != "0" {
			t.Fatalf("RH read the log during delegation: %v", row)
		}
	}
	if len(eagerReads) != 2 || eagerReads[1] < eagerReads[0]*5 {
		t.Fatalf("eager reads did not grow with the log: %v", eagerReads)
	}
}

func TestE5RunsAndAgrees(t *testing.T) {
	tab, err := E5EOS(20, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Both rows report the same number of redone changes: the engines
	// agree on the committed state.
	if tab.Rows[0][5] != tab.Rows[1][5] {
		t.Fatalf("redo counts differ: %v vs %v", tab.Rows[0], tab.Rows[1])
	}
}

func TestE6AllModelsRun(t *testing.T) {
	tab, err := E6ETMMacro(50)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Delegation counts prove the models run on the delegation API.
	// (Open nested is the exception: its children commit directly and
	// coupling is semantic, so its delegation count may be zero.)
	if tab.Rows[0][3] != "0" {
		t.Fatalf("flat baseline delegated: %v", tab.Rows[0])
	}
	for _, row := range tab.Rows[1:4] {
		if row[3] == "0" {
			t.Fatalf("ETM row without delegations: %v", row)
		}
	}
}

func TestA1FullScanVisitsMore(t *testing.T) {
	tab, err := A1ClusterSweepAblation(600, []float64{0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	cluster, _ := strconv.Atoi(tab.Rows[0][3])
	full, _ := strconv.Atoi(tab.Rows[1][3])
	if full <= cluster {
		t.Fatalf("full scan visited %d ≤ cluster %d", full, cluster)
	}
	if tab.Rows[0][4] != tab.Rows[1][4] {
		t.Fatalf("CLR counts differ: %v vs %v", tab.Rows[0], tab.Rows[1])
	}
}

func TestTableFormat(t *testing.T) {
	tab := &Table{
		ID: "EX", Title: "title", Claim: "claim",
		Headers: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}},
		Verdict: "fine",
	}
	out := tab.Format()
	for _, want := range []string{"EX — title", "claim: claim", "a", "bb", "verdict: fine"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted table missing %q:\n%s", want, out)
		}
	}
}

func TestE14InstantShape(t *testing.T) {
	tab, err := E14InstantRestart([]int{1024, 4096}, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	// One sequential and one pipeline row per length.
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4:\n%s", len(tab.Rows), tab.Format())
	}
	// The verdict's timing thresholds are too noisy at test sizes to
	// assert; the correctness checks inside the harness (every first
	// read must return the probe's committed value) are the test.
	if tab.Verdict == "" {
		t.Fatal("empty verdict")
	}
}

func TestE13ArchiveShape(t *testing.T) {
	tab, err := E13ArchiveCost([]int{512, 8192}, 128, 256, 1024, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Two latency cells, two disk cells, one crash-sweep cell.
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5:\n%s", len(tab.Rows), tab.Format())
	}
	// The verdict also weighs a latency ratio, which the printed table
	// reports and no test asserts; the counted facts are checked here.
	atoi := func(s string) int {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("%v in:\n%s", err, tab.Format())
		}
		return n
	}
	noArchive, windowed, sweep := tab.Rows[2], tab.Rows[3], tab.Rows[4]
	if peak, unbounded := atoi(windowed[4]), atoi(noArchive[4]); peak >= unbounded {
		t.Fatalf("windowed peak %d bytes not below unbounded %d", peak, unbounded)
	}
	if kept, all := atoi(windowed[2]), atoi(noArchive[2]); kept >= all {
		t.Fatalf("windowed archiving kept %d of %d segments: none deleted", kept, all)
	}
	var boundaries, crashes, torn, rotations, archives, base int
	if _, err := fmt.Sscanf(sweep[5], "boundaries=%d crashes=%d torn=%d rotations=%d archives=%d base=%d",
		&boundaries, &crashes, &torn, &rotations, &archives, &base); err != nil {
		t.Fatalf("crash-sweep note %q: %v", sweep[5], err)
	}
	if want := min(boundaries, 20); crashes != want {
		t.Fatalf("crash sweep recovered %d of %d swept boundaries", crashes, want)
	}
	if rotations == 0 || archives == 0 {
		t.Fatalf("crash sweep never crashed a maintenance path: rotations=%d archives=%d", rotations, archives)
	}
}
