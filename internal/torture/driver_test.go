package torture

import (
	"context"
	"errors"
	"regexp"
	"strings"
	"testing"
	"time"

	"ariesrh/internal/core"
	"ariesrh/internal/wal"
)

// tampered is a replayTarget whose reading of the durable image is
// altered before the driver sees it.
type tampered struct {
	*replayTarget
	tamper func(verdict) (verdict, error)
}

func (t tampered) judge(b *boundary) (verdict, error) {
	v, err := t.replayTarget.judge(b)
	if err != nil {
		return v, err
	}
	return t.tamper(v)
}

// TestDriverReportsPlantedDefect gives the driver teeth: a sweep whose
// durable-bytes invariant always fails, and one whose expected state has
// a winner's last update dropped, must each fail the sweep with an error
// naming sweep, seed and boundary — a driver that silently skipped the
// judge's error or the state comparison would pass both.
func TestDriverReportsPlantedDefect(t *testing.T) {
	errPlanted := errors.New("planted invariant failure")
	cases := []struct {
		name   string
		tamper func(verdict) (verdict, error)
		check  func(error) bool
	}{
		{"invariant", func(v verdict) (verdict, error) { return v, errPlanted },
			func(err error) bool { return errors.Is(err, errPlanted) }},
		{"dropped-update", func(v verdict) (verdict, error) {
			recs := v.expect[0]
			winners := durableWinners(recs)
			for i := len(recs) - 1; i >= 0; i-- {
				if recs[i].Type == wal.TypeUpdate && winners[recs[i].TxID] {
					kept := append(append([]*wal.Record(nil), recs[:i]...), recs[i+1:]...)
					return verdict{expect: [][]*wal.Record{kept}, began: v.began}, nil
				}
			}
			return v, nil
		}, func(err error) bool { return strings.Contains(err.Error(), "oracle") }},
	}
	for _, c := range cases {
		cfg := Config{Seed: 5, Steps: 300, MaxBoundaries: 40}.withDefaults()
		_, _, err := cfg.replaySweep("planted-"+c.name, false, func(rt *replayTarget) (target, error) {
			return tampered{rt, c.tamper}, nil
		}).run()
		if err == nil {
			t.Errorf("%s: the sweep passed", c.name)
			continue
		}
		t.Logf("%s: %v", c.name, err)
		prefix := regexp.MustCompile(`^torture: planted-` + c.name + ` seed 5 boundary \d+ `)
		if !prefix.MatchString(err.Error()) || !c.check(err) {
			t.Errorf("%s: error does not name sweep, seed, boundary and the defect: %v", c.name, err)
		}
	}
}

// TestGuardNamesAHang: a workload that never returns fails its boundary
// at the deadline with each engine's lock orphans and health, instead of
// running into the package timeout; one that returns passes its error
// through.
func TestGuardNamesAHang(t *testing.T) {
	eng, err := core.New(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	engines := []*core.Engine{eng}
	release := make(chan struct{})
	defer close(release)
	err = guard(20*time.Millisecond, "workload", engines, func(context.Context) error {
		<-release
		return nil
	})
	if err == nil {
		t.Fatal("a hung workload passed the guard")
	}
	for _, want := range []string{"workload hung", "engine 0", "LockOrphans []", "Health healthy"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("hang report %q lacks %q", err, want)
		}
	}
	errOwn := errors.New("own error")
	if err := guard(hangDeadline, "workload", engines, func(context.Context) error { return errOwn }); err != errOwn {
		t.Errorf("guard returned %v, want the function's own error", err)
	}
}

// TestReadsDuringRecoveryDeterminism pins reproducibility for the
// pipeline sweep: the mid-recovery readers change when redo happens,
// never what is judged, so two runs must aggregate identically.
func TestReadsDuringRecoveryDeterminism(t *testing.T) {
	cfg := Config{Seed: 5, Steps: 300, MaxBoundaries: 40}
	a, err := RunReadsDuringRecovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunReadsDuringRecovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different sweeps:\n  %+v\n  %+v", a, b)
	}
}
