package main

import (
	"regexp"
	"testing"
)

// The names in BENCHMARK.json are the ones later issues cite; the code must
// emit exactly those, with those units.
func TestManifestMatchesCode(t *testing.T) {
	man, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	var gotW []string
	for _, w := range man.Workloads {
		gotW = append(gotW, w.Name)
		if !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	if want := allWorkloadNames(); !equal(gotW, want) {
		t.Errorf("workloads: BENCHMARK.json has %v, the code runs %v", gotW, want)
	}
	whys := map[string]string{restartName: restartWhy}
	for _, w := range workloads {
		whys[w.name] = w.why
	}
	for _, w := range man.Workloads {
		if w.Why != whys[w.Name] {
			t.Errorf("%s: BENCHMARK.json says %q, the code %q", w.Name, w.Why, whys[w.Name])
		}
	}

	type nu struct{ name, unit string }
	var e2e, layer []nu
	hasSetup := false
	for _, m := range man.EndToEnd {
		e2e = append(e2e, nu{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		wantBetter := "lower"
		for _, d := range endToEnd {
			if d.name == m.Name && d.higher {
				wantBetter = "higher"
			}
		}
		if m.Better != wantBetter {
			t.Errorf("%s: better %q, the code reports the %s quartile", m.Name, m.Better, wantBetter)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, better lower")
	}
	for _, m := range man.PerLayer {
		layer = append(layer, nu{m.Name, m.Unit})
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	check := func(kind string, got []nu, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the code emits %d", kind, len(got), len(defs))
		}
		seen := map[string]bool{}
		for i, d := range defs {
			if !name.MatchString(d.name) || !unit.MatchString(d.unit) {
				t.Errorf("%s: bad name or unit: %q %q", kind, d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("%s: %s declared twice", kind, d.name)
			}
			seen[d.name] = true
			if i < len(got) && (got[i].name != d.name || got[i].unit != d.unit) {
				t.Errorf("%s metric %d: BENCHMARK.json has %v, the code %q %q", kind, i, got[i], d.name, d.unit)
			}
		}
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
	if len(man.EndToEnd) > 16 || len(man.PerLayer) > 128 || len(man.Workloads) > 8 {
		t.Error("more metrics or workloads than the contract allows")
	}
	if len(man.Paths) != 1 || man.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", man.Paths)
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
