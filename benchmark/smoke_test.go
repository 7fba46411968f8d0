package main

import (
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"testing"
)

// TestSmoke runs all four workloads at toy size, timed and traced, and
// checks that the run is correct and that the workloads and metrics it
// emits are exactly the ones BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	var declared []string
	for _, w := range sp.Workloads {
		declared = append(declared, w.Name)
	}
	if got, want := declared, workloadNames; !slices.Equal(got, want) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", got, want)
	}
	wantE2E := map[string]string{}
	for _, e := range sp.EndToEnd {
		wantE2E[e.Name] = e.Unit
	}
	wantLayer := map[string]string{}
	for _, l := range sp.PerLayer {
		wantLayer[l.Name] = l.Unit
	}

	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{
				workload: name, seed: 7, seconds: 0, trace: traced,
				sz: toySizes, scratch: t.TempDir(),
			}
			if traced {
				cfg.traceOut = filepath.Join(t.TempDir(), "trace.jsonl")
			}
			m, err := runOnce(cfg)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", name, traced, err)
			}
			if !m.correct() || m.attempted < 1 {
				t.Errorf("%s (traced=%v): failed=%d attempted=%d: %s", name, traced, m.failed, m.attempted, m.problem)
			}
			want := wantE2E
			unit := func(n string) string {
				for _, e := range endToEnd {
					if e.name == n {
						return e.unit
					}
				}
				return ""
			}
			if traced {
				want, unit = wantLayer, unitOf
			}
			var missing, extra []string
			for n := range want {
				if _, ok := m.metrics[n]; !ok {
					missing = append(missing, n)
				}
			}
			for n := range m.metrics {
				if !nameOK.MatchString(n) {
					t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", name, n)
				}
				if u, ok := want[n]; !ok {
					extra = append(extra, n)
				} else if u != unit(n) {
					t.Errorf("%s: %s is declared in %q, reported in %q", name, n, u, unit(n))
				}
			}
			sort.Strings(missing)
			sort.Strings(extra)
			if len(missing)+len(extra) > 0 {
				t.Errorf("%s (traced=%v): declared but not emitted %v; emitted but not declared %v", name, traced, missing, extra)
			}
		}
	}
}

// TestNamesDeclaredOnce checks the Go-side tables against each other: what
// report() prints for a traced run is perLayerNames, each exactly once.
func TestNamesDeclaredOnce(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range perLayerNames() {
		if seen[n] {
			t.Errorf("per-layer metric %s listed twice", n)
		}
		seen[n] = true
	}
	if len(seen) > 128 {
		t.Errorf("%d per-layer metrics; BENCHMARK.json allows 128", len(seen))
	}
}
