package fleet

import (
	"io"
	"testing"
	"time"

	"csaw/internal/trace"
	"csaw/internal/worldgen"
)

// TestSoakSameSeedSameSummary is the fleet determinism gate: a ~500-client
// run executed twice with the same seed must render byte-identical
// deterministic summaries — plan aggregates AND the final global-DB
// contents (per-AS URL sets down to their hashes). The whole point of the
// plan-based driver, the P=0 policy, and the affirmative-signal scenario
// (see the package comment) is to make this hold even under the race
// detector's scheduling perturbation, where `make race` runs it.
func TestSoakSameSeedSameSummary(t *testing.T) {
	wl := Workload{
		Population:   480,
		Duration:     30 * time.Minute,
		Seed:         23,
		Sites:        150,
		ISPs:         6,
		BlockedFrac:  0.18,
		MeanSessions: 1.2,
		MaxFetches:   3,
	}
	// Both runs record flight-recorder spans into a discarded stream: with
	// 48 parallel workers the trace *content* is schedule-dependent (that is
	// what csaw-fleet -trace's workers=1 discipline is for), but the soak is
	// where `make race` proves the recorder's hot path — pooled spans, lane
	// refcounts, the shared sink — is data-race-free under real contention.
	withTrace := func(w *worldgen.World, o *Options) {
		o.Workers = 48
		o.Trace = trace.New(w.Clock, trace.NewStreamSink(io.Discard), trace.WithSampling(16))
	}
	first := runEventFleet(t, wl, withTrace)
	second := runEventFleet(t, wl, withTrace)

	if !first.Summary.Consistent() {
		t.Errorf("run 1 diverged from plan expectation:\n%s", first.Summary.Render())
	}
	a, b := first.Summary.Render(), second.Summary.Render()
	if a != b {
		t.Errorf("same seed, different summaries\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	// The measured halves must agree on work done even though their timing
	// differs: every planned fetch executed, none lost to errors.
	for i, m := range []Measured{first.Measured, second.Measured} {
		if m.Fetches != first.Summary.Fetches || m.FetchErrors > 0 || m.Degraded > 0 {
			t.Errorf("run %d: fetches %d/%d, errors %d, degraded %d",
				i+1, m.Fetches, first.Summary.Fetches, m.FetchErrors, m.Degraded)
		}
	}
	t.Logf("soak: %d clients, %d fetches, peak %d goroutines, %d syncs",
		first.Summary.Population, first.Measured.Fetches,
		first.Measured.PeakGoroutines, first.Measured.Syncs)
}
